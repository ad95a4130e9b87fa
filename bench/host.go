package main

import (
	"net"
	"time"
)

// hostProbes measures the machine in the same run as the workload, so that
// a shift in every number at once can be told from a change in the code:
// single-thread memory copy bandwidth and the round trip of one byte over a
// loopback TCP connection.
func hostProbes(e *env) {
	const size = 32 << 20
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	var rates []float64
	for i := 0; i < 8; i++ {
		t0 := time.Now()
		copy(dst, src)
		rates = append(rates, size/1e6/time.Since(t0).Seconds())
	}
	e.set("host.memcpy_MBps", median(rates))
	if rtt, err := loopbackRTT(2000); err == nil {
		e.set("host.loopback_rtt_us", rtt)
	}
}

// loopbackRTT returns the median round trip, in microseconds, of a one-byte
// ping-pong over a loopback TCP connection.
func loopbackRTT(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 1)
		for i := 0; i < n; i++ {
			if _, err := c.Read(buf); err != nil {
				echoed <- err
				return
			}
			if _, err := c.Write(buf); err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	buf := make([]byte, 1)
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := c.Write(buf); err != nil {
			return 0, err
		}
		if _, err := c.Read(buf); err != nil {
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	if err := <-echoed; err != nil {
		return 0, err
	}
	return median(rtts), nil
}
