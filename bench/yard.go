package main

import (
	"container/heap"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"time"
)

// A yardstick is a fixed piece of work written in this file, outside every
// layer of the repository, that loads the machine the way its workload's
// primary op does: the same kind of kernel path, memory traffic and
// goroutine hand-offs, but none of the repository's code. A block of
// yardstick ops runs in every round, beside the primary's block, so
// the slow drift of the shared machine (README.md, "Noise") hits both
// alike, and `op_vs_yard` — primary time per op over yardstick time per op
// — reads the cost of the repository's code in units of that fixed work. A
// change to any layer the primary enters moves it; the machine's mood mostly
// does not.
//
// A yardstick must never change with the code under test: a change that
// claims a gain may not edit this directory.
type yardstick interface {
	// op runs one yardstick operation and checks its own result. Ops of one
	// yardstick run concurrently when the workload has several clients.
	op() (time.Duration, error)
	close() error
}

// The all-to-all yardsticks run the pattern of a phased, acknowledged
// exchange: ranks goroutines; in phase p of an exchange rank r sends a block
// to rank r+p, receives one from rank r-p, acknowledges it with one byte and
// waits for the acknowledgement of its own block before the next phase. So
// an op is, like the compiled routine it is held against, a chain of block
// transfers and small control messages in which every rank keeps waiting
// for some other rank — it slows down with the machine the way the routine
// does (a yardstick that posts all its sends at once, as LAM does, drifted
// against the routine by 8 % between quiet and noisy minutes; this one by
// under 1 %).

// netYard is the yardstick of the tcp workloads: the pattern written
// straight onto loopback net.Conns, one connection per pair, no framing, no
// matching.
type netYard struct {
	ranks, msize, iters int
	conns               [][]net.Conn // conns[r][peer]
	send, recv          [][]byte
}

func newNetYard(ranks, msize, iters int) (*netYard, error) {
	y := &netYard{ranks: ranks, msize: msize, iters: iters, conns: make([][]net.Conn, ranks)}
	for r := range y.conns {
		y.conns[r] = make([]net.Conn, ranks)
		y.send = append(y.send, make([]byte, msize))
		y.recv = append(y.recv, make([]byte, msize))
		fillBlock(y.send[r], uint64(r))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	// One pair at a time, so that the accepted end is known to be the
	// dialled end's peer.
	for a := 0; a < ranks; a++ {
		for b := a + 1; b < ranks; b++ {
			ca, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				y.close()
				return nil, err
			}
			y.conns[a][b] = ca
			cb, err := ln.Accept()
			if err != nil {
				y.close()
				return nil, err
			}
			y.conns[b][a] = cb
		}
	}
	return y, nil
}

// netWrite is one write a rank hands to its writer goroutine.
type netWrite struct {
	peer int
	data []byte
}

func (y *netYard) op() (time.Duration, error) {
	n := y.ranks
	errs := make([]error, 2*n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for r := 0; r < n; r++ {
		wg.Add(2)
		// A rank never blocks in a write: its writer goroutine does, and a
		// phase queues two writes, so every rank always reaches its reads
		// and no cycle of full socket buffers can form.
		writes := make(chan netWrite, 2)
		go func(r int) {
			defer wg.Done()
			for w := range writes {
				if errs[2*r] == nil {
					_, errs[2*r] = y.conns[r][w.peer].Write(w.data)
				}
			}
		}(r)
		go func(r int) {
			defer wg.Done()
			defer close(writes)
			ack, got := []byte{1}, make([]byte, 1)
			for i := 0; i < y.iters; i++ {
				for p := 1; p < n; p++ {
					to, from := (r+p)%n, (r-p+n)%n
					writes <- netWrite{to, y.send[r]}
					if _, err := io.ReadFull(y.conns[r][from], y.recv[r]); err != nil {
						errs[2*r+1] = err
						return
					}
					if k := y.msize - 1; y.recv[r][k] != y.send[from][k] {
						errs[2*r+1] = fmt.Errorf("yardstick: rank %d read wrong bytes from rank %d", r, from)
						return
					}
					writes <- netWrite{from, ack}
					if _, err := io.ReadFull(y.conns[r][to], got); err != nil {
						errs[2*r+1] = err
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return d, err
		}
	}
	return d, nil
}

func (y *netYard) close() error {
	for _, row := range y.conns {
		for _, c := range row {
			if c != nil {
				c.Close() // nothing is in flight between ops
			}
		}
	}
	return nil
}

// chanYard is the yardstick of the shared-memory workload: the pattern with
// every block copied into a buffer that travels to its receiver over a Go
// channel — two copies and a hand-off per block, a hand-off per
// acknowledgement, and no kernel.
type chanYard struct {
	ranks, msize, iters int
	blocks, acks        [][]chan []byte // [src][dst], capacity 1
	send, recv          [][]byte
}

func newChanYard(ranks, msize, iters int) *chanYard {
	y := &chanYard{ranks: ranks, msize: msize, iters: iters}
	for r := 0; r < ranks; r++ {
		y.send = append(y.send, make([]byte, msize))
		y.recv = append(y.recv, make([]byte, msize))
		fillBlock(y.send[r], uint64(r))
		blocks, acks := make([]chan []byte, ranks), make([]chan []byte, ranks)
		for p := range blocks {
			blocks[p], acks[p] = make(chan []byte, 1), make(chan []byte, 1)
		}
		y.blocks, y.acks = append(y.blocks, blocks), append(y.acks, acks)
	}
	return y
}

func (y *chanYard) op() (time.Duration, error) {
	n := y.ranks
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	t0 := time.Now()
	for r := 0; r < n; r++ {
		go func(r int) {
			defer wg.Done()
			// The acknowledgement hands the buffer back, so one buffer per
			// destination is enough.
			bufs := make([][]byte, n)
			for p := range bufs {
				bufs[p] = make([]byte, y.msize)
			}
			for i := 0; i < y.iters; i++ {
				for p := 1; p < n; p++ {
					to, from := (r+p)%n, (r-p+n)%n
					copy(bufs[to], y.send[r])
					y.blocks[r][to] <- bufs[to]
					buf := <-y.blocks[from][r]
					copy(y.recv[r], buf)
					y.acks[r][from] <- buf
					bufs[to] = <-y.acks[to][r]
					if k := y.msize - 1; y.recv[r][k] != y.send[from][k] {
						errs[r] = fmt.Errorf("yardstick: rank %d read wrong bytes from rank %d", r, from)
					}
				}
			}
		}(r)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return d, err
		}
	}
	return d, nil
}

func (y *chanYard) close() error { return nil }

// graphYard is the yardstick of the generator workloads (compile and
// daemon_mix, whose ops are dominated by building a dependence graph and
// reducing it): it builds a random DAG as one small map of successors per
// node and reduces it transitively with one reachability bitset per node —
// maps, short-lived slices and word-wide ORs, like the real thing, on a
// graph of its own.
type graphYard struct {
	nodes, degree int
}

func (y graphYard) op() (time.Duration, error) {
	t0 := time.Now()
	n := y.nodes
	succ := make([]map[int]bool, n)
	x := uint64(88172645463325252)
	for u := range succ {
		succ[u] = make(map[int]bool)
		for k := 0; k < y.degree && u < n-1; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			succ[u][u+1+int(x%uint64(n-1-u))] = true
		}
	}
	words := (n + 63) / 64
	reach := make([][]uint64, n)
	kept := 0
	for u := n - 1; u >= 0; u-- {
		vs := make([]int, 0, len(succ[u]))
		for v := range succ[u] {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		r := make([]uint64, words)
		for _, v := range vs {
			if r[v/64]&(1<<(v%64)) != 0 {
				continue // reachable through a nearer successor: redundant
			}
			kept++
			r[v/64] |= 1 << (v % 64)
			for w := range r {
				r[w] |= reach[v][w]
			}
		}
		reach[u] = r
	}
	d := time.Since(t0)
	if kept < n-1 || kept > n*y.degree {
		return d, fmt.Errorf("yardstick: reduction kept %d edges of a %d-node graph", kept, n)
	}
	return d, nil
}

func (y graphYard) close() error { return nil }

// eventYard is the yardstick of the simulator workload: ranks goroutines
// that each post an event on a shared calendar and sleep until it fires;
// whichever goroutine blocks last advances the clock, shares a capacity out
// over the pending flows and wakes the next one. A heap, a lock, floating
// point and a goroutine hand-off per event — a discrete-event engine in
// miniature.
type eventYard struct {
	ranks, steps int
}

type yardEvent struct {
	at   float64
	rank int
}

type yardCalendar []yardEvent

func (c yardCalendar) Len() int { return len(c) }
func (c yardCalendar) Less(i, j int) bool {
	return c[i].at < c[j].at || (c[i].at == c[j].at && c[i].rank < c[j].rank)
}
func (c yardCalendar) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c *yardCalendar) Push(x any)   { *c = append(*c, x.(yardEvent)) }
func (c *yardCalendar) Pop() any {
	old := *c
	ev := old[len(old)-1]
	*c = old[:len(old)-1]
	return ev
}

func (y eventYard) op() (time.Duration, error) {
	var (
		mu      sync.Mutex
		cal     yardCalendar
		clock   float64
		waiting int
		live    = y.ranks
		rates   = make([]float64, 4*y.ranks)
		wake    = make([]chan struct{}, y.ranks)
	)
	// advance fires the earliest event; the caller holds mu and every live
	// rank is waiting.
	advance := func() {
		ev := heap.Pop(&cal).(yardEvent)
		clock = ev.at
		share := 1.0
		for i := range rates {
			rates[i] = share / float64(len(cal)+1)
			share -= rates[i] * 0.5
		}
		waiting--
		wake[ev.rank] <- struct{}{}
	}
	var wg sync.WaitGroup
	wg.Add(y.ranks)
	t0 := time.Now()
	for r := range wake {
		wake[r] = make(chan struct{}, 1)
		go func(r int) {
			defer wg.Done()
			for s := 0; s < y.steps; s++ {
				mu.Lock()
				heap.Push(&cal, yardEvent{at: clock + 1 + math.Sqrt(float64(r+s)), rank: r})
				waiting++
				if waiting == live {
					advance()
				}
				mu.Unlock()
				<-wake[r]
			}
			mu.Lock()
			live--
			if live > 0 && waiting == live {
				advance()
			}
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	d := time.Since(t0)
	if len(cal) != 0 || math.IsNaN(clock) || clock <= 0 {
		return d, fmt.Errorf("yardstick: calendar ended with %d events at clock %g", len(cal), clock)
	}
	return d, nil
}

func (y eventYard) close() error { return nil }
