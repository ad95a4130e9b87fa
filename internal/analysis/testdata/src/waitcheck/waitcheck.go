// Corpus for the waitcheck analyzer: request lifecycle of Isend/Irecv.
package waitcheck

import (
	"errors"
	"time"
)

// The stubs mirror the mpi layer's shape: one Op descriptor, one send and
// one receive entry on the Comm, one deadline-taking wait on the request,
// and package helpers spelling the common argument shapes.

type Op struct {
	Buf  []byte
	Peer int
}

type TraceInfo struct{ Ctx uint64 }

type Request struct{ done bool }

func (r *Request) Wait(d time.Duration) (TraceInfo, error) { return TraceInfo{}, nil }

type Comm struct{}

func (c *Comm) Isend(op Op) *Request { return &Request{} }
func (c *Comm) Irecv(op Op) *Request { return &Request{} }

func Isend(c *Comm, buf []byte, dst int) *Request { return c.Isend(Op{Buf: buf, Peer: dst}) }
func Irecv(c *Comm, buf []byte, src int) *Request { return c.Irecv(Op{Buf: buf, Peer: src}) }

func wait(r *Request) error {
	_, err := r.Wait(0)
	return err
}

func waitAll(reqs []*Request) error {
	for _, r := range reqs {
		if err := wait(r); err != nil {
			return err
		}
	}
	return nil
}

func prepare(i int) error { return nil }

func timedOut(buf []byte) bool { return len(buf) == 0 }

func chainedWait(c *Comm, buf []byte) error {
	_, err := c.Isend(Op{Buf: buf, Peer: 1}).Wait(time.Second) // ok: waited immediately
	return err
}

func methodDiscarded(c *Comm, buf []byte) {
	c.Isend(Op{Buf: buf, Peer: 1}) // want `result of Isend is discarded; the request is never waited`
}

func discarded(c *Comm, buf []byte) {
	_ = Isend(c, buf, 1) // want `result of Isend is discarded; the request is never waited`
}

func dropped(c *Comm, buf []byte) {
	Irecv(c, buf, 0) // want `result of Irecv is discarded; the request is never waited`
}

func neverWaited(c *Comm, buf []byte) {
	var reqs []*Request
	reqs = append(reqs, Isend(c, buf, 1)) // want `request stored in "reqs" is never waited`
	reqs = reqs[:0]
}

func earlyReturnLeak(c *Comm, buf []byte, n int) error {
	var reqs []*Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, Irecv(c, buf, i))
		if err := prepare(i); err != nil {
			return err // want `return leaks request\(s\) in "reqs" acquired at line \d+ without a Wait on this path`
		}
	}
	return waitAll(reqs)
}

func guardedReturn(c *Comm, buf []byte, n int) error {
	var reqs []*Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, Irecv(c, buf, i))
	}
	if err := waitAll(reqs); err != nil {
		return err // ok: the wait happened in this statement's init
	}
	return nil
}

func singleTracked(c *Comm, buf []byte) error {
	r := Isend(c, buf, 1)
	return wait(r) // ok: waited on the only path
}

func escapesToCaller(c *Comm, buf []byte) *Request {
	return Isend(c, buf, 1) // ok: caller takes responsibility
}

func escapesViaSlice(c *Comm, buf []byte) []*Request {
	var reqs []*Request
	reqs = append(reqs, Isend(c, buf, 1), Irecv(c, buf, 1))
	return reqs // ok: slice escapes to the caller
}

func escapesViaHelper(c *Comm, buf []byte) error {
	return waitAll([]*Request{Isend(c, buf, 1)}) // ok: composite literal handed to the waiter
}

func deliberateAbandon(c *Comm, buf []byte) error {
	r := Isend(c, buf, 1)
	if timedOut(buf) {
		//aapc:allow waitcheck scratch comm is abandoned to the GC on timeout
		return errors.New("timeout")
	}
	return wait(r)
}
