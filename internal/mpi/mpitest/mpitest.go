// Package mpitest holds test support for code built on mpi.Comm.
package mpitest

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// WaitsAll runs fn on a wrapper of c that counts the requests fn posts
// (Isend, Irecv) and the ones it waits. When fn returns nil, every posted
// request must have been waited: a collective that returns with a request
// still pending has dropped a drain, even if the transport happened to
// deliver the bytes anyway. An error from fn is returned as is, since an
// aborting collective abandons its requests by design.
//
// The wrapper offers mpi.Flusher exactly when c does, so fn takes the same
// branches it would on c itself.
func WaitsAll(c mpi.Comm, fn func(mpi.Comm) error) error {
	cc := &countingComm{Comm: c}
	var wc mpi.Comm = cc
	if fl, ok := c.(mpi.Flusher); ok {
		wc = &countingFlusher{cc, fl}
	}
	if err := fn(wc); err != nil {
		return err
	}
	if posted, waited := cc.posted.Load(), cc.waited.Load(); posted != waited {
		return fmt.Errorf("rank %d: %d requests posted, %d waited", c.Rank(), posted, waited)
	}
	return nil
}

type countingComm struct {
	mpi.Comm
	posted, waited atomic.Int64
}

func (c *countingComm) Isend(op mpi.Op) mpi.Request { return c.count(c.Comm.Isend(op)) }
func (c *countingComm) Irecv(op mpi.Op) mpi.Request { return c.count(c.Comm.Irecv(op)) }

func (c *countingComm) count(r mpi.Request) mpi.Request {
	c.posted.Add(1)
	return &countedRequest{Request: r, c: c}
}

type countingFlusher struct {
	*countingComm
	fl mpi.Flusher
}

func (c *countingFlusher) Flush(dst int, d time.Duration) error { return c.fl.Flush(dst, d) }

// countedRequest counts its first Wait only, so posted == waited means
// every request was waited, not that waits and posts balance in number.
type countedRequest struct {
	mpi.Request
	c      *countingComm
	waited atomic.Bool
}

func (r *countedRequest) Wait(d time.Duration) (mpi.TraceInfo, error) {
	if r.waited.CompareAndSwap(false, true) {
		r.c.waited.Add(1)
	}
	return r.Request.Wait(d)
}
