package tcp

import (
	"fmt"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// Rank, with the methods below, makes a node its rank's mpi.Comm (and
// mpi.Flusher; Kill, in node.go, makes it an mpi.Killer), however it was
// wired.
func (nd *node) Rank() int    { return nd.rank }
func (nd *node) Size() int    { return nd.n }
func (nd *node) Now() float64 { return time.Since(nd.start).Seconds() }

// TransportStats snapshots the data-plane counters: the whole world's for
// an in-process world (its ranks share them), this rank's for a joined one.
// (FramesSent+AcksSent)/Writevs is the write-coalescing factor.
func (nd *node) TransportStats() Stats { return nd.stats.snapshot() }

// errReservedTag rejects user operations on the barrier's tag space.
func errReservedTag(tag int) mpi.Request {
	return mpi.Completed(fmt.Errorf("tcp: negative tag %d is reserved", tag))
}

// zeroCopyMin is the smallest payload that borrows the caller's buffer
// unconditionally. Below it a pooled copy is cheaper
// than deferring completion to the ack — unless the slice is already
// pool-aligned, in which case borrowing costs nothing extra.
const zeroCopyMin = 1024

func (nd *node) Isend(op mpi.Op) mpi.Request {
	if op.Tag < 0 {
		return errReservedTag(op.Tag)
	}
	return nd.isend(op)
}

// isend frames and queues the op's payload toward op.Peer without blocking
// the caller. Frames for one destination are written by a single writer in
// enqueue order, so MPI's non-overtaking guarantee holds per (source,
// destination, tag). The borrowed path is the steady state; staging copies
// are confined to the small-message fallback and the self-send loopback.
// TestZeroCopyAliasing checks that a borrowed frame's payload iovec is the
// caller's block.
func (nd *node) isend(op mpi.Op) mpi.Request {
	if err := mpi.CheckRank(nd, op.Peer); err != nil {
		return mpi.Completed(err)
	}
	if err := nd.killed.Load(); err != nil {
		return mpi.Completed(err)
	}
	if op.Peer == nd.rank {
		return nd.matcher.loopback(nd.rank, op)
	}
	// The frame is taken before the stream lock; a failed stream drops it
	// to the garbage collector.
	fr := getDataFrame(&nd.sendFrames, op)
	st := &nd.links[op.Peer].st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed != nil {
		return mpi.Completed(st.failed)
	}
	switch {
	case fr.size == 0:
	case fr.size >= zeroCopyMin || poolAligned(fr.buf):
		// Borrow: the caller's bytes ride the writev batch directly and the
		// request completes only when the cumulative ack retires the frame —
		// until then MPI's no-modify rule keeps them stable, so
		// retransmissions can reuse them verbatim. Zero copies.
		fr.borrowed = true
		nd.stats.borrowedSends.Add(1)
	default:
		// Copy: for small, non-pool-aligned buffers the ack-deferred
		// completion costs more than the copy. The pooled copy makes the
		// frame retransmittable forever and completes at first write.
		fr.buf = nd.pool.get(fr.size)
		copy(fr.buf, op.Buf)
		fr.poolable = true
		nd.stats.copiedSends.Add(1)
		nd.stats.payloadCopies.Add(1)
	}
	st.queue = append(st.queue, fr)
	st.enq++
	st.cond.Signal()
	return fr
}

// Flush blocks until every frame this rank has so far accepted toward dst
// has completed at least one full socket write — the bytes are in the
// kernel, ordered ahead of anything the rank writes afterwards
// (mpi.Flusher). It does NOT wait for delivery: borrowed-frame completion
// still defers to the cumulative ack. The scheduled algorithm orders its
// synchronization emits on this watermark, paying a local writer handoff
// instead of a delivery round trip per phase boundary.
//
// d > 0 bounds the wait with a typed *mpi.TimeoutError; d <= 0 waits until
// the watermark is reached or the stream fails.
func (nd *node) Flush(dst int, d time.Duration) error {
	if err := mpi.CheckRank(nd, dst); err != nil {
		return err
	}
	if dst == nd.rank {
		return nil // self-sends bypass the stream and deliver at once
	}
	st := &nd.links[dst].st
	st.mu.Lock()
	target := st.enq
	reached := st.waitLocked(d, func() bool { return st.wrote >= target })
	failed := st.failed
	st.mu.Unlock()
	switch {
	case reached:
		return nil
	case failed != nil:
		return failed
	}
	return &mpi.TimeoutError{Op: "flush", After: d}
}

func (nd *node) Irecv(op mpi.Op) mpi.Request {
	if op.Tag < 0 {
		return errReservedTag(op.Tag)
	}
	return nd.irecv(op)
}

// irecv posts a receive. It takes payload bytes straight off the socket
// when it is posted before the frame arrives.
func (nd *node) irecv(op mpi.Op) mpi.Request {
	if err := mpi.CheckRank(nd, op.Peer); err != nil {
		return mpi.Completed(err)
	}
	if err := nd.killed.Load(); err != nil {
		return mpi.Completed(err)
	}
	ro := getRecvOp(&nd.recvOps, op)
	nd.matcher.post(matchKey{src: op.Peer, tag: op.Tag}, ro)
	return ro
}

// Barrier runs a dissemination barrier over the transport itself:
// ceil(log2 n) rounds, each rank signalling rank+2^k and waiting for
// rank-2^k, with reserved negative tags per generation and round. When the
// rank has an OpDeadline, every wait is bounded by it and a stuck barrier
// returns a typed *mpi.TimeoutError instead of hanging.
func (nd *node) Barrier() error {
	n, rank := nd.n, nd.rank
	if n == 1 {
		return nil
	}
	d := nd.cfg.OpDeadline
	gen := nd.barrierGen
	nd.barrierGen++
	round := 0
	for dist := 1; dist < n; dist <<= 1 {
		tag := -(gen*64 + round + 1)
		dst := (rank + dist) % n
		src := (rank - dist + n) % n
		sr := nd.isend(mpi.Op{Peer: dst, Tag: tag})
		rr := nd.irecv(mpi.Op{Peer: src, Tag: tag})
		if err := mpi.WaitTimeout(sr, d); err != nil {
			return fmt.Errorf("tcp: barrier round %d: %w", round, err)
		}
		if err := mpi.WaitTimeout(rr, d); err != nil {
			return fmt.Errorf("tcp: barrier round %d: %w", round, err)
		}
		round++
	}
	return nil
}
