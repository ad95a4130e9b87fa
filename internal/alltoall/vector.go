package alltoall

import (
	"fmt"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// This file extends the algorithms to non-uniform AAPC (MPI_Alltoallv),
// where every (source, destination) pair exchanges its own message size.
// The paper treats the uniform case; the scheduled routine generalizes
// directly because its phases are contention-free regardless of message
// sizes — only the optimality argument (equal phase durations saturating the
// bottleneck) is specific to uniform sizes.

// VBuffers provides variable-size per-peer blocks for one rank. Block
// lengths carry the counts: len(SendBlockV(dst)) bytes go to dst, and
// len(RecvBlockV(src)) bytes are expected from src.
type VBuffers interface {
	// SendBlockV returns the block this rank sends to dst.
	SendBlockV(dst int) []byte
	// RecvBlockV returns the block receiving data from src.
	RecvBlockV(src int) []byte
}

// VFunc is a non-uniform all-to-all algorithm.
type VFunc func(c mpi.Comm, b VBuffers) error

// ContigV is the MPI_Alltoallv-style contiguous layout with counts and
// displacements.
type ContigV struct {
	Send, Recv             []byte
	SendCounts, RecvCounts []int
	sendDispls, recvDispls []int
}

// NewContigV allocates buffers for the given per-peer byte counts.
// sendCounts[d] is the number of bytes this rank sends to d; recvCounts[s]
// the number it expects from s.
func NewContigV(sendCounts, recvCounts []int) *ContigV {
	b := &ContigV{
		SendCounts: append([]int(nil), sendCounts...),
		RecvCounts: append([]int(nil), recvCounts...),
		sendDispls: make([]int, len(sendCounts)+1),
		recvDispls: make([]int, len(recvCounts)+1),
	}
	for i, c := range sendCounts {
		b.sendDispls[i+1] = b.sendDispls[i] + c
	}
	for i, c := range recvCounts {
		b.recvDispls[i+1] = b.recvDispls[i] + c
	}
	b.Send = make([]byte, b.sendDispls[len(sendCounts)])
	b.Recv = make([]byte, b.recvDispls[len(recvCounts)])
	return b
}

// SendBlockV returns the outgoing block for peer dst.
func (b *ContigV) SendBlockV(dst int) []byte {
	return b.Send[b.sendDispls[dst]:b.sendDispls[dst+1]]
}

// RecvBlockV returns the incoming block for peer src.
func (b *ContigV) RecvBlockV(src int) []byte {
	return b.Recv[b.recvDispls[src]:b.recvDispls[src+1]]
}

// copySelfV moves the rank's own block locally; the send and receive counts
// for self must agree.
func copySelfV(c mpi.Comm, b VBuffers) error {
	src := b.SendBlockV(c.Rank())
	dst := b.RecvBlockV(c.Rank())
	if len(src) != len(dst) {
		return fmt.Errorf("alltoall: self counts disagree: send %d, recv %d", len(src), len(dst))
	}
	copy(dst, src)
	return nil
}

// SimpleV is the LAM-style non-uniform all-to-all: post everything, wait.
func SimpleV(c mpi.Comm, b VBuffers) error {
	n, me := c.Size(), c.Rank()
	if err := copySelfV(c, b); err != nil {
		return err
	}
	reqs := make([]mpi.Request, 0, 2*(n-1))
	for p := 0; p < n; p++ {
		if p != me {
			reqs = append(reqs, mpi.Irecv(c, b.RecvBlockV(p), p, tagData))
		}
	}
	for p := 0; p < n; p++ {
		if p != me {
			reqs = append(reqs, mpi.Isend(c, b.SendBlockV(p), p, tagData))
		}
	}
	return mpi.WaitAll(reqs)
}

// RingV is the step-synchronized non-uniform all-to-all: at step j, send to
// rank+j and receive from rank-j.
func RingV(c mpi.Comm, b VBuffers) error {
	n, me := c.Size(), c.Rank()
	if err := copySelfV(c, b); err != nil {
		return err
	}
	for j := 1; j < n; j++ {
		dst := (me + j) % n
		src := (me - j + n) % n
		if err := mpi.Sendrecv(c,
			b.SendBlockV(dst), dst, tagData,
			b.RecvBlockV(src), src, tagData); err != nil {
			return fmt.Errorf("alltoall: ringv step %d: %w", j, err)
		}
	}
	return nil
}

// PairwiseV is the XOR-exchange non-uniform all-to-all for power-of-two
// worlds.
func PairwiseV(c mpi.Comm, b VBuffers) error {
	n, me := c.Size(), c.Rank()
	if n&(n-1) != 0 {
		return fmt.Errorf("alltoall: PairwiseV requires a power-of-two world, have %d", n)
	}
	if err := copySelfV(c, b); err != nil {
		return err
	}
	for j := 1; j < n; j++ {
		peer := me ^ j
		if err := mpi.Sendrecv(c,
			b.SendBlockV(peer), peer, tagData,
			b.RecvBlockV(peer), peer, tagData); err != nil {
			return fmt.Errorf("alltoall: pairwisev step %d: %w", j, err)
		}
	}
	return nil
}

// FnV returns the non-uniform variant of the compiled scheduled routine: the
// same contention-free phase order and pair-wise synchronizations, with each
// message carrying its own size. Zero-byte messages are still sent so the
// synchronization chains stay intact.
func (sc *Scheduled) FnV() VFunc {
	return func(c mpi.Comm, b VBuffers) error {
		if c.Size() != len(sc.programs) {
			return fmt.Errorf("alltoall: routine compiled for %d ranks, world has %d",
				len(sc.programs), c.Size())
		}
		prog := &sc.programs[c.Rank()]
		if err := copySelfV(c, b); err != nil {
			return err
		}
		recvReqs := make([]mpi.Request, len(prog.recvSrcs))
		for i, src := range prog.recvSrcs {
			recvReqs[i] = mpi.Irecv(c, b.RecvBlockV(src), src, tagData)
		}
		var syncSends []mpi.Request
		syncByte := []byte{1}
		phase := 0
		for i := range prog.sends {
			st := &prog.sends[i]
			if sc.mode == BarrierSync {
				for phase < st.phase {
					if err := c.Barrier(); err != nil {
						return err
					}
					phase++
				}
			}
			for _, w := range prog.waits[st.waitLo:st.waitHi] {
				if err := mpi.Recv(c, make([]byte, 1), w.peer, w.tag); err != nil {
					return fmt.Errorf("alltoall: sync wait from %d: %w", w.peer, err)
				}
			}
			if err := mpi.Send(c, b.SendBlockV(st.dst), st.dst, tagData); err != nil {
				return fmt.Errorf("alltoall: send phase %d to %d: %w", st.phase, st.dst, err)
			}
			for _, e := range prog.emits[st.emitLo:st.emitHi] {
				syncSends = append(syncSends, mpi.Isend(c, syncByte, e.peer, e.tag))
			}
		}
		if sc.mode == BarrierSync {
			for ; phase < prog.numPhases-1; phase++ {
				if err := c.Barrier(); err != nil {
					//aapc:allow waitcheck on error the collective aborts; outstanding requests are abandoned to the transport shutdown path
					return err
				}
			}
		}
		if err := mpi.WaitAll(recvReqs); err != nil {
			//aapc:allow waitcheck on error the collective aborts; outstanding requests are abandoned to the transport shutdown path
			return err
		}
		return mpi.WaitAll(syncSends)
	}
}
