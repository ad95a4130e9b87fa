package alltoall

import (
	"fmt"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// Allgather support: every rank contributes one block (its SendBlock for
// its own rank) and collects every rank's block. The communication pattern
// is the same set of point-to-point messages as AAPC — each ordered pair
// exchanges msize bytes — so the paper's contention-free phases apply
// verbatim; only the payload changes (the sender's own block each time
// instead of a per-destination block).
//
// Note the cost trade-off: allgather has multicast structure that a
// point-to-point AAPC schedule cannot exploit — one copy of a block
// crossing an inter-switch trunk could serve every machine behind it, so
// allgather's bottleneck bound is lower than AAPC's. The scheduled variant
// guarantees contention freedom and inherits the AAPC cost exactly; the
// store-and-forward ring baseline reuses blocks and often beats it on
// multi-switch topologies. Both are provided; topology-aware multicast
// scheduling is future work beyond the paper.

// AllgatherRing is the classic ring allgather: N-1 steps, each rank
// forwarding the block it received in the previous step to its successor.
// When ranks are numbered contiguously per subtree (as the presets are),
// every block crosses each inter-switch link at most twice, exploiting the
// multicast reuse described above.
func AllgatherRing(c mpi.Comm, b Buffers, msize int) error {
	n, me := c.Size(), c.Rank()
	copy(b.RecvBlock(me), b.SendBlock(me))
	if n == 1 {
		return nil
	}
	next := (me + 1) % n
	prev := (me - 1 + n) % n
	// At step s we forward the block of rank (me - s + n) % n.
	for s := 0; s < n-1; s++ {
		outOwner := (me - s + n) % n
		inOwner := (me - s - 1 + n) % n
		if err := mpi.Sendrecv(c,
			b.RecvBlock(outOwner), next, tagData,
			b.RecvBlock(inOwner), prev, tagData); err != nil {
			return fmt.Errorf("alltoall: allgather ring step %d: %w", s, err)
		}
	}
	return nil
}

// AllgatherFn returns the allgather variant of the compiled scheduled
// routine: the same contention-free phases and pair-wise synchronizations,
// with every send carrying the rank's own contribution.
func (sc *Scheduled) AllgatherFn() Func {
	return func(c mpi.Comm, b Buffers, msize int) error {
		if c.Size() != len(sc.programs) {
			return fmt.Errorf("alltoall: routine compiled for %d ranks, world has %d",
				len(sc.programs), c.Size())
		}
		prog := &sc.programs[c.Rank()]
		mine := b.SendBlock(c.Rank())
		copy(b.RecvBlock(c.Rank()), mine)

		recvReqs := make([]mpi.Request, len(prog.recvSrcs))
		for i, src := range prog.recvSrcs {
			recvReqs[i] = mpi.Irecv(c, b.RecvBlock(src), src, tagData)
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
			if err := mpi.Send(c, mine, st.dst, tagData); err != nil {
				return fmt.Errorf("alltoall: allgather send phase %d to %d: %w", st.phase, st.dst, err)
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
