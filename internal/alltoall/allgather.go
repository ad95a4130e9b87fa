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
// run by the same executor over a view in which every send carries the
// rank's own contribution.
func (sc *Scheduled) AllgatherFn() Func {
	fn := sc.Fn()
	return func(c mpi.Comm, b Buffers, msize int) error {
		return fn(c, gatherView{b, c.Rank()}, msize)
	}
}

// gatherView presents allgather buffers as all-to-all buffers: the block
// "for" every peer is the rank's own.
type gatherView struct {
	Buffers
	me int
}

// SendBlock returns the rank's own block, whatever the destination.
func (v gatherView) SendBlock(int) []byte { return v.Buffers.SendBlock(v.me) }
