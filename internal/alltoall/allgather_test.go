package alltoall

import (
	"fmt"
	"sync"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/mpitest"
	"github.com/aapc-sched/aapcsched/internal/simnet"
)

// agByte is the contribution pattern: block content depends only on the
// owner.
func agByte(owner, i int) byte { return byte(owner*59 + i*11 + 1) }

// runAllgatherOnMem executes an allgather and verifies every collected
// block, and that each rank waited every request it posted.
func runAllgatherOnMem(t *testing.T, name string, fn Func, n, msize int) {
	t.Helper()
	var mu sync.Mutex
	bufs := make(map[int]*Contig)
	err := mem.Run(n, func(c mpi.Comm) error {
		b := NewContig(n, msize)
		blk := b.SendBlock(c.Rank())
		for i := range blk {
			blk[i] = agByte(c.Rank(), i)
		}
		mu.Lock()
		bufs[c.Rank()] = b
		mu.Unlock()
		return mpitest.WaitsAll(c, func(c mpi.Comm) error { return fn(c, b, msize) })
	})
	if err != nil {
		t.Fatalf("%s n=%d: %v", name, n, err)
	}
	for r := 0; r < n; r++ {
		for owner := 0; owner < n; owner++ {
			blk := bufs[r].RecvBlock(owner)
			for i := range blk {
				if blk[i] != agByte(owner, i) {
					t.Fatalf("%s: rank %d block of %d byte %d = %d, want %d",
						name, r, owner, i, blk[i], agByte(owner, i))
				}
			}
		}
	}
}

func TestAllgatherRingCorrect(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 9} {
		runAllgatherOnMem(t, fmt.Sprintf("ring-%d", n), AllgatherRing, n, 257)
	}
}

func TestAllgatherScheduledCorrect(t *testing.T) {
	g := fig1(t)
	for _, mode := range []SyncMode{PairwiseSync, BarrierSync, NoSync} {
		sc := buildScheduled(t, g, mode)
		runAllgatherOnMem(t, "scheduled/"+mode.String(), sc.AllgatherFn(), 6, 512)
	}
}

func TestAllgatherScheduledMatchesAlltoallTime(t *testing.T) {
	// Same phases, same sizes: the scheduled allgather must take exactly the
	// scheduled alltoall's virtual time.
	g := fig1(t)
	sc := buildScheduled(t, g, PairwiseSync)
	elapsed := func(fn Func) float64 {
		w, err := simnet.NewWorld(simnet.Config{Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		const msize = 64 << 10
		if err := w.Run(func(c mpi.Comm) error {
			return fn(c, NewShared(msize), msize)
		}); err != nil {
			t.Fatal(err)
		}
		return w.Elapsed()
	}
	a2a := elapsed(sc.Fn())
	ag := elapsed(sc.AllgatherFn())
	if a2a != ag {
		t.Errorf("allgather %.6g s != alltoall %.6g s despite identical phases", ag, a2a)
	}
	// Allgather has multicast structure the AAPC schedule cannot exploit
	// (a block crossing a trunk once can serve every machine behind it), so
	// the ring baseline legitimately beats the AAPC-phased variant here —
	// but it can never beat allgather's own bottleneck bound: the 3 remote
	// blocks that must cross the s0-s1 trunk in each direction.
	ring := elapsed(AllgatherRing)
	allgatherBound := 3.0 * (64 << 10) / simnet.DefaultLinkBandwidth
	if ring < allgatherBound {
		t.Errorf("ring allgather %.6g beat the allgather bound %.6g", ring, allgatherBound)
	}
	if ring >= a2a {
		t.Errorf("ring allgather (%.6g) should exploit multicast reuse and beat the AAPC-phased variant (%.6g)",
			ring, a2a)
	}
}

func TestAllgatherWorldMismatch(t *testing.T) {
	g := fig1(t)
	sc := buildScheduled(t, g, PairwiseSync)
	err := mem.Run(3, func(c mpi.Comm) error {
		return sc.AllgatherFn()(c, NewContig(3, 8), 8)
	})
	if err == nil {
		t.Fatal("want world-size mismatch error")
	}
}
