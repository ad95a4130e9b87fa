package alltoall

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/mpitest"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// fillPattern writes a distinctive byte pattern into rank's send blocks:
// byte j of the block for dst is a function of (rank, dst, j).
func fillPattern(b *Contig, rank, n int) {
	for dst := 0; dst < n; dst++ {
		blk := b.SendBlock(dst)
		for j := range blk {
			blk[j] = byte(rank*31 + dst*7 + j)
		}
	}
}

// checkPattern verifies rank's receive blocks contain what each source sent.
func checkPattern(b *Contig, rank, n int) error {
	for src := 0; src < n; src++ {
		blk := b.RecvBlock(src)
		for j := range blk {
			if want := byte(src*31 + rank*7 + j); blk[j] != want {
				return fmt.Errorf("rank %d block from %d byte %d: got %d want %d",
					rank, src, j, blk[j], want)
			}
		}
	}
	return nil
}

// runOnMem runs an algorithm on the in-process transport and verifies the
// full data permutation, and that each rank waited every request it posted.
func runOnMem(t *testing.T, name string, fn Func, n, msize int) {
	t.Helper()
	var mu sync.Mutex
	bufs := make(map[int]*Contig)
	err := mem.Run(n, func(c mpi.Comm) error {
		b := NewContig(n, msize)
		fillPattern(b, c.Rank(), n)
		mu.Lock()
		bufs[c.Rank()] = b
		mu.Unlock()
		return mpitest.WaitsAll(c, func(c mpi.Comm) error { return fn(c, b, msize) })
	})
	if err != nil {
		t.Fatalf("%s n=%d msize=%d: %v", name, n, msize, err)
	}
	for r := 0; r < n; r++ {
		if err := checkPattern(bufs[r], r, n); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBaselineAlgorithmsCorrect(t *testing.T) {
	algos := map[string]Func{
		"simple":        Simple,
		"simple-offset": SimpleOffset,
		"ring":          RingExchange,
		"bruck":         Bruck,
		"mpich":         MPICH,
	}
	for name, fn := range algos {
		for _, n := range []int{1, 2, 3, 5, 8, 13} {
			for _, msize := range []int{1, 7, 64, 1000} {
				runOnMem(t, name, fn, n, msize)
			}
		}
	}
}

func TestPairwiseCorrectPowerOfTwo(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		runOnMem(t, "pairwise", Pairwise, n, 256)
	}
}

func TestPairwiseRejectsNonPowerOfTwo(t *testing.T) {
	err := mem.Run(6, func(c mpi.Comm) error {
		return Pairwise(c, NewContig(6, 8), 8)
	})
	if err == nil {
		t.Fatal("want error for non-power-of-two world")
	}
}

func TestMPICHDispatch(t *testing.T) {
	// All three regimes must produce correct results; dispatch itself is
	// exercised by message size.
	for _, msize := range []int{64, 256, 1024, 32768, 40000} {
		runOnMem(t, "mpich", MPICH, 8, msize) // power of two -> pairwise for large
		runOnMem(t, "mpich", MPICH, 6, msize) // non-power-of-two -> ring for large
	}
}

// fig1 is the running example cluster from the paper.
func fig1(t testing.TB) *topology.Graph {
	t.Helper()
	g, err := topology.ParseString(`
switches s0 s1 s2 s3
machines n0 n1 n2 n3 n4 n5
link s0 n0
link s0 n1
link s0 s2
link s2 n2
link s1 s0
link s1 s3
link s1 n5
link s3 n3
link s3 n4
`)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildScheduled(t testing.TB, g *topology.Graph, mode SyncMode) *Scheduled {
	t.Helper()
	s, err := schedule.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	var plan *syncplan.Plan
	if mode == PairwiseSync {
		plan, err = syncplan.Build(g, s)
		if err != nil {
			t.Fatal(err)
		}
	}
	sc, err := NewScheduled(s, plan, mode)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestScheduledCorrectOnMem(t *testing.T) {
	g := fig1(t)
	for _, mode := range []SyncMode{PairwiseSync, BarrierSync, NoSync} {
		sc := buildScheduled(t, g, mode)
		if sc.NumRanks() != 6 {
			t.Fatalf("NumRanks = %d", sc.NumRanks())
		}
		runOnMem(t, "scheduled/"+mode.String(), sc.Fn(), 6, 512)
	}
}

func TestScheduledCorrectOnRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		g := topology.RandomCluster(topology.RandomOptions{
			Switches: 1 + rng.Intn(4),
			Machines: 3 + rng.Intn(10),
			Rand:     rng,
		})
		sc := buildScheduled(t, g, PairwiseSync)
		runOnMem(t, "scheduled", sc.Fn(), g.NumMachines(), 128)
	}
}

func TestScheduledCorrectOnSimnet(t *testing.T) {
	// The simulator moves real bytes too; verify the permutation end to end
	// in virtual time.
	g := fig1(t)
	sc := buildScheduled(t, g, PairwiseSync)
	w, err := simnet.NewWorld(simnet.Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	const msize = 2048
	var mu sync.Mutex
	bufs := make(map[int]*Contig)
	err = w.Run(func(c mpi.Comm) error {
		b := NewContig(c.Size(), msize)
		fillPattern(b, c.Rank(), c.Size())
		mu.Lock()
		bufs[c.Rank()] = b
		mu.Unlock()
		return sc.Fn()(c, b, msize)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		if err := checkPattern(bufs[r], r, 6); err != nil {
			t.Error(err)
		}
	}
}

func TestScheduledNearPeakOnIdealNetwork(t *testing.T) {
	// On an ideal fluid network (MinEfficiency 1, tiny alpha) the scheduled
	// algorithm must approach the best-case time load*msize/B; the unsched-
	// uled baseline must not beat the bound.
	g := fig1(t)
	sc := buildScheduled(t, g, PairwiseSync)
	const (
		bw    = 1e6
		msize = 100000
		alpha = 1e-6
	)
	elapsed := func(fn Func) float64 {
		w, err := simnet.NewWorld(simnet.Config{
			Graph:          g,
			LinkBandwidth:  bw,
			StartupLatency: alpha,
			MinEfficiency:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(c mpi.Comm) error {
			return fn(c, NewShared(msize), msize)
		}); err != nil {
			t.Fatal(err)
		}
		return w.Elapsed()
	}
	best := g.BestCaseTime(msize, bw) // 9 * msize / bw
	ours := elapsed(sc.Fn())
	if ours < best {
		t.Errorf("scheduled %.4g beat the physical bound %.4g", ours, best)
	}
	if ours > best*1.15 {
		t.Errorf("scheduled %.4g more than 15%% off the bound %.4g", ours, best)
	}
	lam := elapsed(Simple)
	if lam < best {
		t.Errorf("LAM %.4g beat the physical bound %.4g", lam, best)
	}
}

func TestScheduledSyncCounts(t *testing.T) {
	g := fig1(t)
	withSync := buildScheduled(t, g, PairwiseSync)
	if withSync.SyncCount() == 0 {
		t.Error("pairwise routine has no syncs")
	}
	noSync := buildScheduled(t, g, NoSync)
	if noSync.SyncCount() != 0 {
		t.Error("nosync routine has syncs")
	}
	if withSync.Mode() != PairwiseSync || noSync.Mode() != NoSync {
		t.Error("mode accessor broken")
	}
}

func TestScheduledWorldSizeMismatch(t *testing.T) {
	g := fig1(t)
	sc := buildScheduled(t, g, PairwiseSync)
	err := mem.Run(4, func(c mpi.Comm) error {
		return sc.Fn()(c, NewContig(4, 8), 8)
	})
	if err == nil {
		t.Fatal("want world-size mismatch error")
	}
}

func TestNewScheduledRequiresPlan(t *testing.T) {
	g := fig1(t)
	s, err := schedule.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduled(s, nil, PairwiseSync); err == nil {
		t.Error("want error for missing plan")
	}
	if _, err := NewScheduled(s, nil, BarrierSync); err != nil {
		t.Errorf("barrier mode should not need a plan: %v", err)
	}
}

func TestSyncModeString(t *testing.T) {
	if PairwiseSync.String() != "pairwise" || BarrierSync.String() != "barrier" ||
		NoSync.String() != "nosync" || SyncMode(9).String() == "" {
		t.Error("SyncMode.String broken")
	}
}

func TestContigAndSharedBuffers(t *testing.T) {
	cb := NewContig(4, 16)
	if len(cb.SendBlock(3)) != 16 || len(cb.RecvBlock(0)) != 16 {
		t.Error("contig block sizes wrong")
	}
	cb.SendBlock(2)[0] = 42
	if cb.Send[32] != 42 {
		t.Error("contig block aliasing wrong")
	}
	sb := NewShared(16)
	if &sb.SendBlock(0)[0] != &sb.SendBlock(3)[0] {
		t.Error("shared blocks must alias")
	}
}

func TestSingleRankWorlds(t *testing.T) {
	for name, fn := range map[string]Func{
		"simple": Simple, "offset": SimpleOffset, "ring": RingExchange, "bruck": Bruck,
	} {
		runOnMem(t, name, fn, 1, 32)
	}
}

func TestWindowedCorrect(t *testing.T) {
	for _, window := range []int{1, 2, 4, 16} {
		for _, n := range []int{1, 2, 5, 8} {
			runOnMem(t, fmt.Sprintf("windowed-%d", window), Windowed(window), n, 300)
		}
	}
}

func TestWindowedBadWindow(t *testing.T) {
	err := mem.Run(2, func(c mpi.Comm) error {
		return Windowed(0)(c, NewContig(2, 8), 8)
	})
	if err == nil {
		t.Fatal("want error for window 0")
	}
}

func TestWindowedThrottlesContention(t *testing.T) {
	// On the simulator, a small window limits concurrent flows and improves
	// completion time versus full fan-out on a congested star when the
	// efficiency penalty is active.
	g := fig1(t)
	elapsed := func(fn Func) float64 {
		w, err := simnet.NewWorld(simnet.Config{Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		const msize = 128 << 10
		if err := w.Run(func(c mpi.Comm) error {
			return fn(c, NewShared(msize), msize)
		}); err != nil {
			t.Fatal(err)
		}
		return w.Elapsed()
	}
	full := elapsed(Simple)
	narrow := elapsed(Windowed(1))
	if narrow >= full {
		t.Errorf("window=1 (%.4g) should beat full fan-out (%.4g) on a congested cluster",
			narrow, full)
	}
}
