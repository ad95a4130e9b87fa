package schedule

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/aapc-sched/aapcsched/internal/topology"
)

// randomClusterFor derives a random cluster from quick-generated values.
func randomClusterFor(seed int64, switches, machines uint) (*topology.Graph, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	g := topology.RandomCluster(topology.RandomOptions{
		Switches: int(switches%5) + 1,
		Machines: int(machines%14) + 2,
		Rand:     rng,
	})
	return g, rng
}

// TestQuickGreedyParallelMatchesSequential pins the equivalence contract of
// the parallel builder: for any cluster and worker count, its schedule is
// byte-for-byte the sequential BuildGreedy schedule.
func TestQuickGreedyParallelMatchesSequential(t *testing.T) {
	prop := func(seed int64, switches, machines, workers uint) bool {
		g, _ := randomClusterFor(seed, switches, machines)
		want := BuildGreedy(g)
		got := BuildGreedyParallel(g, int(workers%8)+1)
		if !reflect.DeepEqual(got, want) {
			t.Logf("cluster:\n%sworkers=%d\nsequential:\n%sparallel:\n%s",
				g.Format(), int(workers%8)+1, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestGreedyParallelMatchesSequentialLarge crosses the parallel-probe
// threshold (4096 phases) that the small quick clusters never reach, so the
// speculative-probe + serial-revalidate path is the one being compared.
func TestGreedyParallelMatchesSequentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large greedy equivalence skipped in -short")
	}
	g := greedyBenchCluster(128)
	want := BuildGreedy(g)
	got := BuildGreedyParallel(g, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel greedy diverges at N=128: %d vs %d phases",
			len(got.Phases), len(want.Phases))
	}
	if len(want.Phases) < 4096 {
		t.Fatalf("test did not cross the parallel-probe threshold (%d phases)", len(want.Phases))
	}
}

// applyRandomDelta picks a feasible random delta for the cluster, skewed
// toward joins and leaves (the common storm events).
func applyRandomDelta(t testingT, g *topology.Graph, rng *rand.Rand) (*topology.Graph, *topology.RankDelta) {
	for attempt := 0; attempt < 8; attempt++ {
		var d topology.Delta
		switch rng.Intn(3) {
		case 0:
			d = topology.Delta{Op: topology.OpJoin, Node: "fresh0", Attach: randomSwitch(g, rng)}
		case 1:
			d = topology.Delta{Op: topology.OpLeave,
				Node: g.Node(g.MachineID(rng.Intn(g.NumMachines()))).Name}
		default:
			d = topology.Delta{Op: topology.OpSwitchFail, Node: randomSwitch(g, rng)}
		}
		newG, rd, err := g.ApplyDelta(d)
		if err == nil && newG.NumMachines() >= 2 {
			return newG, rd
		}
	}
	// Joins are always feasible.
	newG, rd, err := g.ApplyDelta(topology.Delta{Op: topology.OpJoin, Node: "fresh0", Attach: randomSwitch(g, rng)})
	if err != nil {
		t.Fatalf("join fallback failed: %v", err)
	}
	return newG, rd
}

type testingT interface{ Fatalf(string, ...any) }

func randomSwitch(g *topology.Graph, rng *rand.Rand) string {
	var names []string
	for id := 0; id < g.NumNodes(); id++ {
		if g.Node(id).Kind == topology.Switch {
			names = append(names, g.Node(id).Name)
		}
	}
	return names[rng.Intn(len(names))]
}

// firstFitBound is the provable first-fit ceiling for the re-placed
// messages: a message can be rejected from a phase only by a conflicting
// message, and it conflicts with at most sum(load(e)-1) others over its
// path edges, so first-fit places it in a phase of index at most that sum.
func firstFitBound(g *topology.Graph, placed []Message) int {
	idx := g.NewEdgeIndex()
	load := make([]int, idx.Len())
	n := g.NumMachines()
	var path []int32
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			path = g.AppendPathEdgeIDs(idx, g.MachineID(src), g.MachineID(dst), path[:0])
			for _, e := range path {
				load[e]++
			}
		}
	}
	bound := 0
	for _, m := range placed {
		conflicts := 0
		path = g.AppendPathEdgeIDs(idx, g.MachineID(m.Src), g.MachineID(m.Dst), path[:0])
		for _, e := range path {
			conflicts += load[e] - 1
		}
		if conflicts+1 > bound {
			bound = conflicts + 1
		}
	}
	return bound
}

// TestQuickRescheduleAfterDelta: for random clusters and random feasible
// deltas, the incremental reschedule of a greedy schedule must (a) cover
// exactly the new AAPC message set with no intra-phase link sharing
// (Verify), and (b) stay within the first-fit phase bound relative to both
// the pinned schedule and a from-scratch greedy compile.
func TestQuickRescheduleAfterDelta(t *testing.T) {
	prop := func(seed int64, switches, machines uint) bool {
		g, rng := randomClusterFor(seed, switches, machines)
		old := BuildGreedy(g)
		newG, rd := applyRandomDelta(t, g, rng)
		inc, err := Reschedule(old, newG, rd)
		if err != nil {
			t.Logf("Reschedule: %v", err)
			return false
		}
		if err := Verify(newG, inc, false); err != nil {
			t.Logf("incremental schedule invalid: %v\ncluster:\n%s", err, newG.Format())
			return false
		}
		scratch := BuildGreedy(newG)
		var placed []Message
		addedSet := make(map[int]bool, len(rd.Added))
		for _, r := range rd.Added {
			addedSet[r] = true
		}
		for _, p := range inc.Phases {
			for _, m := range p {
				if addedSet[m.Src] || addedSet[m.Dst] {
					placed = append(placed, m)
				}
			}
		}
		limit := len(old.Phases)
		if b := firstFitBound(newG, placed); b > limit {
			limit = b
		}
		if len(inc.Phases) > limit {
			t.Logf("incremental used %d phases; pinned %d, first-fit bound %d, scratch %d",
				len(inc.Phases), len(old.Phases), limit, len(scratch.Phases))
			return false
		}
		// Pure departures can only shrink the schedule.
		if len(rd.Added) == 0 && len(inc.Phases) > len(old.Phases) {
			t.Logf("leave-only delta grew the schedule: %d -> %d phases",
				len(old.Phases), len(inc.Phases))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestReschedulePinsSurvivors: surviving messages must keep their relative
// phase assignment (modulo compaction of emptied phases).
func TestReschedulePinsSurvivors(t *testing.T) {
	g := greedyBenchCluster(24)
	old := BuildGreedy(g)
	newG, rd, err := g.ApplyDelta(topology.Delta{Op: topology.OpLeave, Node: "n7"})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Reschedule(old, newG, rd)
	if err != nil {
		t.Fatal(err)
	}
	oldPhase := old.PhaseOf()
	// Map each surviving old message to its new phase; the assignment must
	// be order-preserving (compaction shifts phases down monotonically).
	newPhase := inc.PhaseOf()
	shift := make(map[int]int) // old phase -> new phase
	for om, op := range oldPhase {
		ns, nd := rd.OldToNew[om.Src], rd.OldToNew[om.Dst]
		if ns < 0 || nd < 0 {
			continue
		}
		np, ok := newPhase[Message{Src: ns, Dst: nd}]
		if !ok {
			t.Fatalf("surviving message %v lost", om)
		}
		if prev, seen := shift[op]; seen && prev != np {
			t.Fatalf("old phase %d split across new phases %d and %d", op, prev, np)
		}
		shift[op] = np
		if np > op {
			t.Fatalf("survivor %v moved later: phase %d -> %d", om, op, np)
		}
	}
}

// TestRescheduleN512Milliseconds is the headline acceptance bound: a single
// node join and a single node leave at N=512 must each patch in under
// 100ms — versus roughly a minute for the sequential greedy recompile — and
// the patched schedules must verify contention-free. The wall-clock bound
// is only enforced without the race detector.
func TestRescheduleN512Milliseconds(t *testing.T) {
	if testing.Short() {
		t.Skip("N=512 reschedule skipped in -short")
	}
	g := greedyBenchCluster(512)
	old, err := Build(g) // the paper's optimal construction, fast at N=512
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []topology.Delta{
		{Op: topology.OpJoin, Node: "fresh0", Attach: "s0"},
		{Op: topology.OpLeave, Node: "n300"},
	} {
		newG, rd, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		// Best of three: the bound is on the operation, not on scheduler
		// noise from sibling test binaries sharing the box.
		var inc *Schedule
		elapsed := time.Duration(1 << 62)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			got, err := Reschedule(old, newG, rd)
			if d := time.Since(start); d < elapsed {
				elapsed = d
			}
			if err != nil {
				t.Fatal(err)
			}
			inc = got
		}
		if err := Verify(newG, inc, false); err != nil {
			t.Fatalf("%s: incremental schedule invalid: %v", d.Format(), err)
		}
		t.Logf("%s: N=512 incremental reschedule in %v (%d -> %d phases)",
			d.Format(), elapsed, len(old.Phases), len(inc.Phases))
		if !raceEnabled && elapsed > 100*time.Millisecond {
			t.Errorf("%s: incremental reschedule took %v, want < 100ms", d.Format(), elapsed)
		}
	}
}

// BenchmarkBuildGreedyParallel tracks the parallel builder against the
// sequential baseline (BenchmarkBuildGreedy) at the same sizes.
func BenchmarkBuildGreedyParallel(b *testing.B) {
	for _, n := range []int{64, 256, 512} {
		g := greedyBenchCluster(n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := BuildGreedyParallel(g, 0)
				if len(s.Phases) == 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}

// BenchmarkReschedule measures the steady-state incremental patch latency
// for a single join at daemon-relevant sizes; the repository benchmark's
// schedule.reschedule_ms row reads the daemon's patch latency.
func BenchmarkReschedule(b *testing.B) {
	for _, n := range []int{128, 512} {
		g := greedyBenchCluster(n)
		old, err := Build(g)
		if err != nil {
			b.Fatal(err)
		}
		newG, rd, err := g.ApplyDelta(topology.Delta{Op: topology.OpJoin, Node: "fresh0", Attach: "s0"})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Reschedule(old, newG, rd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
