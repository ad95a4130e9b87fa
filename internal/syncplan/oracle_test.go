package syncplan_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// matchAllPairs fails the test unless Build agrees with the all-pairs
// construction. On a uniform cluster it returns the strict construction's plan
// and error exactly. On any cluster, where the schedule respects every link's
// speed (schedule.VerifyCapacity) it returns the plan of the construction that
// lets a phase share links, and where it does not, an error.
func matchAllPairs(t *testing.T, name string, g *topology.Graph, s *schedule.Schedule) {
	t.Helper()
	got, gotErr := syncplan.Build(g, s)
	match := func(arm string, want *syncplan.Plan, wantErr error) {
		t.Helper()
		if reflect.DeepEqual(gotErr, wantErr) && reflect.DeepEqual(got, want) {
			return
		}
		if got != nil && want != nil {
			t.Fatalf("%s (%s): %d syncs / %d conflict pairs, oracle %d / %d\n%s",
				name, arm, got.NumSyncs(), got.ConflictPairs, want.NumSyncs(), want.ConflictPairs, g.Format())
		}
		t.Fatalf("%s (%s): error %v, oracle %v\n%s", name, arm, gotErr, wantErr, g.Format())
	}
	if g.Uniform() {
		want, wantErr := syncplan.BuildAllPairs(g, s, false)
		match("strict", want, wantErr)
	}
	if err := schedule.VerifyCapacity(g, s); err != nil {
		if gotErr == nil {
			t.Fatalf("%s: Build planned a schedule VerifyCapacity rejects (%v)\n%s", name, err, g.Format())
		}
		return
	}
	want, wantErr := syncplan.BuildAllPairs(g, s, true)
	match("within capacity", want, wantErr)
}

// speedCluster is a random tree shaped like topology.RandomCluster's whose
// links have speeds drawn from {1, 2, 4}.
func speedCluster(rng *rand.Rand, switches, machines int) *topology.Graph {
	speeds := []float64{1, 2, 4}
	g := topology.New()
	sw := make([]int, switches)
	for i := range sw {
		sw[i] = g.MustAddSwitch(fmt.Sprintf("s%d", i))
		if i > 0 {
			g.MustConnectSpeed(sw[i], sw[rng.Intn(i)], speeds[rng.Intn(len(speeds))])
		}
	}
	for i := 0; i < machines; i++ {
		g.MustConnectSpeed(g.MustAddMachine(fmt.Sprintf("n%d", i)), sw[rng.Intn(switches)], speeds[rng.Intn(len(speeds))])
	}
	return g.MustValidate()
}

// mergePhases moves about half the messages of each phase into the phase
// before it: only where that keeps every link within its speed, unless blind.
// A phase's users of a fast link then form groups.
func mergePhases(rng *rand.Rand, g *topology.Graph, s *schedule.Schedule, blind bool) *schedule.Schedule {
	idx := g.NewEdgeIndex()
	load := make([]int, idx.Len()) // each link's users in the last phase of out
	var path []int32
	pathOf := func(m schedule.Message) []int32 {
		path = g.AppendPathEdgeIDs(idx, g.MachineID(m.Src), g.MachineID(m.Dst), path[:0])
		return path
	}
	fits := func(m schedule.Message) bool {
		for _, e := range pathOf(m) {
			if float64(load[e]+1) > g.LinkSpeed(idx.Edge(int(e))) {
				return false
			}
		}
		return true
	}
	out := &schedule.Schedule{NumRanks: s.NumRanks}
	for pi, p := range s.Phases {
		var stay schedule.Phase
		for _, m := range p {
			if pi == 0 || rng.Intn(2) == 0 || !blind && !fits(m) {
				stay = append(stay, m)
				continue
			}
			last := len(out.Phases) - 1
			out.Phases[last] = append(out.Phases[last], m)
			for _, e := range pathOf(m) {
				load[e]++
			}
		}
		if len(stay) == 0 {
			continue
		}
		clear(load)
		for _, m := range stay {
			for _, e := range pathOf(m) {
				load[e]++
			}
		}
		out.Phases = append(out.Phases, stay)
	}
	return out
}

// TestBuildMatchesAllPairs: the chain construction returns exactly the plan
// (syncs and conflict-pair count) and exactly the error of the all-pairs
// construction it replaced (see matchAllPairs), on the Theorem test's random
// clusters, on random trees with fast links whose schedules had messages
// moved into earlier phases (same-phase sharing, within the links' speeds or
// not), on the experiment presets with every schedule the daemon serves, and
// on schedules patched by Reschedule along a topology storm.
func TestBuildMatchesAllPairs(t *testing.T) {
	t.Run("random-clusters", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(99)) // TestTheoremRandomClusters' clusters
		for trial := 0; trial < 400; trial++ {
			g := topology.RandomCluster(topology.RandomOptions{
				Switches: 1 + rng.Intn(8),
				Machines: 3 + rng.Intn(29),
				Rand:     rng,
			})
			s, err := schedule.Build(g)
			if err != nil {
				t.Fatal(err)
			}
			matchAllPairs(t, fmt.Sprintf("trial %d Build", trial), g, s)
			matchAllPairs(t, fmt.Sprintf("trial %d greedy", trial), g, schedule.BuildGreedyParallel(g, 1))
		}
	})
	t.Run("merged-phases", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(23))
		grouped := 0
		for trial := 0; trial < 200; trial++ {
			g := speedCluster(rng, 1+rng.Intn(8), 3+rng.Intn(29))
			s := schedule.BuildGreedyParallel(g, 1)
			if trial%2 == 0 {
				var err error
				if s, err = schedule.Build(g); err != nil {
					t.Fatal(err)
				}
			}
			blind := trial%4 == 3
			merged := mergePhases(rng, g, s, blind)
			matchAllPairs(t, fmt.Sprintf("trial %d (blind %v)", trial, blind), g, merged)
			if _, strictErr := syncplan.BuildAllPairs(g, merged, false); strictErr != nil && schedule.VerifyCapacity(g, merged) == nil {
				grouped++
			}
		}
		// Most within-speed merges must leave a phase sharing a fast link, or
		// the groups go unexercised.
		t.Logf("%d of 150 within-speed merges share a fast link in a phase", grouped)
		if grouped < 100 {
			t.Errorf("%d of 150 within-speed merges share a fast link in a phase, want at least 100", grouped)
		}
	})
	t.Run("presets", func(t *testing.T) {
		t.Parallel()
		for _, name := range []string{"fig1", "a", "b", "c", "bg"} {
			g, err := harness.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := schedule.Build(g)
			if err != nil {
				t.Fatal(err)
			}
			matchAllPairs(t, name+" Build", g, s)
			matchAllPairs(t, name+" greedy", g, schedule.BuildGreedyParallel(g, 1))
			matchAllPairs(t, name+" ring", g, schedule.BuildRing(g))
		}
	})
	t.Run("reschedule-storm", func(t *testing.T) {
		t.Parallel()
		b, err := harness.Preset("b")
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := schedule.Build(b)
		if err != nil {
			t.Fatal(err)
		}
		g, s := b, fresh
		storm := faults.NewTopoStorm(20250808)
		patched := 0
		for step := 0; patched < 150; step++ {
			if step == 400 {
				t.Fatalf("storm patched only %d schedules in %d steps", patched, step)
			}
			// Switch failures prune whole subtrees, so the storm drifts
			// toward tiny clusters; start over from (b) before it gets there.
			if g.NumMachines() < 16 {
				g, s = b, fresh
			}
			delta := storm.Next(g)
			ng, rd, err := g.ApplyDelta(delta)
			if err != nil {
				continue
			}
			if s, err = schedule.Reschedule(s, ng, rd); err != nil {
				t.Fatalf("step %d (%s): %v", step, delta.Format(), err)
			}
			g = ng
			patched++
			matchAllPairs(t, fmt.Sprintf("step %d (%s)", step, delta.Format()), g, s)
		}
	})
}
