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

// matchAllPairs fails the test unless Build and BuildCapacityAware return a
// plan and an error DeepEqual to the all-pairs construction's.
func matchAllPairs(t *testing.T, name string, g *topology.Graph, s *schedule.Schedule) {
	t.Helper()
	for _, mode := range []struct {
		capacityAware bool
		build         func(*topology.Graph, *schedule.Schedule) (*syncplan.Plan, error)
	}{{false, syncplan.Build}, {true, syncplan.BuildCapacityAware}} {
		got, gotErr := mode.build(g, s)
		want, wantErr := syncplan.BuildAllPairs(g, s, mode.capacityAware)
		if !reflect.DeepEqual(gotErr, wantErr) || !reflect.DeepEqual(got, want) {
			if got != nil && want != nil {
				t.Fatalf("%s (capacity-aware %v): %d syncs / %d conflict pairs, oracle %d / %d\n%s",
					name, mode.capacityAware, got.NumSyncs(), got.ConflictPairs,
					want.NumSyncs(), want.ConflictPairs, g.Format())
			}
			t.Fatalf("%s (capacity-aware %v): error %v, oracle %v\n%s",
				name, mode.capacityAware, gotErr, wantErr, g.Format())
		}
	}
}

// TestBuildMatchesAllPairs: the chain construction returns exactly the plan
// (syncs and conflict-pair count) and exactly the error of the all-pairs
// construction it replaced, strict and capacity-aware, on the Theorem test's
// random clusters, on schedules whose adjacent phases were merged (same-phase
// sharing), on the experiment presets with every schedule the daemon serves,
// and on schedules patched by Reschedule along a topology storm.
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
		for trial := 0; trial < 200; trial++ {
			g := topology.RandomCluster(topology.RandomOptions{
				Switches: 1 + rng.Intn(8),
				Machines: 3 + rng.Intn(29),
				Rand:     rng,
			})
			s := schedule.BuildGreedyParallel(g, 1)
			if trial%2 == 0 {
				var err error
				if s, err = schedule.Build(g); err != nil {
					t.Fatal(err)
				}
			}
			// Fold about a third of the phases into their predecessor, so runs
			// of two or more phases become one and share links.
			merged := &schedule.Schedule{NumRanks: s.NumRanks, Phases: []schedule.Phase{s.Phases[0]}}
			for _, p := range s.Phases[1:] {
				if last := len(merged.Phases) - 1; rng.Intn(3) == 0 {
					merged.Phases[last] = append(append(schedule.Phase(nil), merged.Phases[last]...), p...)
				} else {
					merged.Phases = append(merged.Phases, p)
				}
			}
			matchAllPairs(t, fmt.Sprintf("trial %d", trial), g, merged)
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
