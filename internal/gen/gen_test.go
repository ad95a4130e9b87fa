package gen_test

import (
	"bytes"
	"errors"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/gen"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
)

func TestGeneratePipeline(t *testing.T) {
	g := harness.Fig1()
	r, err := gen.Generate(g, gen.AlgOurs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Schedule.Phases) != 9 {
		t.Errorf("phases = %d, want 9", len(r.Schedule.Phases))
	}
	if r.Plan.NumSyncs() == 0 || r.Plan.NumSyncs() >= r.Plan.ConflictPairs {
		t.Errorf("syncs = %d of %d conflicts", r.Plan.NumSyncs(), r.Plan.ConflictPairs)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := harness.Fig1()
	r, err := gen.Generate(g, gen.AlgOurs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"numRanks": 6`, `"numPhases": 9`, `"load": 9`, `"phases"`, `"syncs"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
	s2, plan2, err := gen.UnmarshalRoutineJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s2.Phases, r.Schedule.Phases) || s2.NumRanks != 6 {
		t.Error("schedule did not round-trip")
	}
	if !reflect.DeepEqual(plan2.Syncs, r.Plan.Syncs) || plan2.ConflictPairs != r.Plan.ConflictPairs {
		t.Error("plan did not round-trip")
	}
	// Round-tripped schedule must still verify against the topology.
	if err := schedule.Verify(g, s2, true); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, _, err := gen.UnmarshalRoutineJSON([]byte("{")); err == nil {
		t.Error("want JSON error")
	}
	// A routine without syncs carries no plan.
	if _, plan, err := gen.UnmarshalRoutineJSON([]byte(`{"numRanks": 2, "phases": [[{"src": 0, "dst": 1}], [{"src": 1, "dst": 0}]]}`)); err != nil || plan != nil {
		t.Errorf("syncs absent: plan %v, err %v; want nil, nil", plan, err)
	}
}

// TestScheduleEveryAlgorithm: each algorithm's schedule passes its own check
// on every preset where it is feasible, the plan of each is the planner's,
// and ring where it oversubscribes a link fails with the verifier's error.
func TestScheduleEveryAlgorithm(t *testing.T) {
	for _, preset := range []string{"fig1", "a", "b", "c", "bg"} {
		g, err := harness.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []string{gen.AlgOurs, gen.AlgGreedy, gen.AlgAuto, gen.AlgRing} {
			if !gen.ValidAlg(alg) {
				t.Fatalf("%s not valid", alg)
			}
			r, err := gen.Generate(g, alg)
			var verr *schedule.VerifyError
			if alg == gen.AlgRing && schedule.VerifyCapacity(g, schedule.BuildRing(g)) != nil {
				if !errors.As(err, &verr) {
					t.Errorf("%s ring: got %v, want a verification error", preset, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %s: %v", preset, alg, err)
			}
			if err := schedule.VerifyCapacity(g, r.Schedule); err != nil {
				t.Errorf("%s %s: %v", preset, alg, err)
			}
			if want, err := syncplan.Build(g, r.Schedule); err != nil || !reflect.DeepEqual(r.Plan, want) {
				t.Errorf("%s %s: plan is not the planner's (%v)", preset, alg, err)
			}
		}
	}
	if gen.ValidAlg("quantum") {
		t.Error("unknown algorithm accepted")
	}
	if _, err := gen.Schedule(harness.Fig1(), "quantum", 1); err == nil {
		t.Error("unknown algorithm scheduled")
	}
}

func TestGoSourceParses(t *testing.T) {
	for _, preset := range []string{"fig1", "a", "b"} {
		g, err := harness.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		r, err := gen.Generate(g, gen.AlgOurs)
		if err != nil {
			t.Fatal(err)
		}
		src, err := r.GoSource("main", "newGeneratedAlltoall")
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		fset := token.NewFileSet()
		if _, err := parser.ParseFile(fset, "gen.go", src, parser.AllErrors); err != nil {
			t.Errorf("%s: generated source does not parse: %v", preset, err)
		}
		for _, want := range []string{
			"Code generated by aapcgen",
			"package main",
			"func newGeneratedAlltoall()",
			"alltoall.NewScheduled",
		} {
			if !strings.Contains(string(src), want) {
				t.Errorf("%s: generated source missing %q", preset, want)
			}
		}
	}
}

// TestGeneratedExampleInSync regenerates the checked-in routine of
// examples/generated and fails if it drifted from the generator output.
func TestGeneratedExampleInSync(t *testing.T) {
	g := harness.Fig1()
	r, err := gen.Generate(g, gen.AlgOurs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.GoSource("main", "newFig1Alltoall")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../examples/generated/fig1_routine.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("examples/generated/fig1_routine.go is stale; regenerate with:\n" +
			"  go run ./cmd/aapcgen -topo fig1 -go examples/generated/fig1_routine.go -package main -func newFig1Alltoall")
	}
}
