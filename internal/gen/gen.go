// Package gen is the automatic routine generator of Section 5: topology in,
// contention-free schedule out, then the minimal pair-wise synchronizations,
// then the customized MPI_Alltoall routine. It holds the one map from an
// algorithm name to the builder that schedules a cluster and the check the
// schedule must pass, so every caller that turns a topology into a schedule
// (aapcgen, the harness's routines, the schedule daemon) makes those choices
// here. The routine is emitted either as JSON (for external tooling; the
// daemon's schedule bodies carry the same phases and syncs) or as compilable
// Go source that embeds the schedule and synchronization plan as literals —
// the equivalent of the C routine the paper's generator produced for LAM/MPI.
package gen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/format"

	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// Algorithm names: the schedule constructions the generator runs.
const (
	// AlgOurs is the paper's load-optimal construction (schedule.Build),
	// verified contention-free and load-optimal.
	AlgOurs = "ours"
	// AlgGreedy is the first-fit baseline (schedule.BuildGreedyParallel).
	AlgGreedy = "greedy"
	// AlgAuto picks the cheaper of the optimal and ring schedules by
	// weighted cost (schedule.BuildAuto) — the heterogeneous-cluster path.
	AlgAuto = "auto"
	// AlgRing is the logical-ring schedule (schedule.BuildRing); it fails
	// verification where a permutation phase oversubscribes a link.
	AlgRing = "ring"
)

// algorithm is a schedule builder and the check its output must pass.
type algorithm struct {
	build  func(g *topology.Graph, workers int) (*schedule.Schedule, error)
	verify func(g *topology.Graph, s *schedule.Schedule) error
}

// lookup maps an algorithm name to its builder and verifier. Every schedule
// but the paper's is checked by the capacity rule (schedule.VerifyCapacity),
// which on a uniform cluster is contention freedom.
func lookup(alg string) (algorithm, error) {
	switch alg {
	case AlgOurs:
		return algorithm{
			build:  func(g *topology.Graph, _ int) (*schedule.Schedule, error) { return schedule.Build(g) },
			verify: func(g *topology.Graph, s *schedule.Schedule) error { return schedule.Verify(g, s, true) },
		}, nil
	case AlgGreedy:
		return algorithm{
			build: func(g *topology.Graph, workers int) (*schedule.Schedule, error) {
				return schedule.BuildGreedyParallel(g, workers), nil
			},
			verify: schedule.VerifyCapacity,
		}, nil
	case AlgAuto:
		return algorithm{
			build:  func(g *topology.Graph, _ int) (*schedule.Schedule, error) { return schedule.BuildAuto(g) },
			verify: schedule.VerifyCapacity,
		}, nil
	case AlgRing:
		return algorithm{
			build:  func(g *topology.Graph, _ int) (*schedule.Schedule, error) { return schedule.BuildRing(g), nil },
			verify: schedule.VerifyCapacity,
		}, nil
	}
	return algorithm{}, fmt.Errorf("gen: unknown algorithm %q", alg)
}

// ValidAlg reports whether alg names a schedule construction.
func ValidAlg(alg string) bool {
	_, err := lookup(alg)
	return err == nil
}

// Schedule builds the named algorithm's schedule for g and verifies it. A
// schedule that fails verification is returned as an error wrapping the
// *schedule.VerifyError. workers bounds the greedy builder's fan-out (<= 0
// means GOMAXPROCS, 1 is serial); the other builders ignore it.
func Schedule(g *topology.Graph, alg string, workers int) (*schedule.Schedule, error) {
	a, err := lookup(alg)
	if err != nil {
		return nil, err
	}
	s, err := a.build(g, workers)
	if err != nil {
		return nil, err
	}
	if err := a.verify(g, s); err != nil {
		return nil, fmt.Errorf("gen: %s schedule failed verification: %w", alg, err)
	}
	return s, nil
}

// Routine bundles everything the generator produces for one topology.
type Routine struct {
	Graph    *topology.Graph
	Schedule *schedule.Schedule
	Plan     *syncplan.Plan
}

// Generate runs the full pipeline with the named algorithm: root
// identification, scheduling (serially), verification and synchronization
// planning.
func Generate(g *topology.Graph, alg string) (*Routine, error) {
	s, err := Schedule(g, alg, 1)
	if err != nil {
		return nil, err
	}
	plan, err := syncplan.Build(g, s)
	if err != nil {
		return nil, err
	}
	return &Routine{Graph: g, Schedule: s, Plan: plan}, nil
}

// jsonRoutine is the serialized schedule format.
type jsonRoutine struct {
	NumRanks      int              `json:"numRanks"`
	NumPhases     int              `json:"numPhases"`
	Load          int              `json:"load"`
	Phases        []schedule.Phase `json:"phases"`
	Syncs         []syncplan.Sync  `json:"syncs"`
	ConflictPairs int              `json:"conflictPairs"`
}

// MarshalJSON renders the routine as indented JSON.
func (r *Routine) MarshalJSON() ([]byte, error) {
	return json.MarshalIndent(jsonRoutine{
		NumRanks:      r.Schedule.NumRanks,
		NumPhases:     len(r.Schedule.Phases),
		Load:          r.Graph.AAPCLoad(),
		Phases:        r.Schedule.Phases,
		Syncs:         r.Plan.Syncs,
		ConflictPairs: r.Plan.ConflictPairs,
	}, "", "  ")
}

// UnmarshalRoutineJSON parses a serialized schedule back into the runtime
// types (without the topology, which JSON does not carry). The plan is nil
// when the JSON carries no syncs. A daemon schedule body parses too: its
// phases and syncs have the same shape, and it carries no conflict count.
func UnmarshalRoutineJSON(data []byte) (*schedule.Schedule, *syncplan.Plan, error) {
	var in jsonRoutine
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, nil, err
	}
	s := &schedule.Schedule{NumRanks: in.NumRanks, Phases: in.Phases}
	if in.Syncs == nil {
		return s, nil, nil
	}
	return s, &syncplan.Plan{Syncs: in.Syncs, ConflictPairs: in.ConflictPairs}, nil
}

// GoSource emits a compilable Go file declaring a constructor for the
// generated routine. pkg is the target package name, fn the constructor
// name.
func (r *Routine) GoSource(pkg, fn string) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by aapcgen; DO NOT EDIT.\n")
	fmt.Fprintf(&b, "//\n// Topology: %d machines, %d switches, AAPC load %d.\n",
		r.Graph.NumMachines(), r.Graph.NumSwitches(), r.Graph.AAPCLoad())
	fmt.Fprintf(&b, "// Schedule: %d contention-free phases, %d synchronizations\n",
		len(r.Schedule.Phases), r.Plan.NumSyncs())
	fmt.Fprintf(&b, "// (reduced from %d conflicting pairs).\n", r.Plan.ConflictPairs)
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	fmt.Fprintf(&b, "import (\n")
	fmt.Fprintf(&b, "\t%q\n", "github.com/aapc-sched/aapcsched/internal/alltoall")
	fmt.Fprintf(&b, "\t%q\n", "github.com/aapc-sched/aapcsched/internal/schedule")
	fmt.Fprintf(&b, "\t%q\n", "github.com/aapc-sched/aapcsched/internal/syncplan")
	fmt.Fprintf(&b, ")\n\n")
	fmt.Fprintf(&b, "// %s builds the MPI_Alltoall routine customized for the topology\n", fn)
	fmt.Fprintf(&b, "// this file was generated from.\n")
	fmt.Fprintf(&b, "func %s() (*alltoall.Scheduled, error) {\n", fn)
	fmt.Fprintf(&b, "\ts := &schedule.Schedule{\n\t\tNumRanks: %d,\n\t\tPhases: []schedule.Phase{\n", r.Schedule.NumRanks)
	for _, p := range r.Schedule.Phases {
		fmt.Fprintf(&b, "\t\t\t{")
		for j, m := range p {
			if j > 0 {
				fmt.Fprintf(&b, ", ")
			}
			fmt.Fprintf(&b, "{Src: %d, Dst: %d}", m.Src, m.Dst)
		}
		fmt.Fprintf(&b, "},\n")
	}
	fmt.Fprintf(&b, "\t\t},\n\t}\n")
	fmt.Fprintf(&b, "\tplan := &syncplan.Plan{\n\t\tConflictPairs: %d,\n\t\tSyncs: []syncplan.Sync{\n", r.Plan.ConflictPairs)
	for _, sy := range r.Plan.Syncs {
		fmt.Fprintf(&b, "\t\t\t{After: schedule.Message{Src: %d, Dst: %d}, Before: schedule.Message{Src: %d, Dst: %d}},\n",
			sy.After.Src, sy.After.Dst, sy.Before.Src, sy.Before.Dst)
	}
	fmt.Fprintf(&b, "\t\t},\n\t}\n")
	fmt.Fprintf(&b, "\treturn alltoall.NewScheduled(s, plan, alltoall.PairwiseSync)\n}\n")
	return format.Source(b.Bytes())
}
