// Command aapcgen is the automatic routine generator of Section 5: it takes
// an Ethernet switched cluster description and produces a customized
// MPI_Alltoall routine — the contention-free schedule plus the minimal
// pair-wise synchronizations — either as JSON or as compilable Go source.
//
// Usage:
//
//	aapcgen -file cluster.topo [-json out.json] [-go out.go]
//	        [-package main] [-func newAlltoall] [-v]
//	aapcgen -file cluster.topo -check schedule.json
//
// With no output flags it prints a human-readable summary of the generated
// schedule. With -check it validates an externally produced schedule (JSON:
// aapcgen's own, or an aapcd schedule body) against the topology instead of
// generating one: coverage, per-phase link capacity (contention freedom on
// standard links), whether the phase count is load-optimal, and that a
// carried sync plan is exactly the minimal one for the schedule.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"github.com/aapc-sched/aapcsched/internal/gen"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

func main() {
	var (
		file     = flag.String("file", "", "topology DSL file")
		preset   = flag.String("topo", "", "topology preset (a, b, c, bg, fig1) instead of -file")
		jsonOut  = flag.String("json", "", "write the schedule as JSON to this file ('-' for stdout)")
		goOut    = flag.String("go", "", "write generated Go source to this file ('-' for stdout)")
		pkg      = flag.String("package", "main", "package name for generated Go source")
		funcName = flag.String("func", "newGeneratedAlltoall", "constructor name for generated Go source")
		verbose  = flag.Bool("v", false, "print the full phase-by-phase schedule")
		check    = flag.String("check", "", "validate this schedule JSON against the topology instead of generating")
		wiring   = flag.Bool("wiring", false, "treat -file as raw cabling (cycles allowed); derive the forwarding tree first")
	)
	flag.Parse()
	if *wiring {
		topoFromWiring = true
	}
	if *check != "" {
		if err := runCheck(*file, *preset, *check); err != nil {
			fmt.Fprintln(os.Stderr, "aapcgen:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*file, *preset, *jsonOut, *goOut, *pkg, *funcName, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "aapcgen:", err)
		os.Exit(1)
	}
}

func run(file, preset, jsonOut, goOut, pkg, funcName string, verbose bool) error {
	g, err := loadTopology(file, preset)
	if err != nil {
		return err
	}

	r, err := gen.Generate(g, gen.AlgOurs)
	if err != nil {
		return err
	}

	fmt.Printf("topology: %d machines, %d switches, %d links\n",
		g.NumMachines(), g.NumSwitches(), g.NumLinks())
	fmt.Printf("AAPC load (bottleneck): %d\n", g.AAPCLoad())
	fmt.Printf("schedule: %d contention-free phases, %d messages\n",
		len(r.Schedule.Phases), r.Schedule.NumMessages())
	fmt.Printf("synchronizations: %d (reduced from %d conflicting pairs)\n",
		r.Plan.NumSyncs(), r.Plan.ConflictPairs)
	if verbose {
		fmt.Print(r.Schedule)
	}

	if jsonOut != "" {
		data, err := r.MarshalJSON()
		if err != nil {
			return err
		}
		if err := writeOut(jsonOut, append(data, '\n')); err != nil {
			return err
		}
	}
	if goOut != "" {
		src, err := r.GoSource(pkg, funcName)
		if err != nil {
			return err
		}
		if err := writeOut(goOut, src); err != nil {
			return err
		}
	}
	return nil
}

// runCheck validates an external schedule against the topology.
func runCheck(file, preset, schedPath string) error {
	g, err := loadTopology(file, preset)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(schedPath)
	if err != nil {
		return err
	}
	s, plan, err := gen.UnmarshalRoutineJSON(data)
	if err != nil {
		return err
	}
	if err := schedule.VerifyCapacity(g, s); err != nil {
		return fmt.Errorf("schedule INVALID: %w", err)
	}
	fmt.Printf("schedule valid: %d messages in %d contention-free phases\n",
		s.NumMessages(), len(s.Phases))
	if want := g.AAPCLoad(); len(s.Phases) == want {
		fmt.Printf("phase count is load-optimal (%d)\n", want)
	} else {
		fmt.Printf("phase count %d is NOT load-optimal (load %d)\n", len(s.Phases), want)
	}
	if plan == nil {
		fmt.Println("synchronizations: none carried")
		return nil
	}
	want, err := syncplan.Build(g, s)
	if err != nil {
		return err
	}
	// A daemon body carries no conflict count; aapcgen's JSON does.
	if !slices.Equal(plan.Syncs, want.Syncs) || (plan.ConflictPairs != 0 && plan.ConflictPairs != want.ConflictPairs) {
		return fmt.Errorf("synchronizations INVALID: %d carried (%d conflicting pairs), the minimal plan has %d (%d)",
			plan.NumSyncs(), plan.ConflictPairs, want.NumSyncs(), want.ConflictPairs)
	}
	fmt.Printf("synchronizations carried: %d, the minimal plan\n", plan.NumSyncs())
	return nil
}

// topoFromWiring switches loadTopology into spanning-tree derivation mode.
var topoFromWiring bool

// loadTopology reads the cluster from -file or -topo.
func loadTopology(file, preset string) (*topology.Graph, error) {
	switch {
	case file != "" && topoFromWiring:
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		w, err := topology.ParseWiring(f)
		if err != nil {
			return nil, err
		}
		return w.SpanningTree()
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topology.Parse(f)
	case preset != "":
		return harness.Preset(preset)
	default:
		return nil, fmt.Errorf("need -file or -topo (see -help)")
	}
}

func writeOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
