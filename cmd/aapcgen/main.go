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

// options collects the command-line configuration.
type options struct {
	file, preset   string
	wiring         bool
	jsonOut, goOut string
	pkg, funcName  string
	verbose        bool
	check          string
}

// bind registers the command's flags on fs.
func (o *options) bind(fs *flag.FlagSet) {
	fs.StringVar(&o.file, "file", "", "topology DSL file")
	fs.StringVar(&o.preset, "topo", "", "topology preset ("+harness.PresetList()+") instead of -file")
	fs.StringVar(&o.jsonOut, "json", "", "write the schedule as JSON to this file ('-' for stdout)")
	fs.StringVar(&o.goOut, "go", "", "write generated Go source to this file ('-' for stdout)")
	fs.StringVar(&o.pkg, "package", "main", "package name for generated Go source")
	fs.StringVar(&o.funcName, "func", "newGeneratedAlltoall", "constructor name for generated Go source")
	fs.BoolVar(&o.verbose, "v", false, "print the full phase-by-phase schedule")
	fs.StringVar(&o.check, "check", "", "validate this schedule JSON against the topology instead of generating")
	fs.BoolVar(&o.wiring, "wiring", false, "treat -file as raw cabling (cycles allowed); derive the forwarding tree first")
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()
	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "aapcgen:", err)
		os.Exit(1)
	}
}

// run generates the routine, or with -check validates a given one.
func run(o *options) error {
	g, _, err := harness.LoadTopology(o.file, o.preset, o.wiring)
	if err != nil {
		return err
	}
	if o.check != "" {
		return runCheck(g, o.check)
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
	if o.verbose {
		fmt.Print(r.Schedule)
	}

	if o.jsonOut != "" {
		data, err := r.MarshalJSON()
		if err != nil {
			return err
		}
		if err := writeOut(o.jsonOut, append(data, '\n')); err != nil {
			return err
		}
	}
	if o.goOut != "" {
		src, err := r.GoSource(o.pkg, o.funcName)
		if err != nil {
			return err
		}
		if err := writeOut(o.goOut, src); err != nil {
			return err
		}
	}
	return nil
}

// runCheck validates an external schedule against the topology.
func runCheck(g *topology.Graph, schedPath string) error {
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

func writeOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
