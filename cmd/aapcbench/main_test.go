package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/simnet"
)

// benchOpts builds an options value with sane test defaults and applies the
// mutation.
func benchOpts(mutate func(*options)) options {
	o := options{
		topo:   "fig1",
		msizes: "8K",
		bwMbps: 100,
		alpha:  0.5e-3,
		minEff: 0.6,
		iters:  1,
	}
	if mutate != nil {
		mutate(&o)
	}
	return o
}

func TestRunEndToEnd(t *testing.T) {
	// Full driver path on the small example topology, all features on.
	err := run(benchOpts(func(o *options) {
		o.ablation = true
		o.plot = true
		o.gantt = true
		o.jitter = 0.3
		o.control = 1e-4
		o.csvPath = "-"
		o.iters = 2
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTopologyFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/c.topo"
	if err := writeTestTopo(path); err != nil {
		t.Fatal(err)
	}
	err := run(benchOpts(func(o *options) {
		o.topo = ""
		o.file = path
		o.msizes = "4K"
		o.minEff = 1
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(benchOpts(func(o *options) { o.topo = "nope"; o.msizes = "" })); err == nil {
		t.Error("want error for unknown preset")
	}
	if err := run(benchOpts(func(o *options) { o.topo = ""; o.file = "/does/not/exist"; o.msizes = "" })); err == nil {
		t.Error("want error for missing file")
	}
	if err := run(benchOpts(func(o *options) { o.msizes = "zap" })); err == nil {
		t.Error("want error for bad msizes")
	}
}

func TestUtilizationReport(t *testing.T) {
	g := harness.Fig1()
	sc, err := harness.CompileRoutine(g, alltoall.PairwiseSync)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := harness.MeasureObserved(simnet.Config{Graph: g}, sc.Fn(), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	rep := utilizationReport(g, w.LinkStats(), w.Elapsed())
	// The bottleneck s0--s1 must appear first (highest utilization).
	lines := strings.Split(rep, "\n")
	if len(lines) < 10 {
		t.Fatalf("report too short:\n%s", rep)
	}
	if !strings.Contains(lines[1], "s0 -- s1") {
		t.Errorf("bottleneck link not ranked first:\n%s", rep)
	}
	if !strings.Contains(rep, "%") || !strings.Contains(rep, "#") {
		t.Errorf("report missing bars/percentages:\n%s", rep)
	}
	// Empty inputs degrade gracefully.
	if !strings.Contains(utilizationReport(g, nil, 0), "no utilization") {
		t.Error("empty report should say so")
	}
}

func TestBar(t *testing.T) {
	if bar(-1, 4) != "[----]" || bar(2, 4) != "[####]" || bar(0.5, 4) != "[##--]" {
		t.Errorf("bar rendering wrong: %q %q %q", bar(-1, 4), bar(2, 4), bar(0.5, 4))
	}
}

// TestRunPaperSizeSpellings: -msizes reads sizes as the reports print them.
func TestRunPaperSizeSpellings(t *testing.T) {
	if err := run(benchOpts(func(o *options) { o.msizes = "8KB,64KB" })); err != nil {
		t.Fatal(err)
	}
}

// TestTopoHelpNamesEveryPreset: -topo's help lists every preset.
func TestTopoHelpNamesEveryPreset(t *testing.T) {
	fs := flag.NewFlagSet("aapcbench", flag.ContinueOnError)
	new(options).bind(fs)
	if u := fs.Lookup("topo").Usage; !strings.Contains(u, harness.PresetList()) {
		t.Errorf("-topo help %q does not list %s", u, harness.PresetList())
	}
}

// TestRejectsJSONFlag: BENCHMARK.json is the one benchmark, so -json is an
// unknown flag.
func TestRejectsJSONFlag(t *testing.T) {
	fs := flag.NewFlagSet("aapcbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	new(options).bind(fs)
	err := fs.Parse([]string{"-json", "out"})
	if err == nil || !strings.Contains(err.Error(), "not defined: -json") {
		t.Errorf("-json parsed with err = %v, want an unknown-flag error", err)
	}
}
