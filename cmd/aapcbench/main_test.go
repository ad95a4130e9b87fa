package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
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

func TestRunJSONReport(t *testing.T) {
	dir := t.TempDir()
	if err := run(benchOpts(func(o *options) { o.jsonDir = dir })); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "BENCH_fig1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep benchJSON
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("BENCH_fig1.json does not parse: %v", err)
	}
	if rep.Name != "fig1" || rep.Machines == 0 || len(rep.Cells) == 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if len(rep.Phases) == 0 || len(rep.Phases[0].Phases) == 0 {
		t.Fatalf("report has no phase breakdown: %+v", rep.Phases)
	}
	for _, c := range rep.Cells {
		if c.Seconds <= 0 || c.ThroughputMbps <= 0 {
			t.Errorf("degenerate cell %+v", c)
		}
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
