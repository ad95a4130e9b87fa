package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/simnet"
)

func TestParseMsizes(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"", nil},
		{"8K", []int{8192}},
		{"8K,64K,256K", []int{8192, 65536, 262144}},
		{"1M", []int{1 << 20}},
		{"100", []int{100}},
		{" 4K , 2K ", []int{4096, 2048}},
	}
	for _, tc := range cases {
		got, err := parseMsizes(tc.in)
		if err != nil {
			t.Errorf("parseMsizes(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseMsizes(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"x", "8Q", "-4K", "0"} {
		if _, err := parseMsizes(bad); err == nil {
			t.Errorf("parseMsizes(%q): want error", bad)
		}
	}
}

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
	if err := run(benchOpts(func(o *options) { o.render = "/does/not/exist.jsonl" })); err == nil {
		t.Error("want error for missing render file")
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

// TestRenderTrace draws a recorded trace through -render: a simulated run's
// JSONL file, and one naming a rank outside its world, which the collector
// refuses.
func TestRenderTrace(t *testing.T) {
	g := harness.Fig1()
	sc, err := harness.CompileRoutine(g, alltoall.PairwiseSync)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, err := harness.MeasureObserved(simnet.Config{Graph: g}, sc.Fn(), 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obsv.WriteRecorders(f, obsv.Meta{Transport: "simnet", Name: "ours", Msize: 8 << 10}, recs...); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run(benchOpts(func(o *options) { o.render = path })); err != nil {
		t.Fatal(err)
	}
	forged := filepath.Join(dir, "forged.jsonl")
	if err := os.WriteFile(forged, []byte(`{"meta":{"ranks":2}}`+"\n"+
		`{"kind":"send","rank":5,"peer":0,"phase":-1,"start":0,"end":1,"bytes":4096}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(benchOpts(func(o *options) { o.render = forged })); err == nil {
		t.Error("want error rendering a trace with a rank outside its world")
	}
}
