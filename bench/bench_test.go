package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSchemaMatchesBenchmarkJSON holds BENCHMARK.json and the metric tables
// of the program in step and inside the limits of the benchmark contract.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	ws := workloads()
	if len(ws) != len(m.Workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(ws), len(m.Workloads))
	}
	for i, w := range m.Workloads {
		name(w.Name)
		if w.Name != ws[i].spec().name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, ws[i].spec().name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			name(g.Name)
			if g.Name != want[i].name || g.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program",
					kind, i, g.Name, g.Unit, want[i].name, want[i].unit)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: bad unit %q", g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s: bound %v (end-to-end metrics need one in (0, 0.25], per-layer metrics none)", g.Name, g.Bound)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	if s := m.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s [s] lower, got %+v", s)
	}
	layer := map[string]bool{}
	for _, d := range perLayer {
		layer[d.name] = true
	}
	for _, n := range exactLayer {
		if !layer[n] {
			t.Errorf("exact counter %q is not a per-layer metric", n)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.125, 1.5}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
}

func TestSpanTree(t *testing.T) {
	good := []span{
		{ID: 0, Parent: -1, Op: 7, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Op: 7, Name: "a", Start: 1, End: 5},
		{ID: 2, Parent: 0, Op: 7, Name: "a", Start: 3, End: 8}, // overlaps span 1
		{ID: 3, Parent: 2, Op: 7, Name: "b", Start: 4, End: 6},
	}
	if err := checkSpans(good); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(good)
	// op: 10 minus the union [1,8] of its children; a: 4 + (5 - 2); b: 2.
	if self["op"] != 3 || self["a"] != 7 || self["b"] != 2 {
		t.Errorf("self times = %v", self)
	}
	for name, bad := range map[string][]span{
		"child outlives parent": {{ID: 0, Parent: -1, Name: "op", End: 5}, {ID: 1, Parent: 0, Name: "a", Start: 1, End: 6}},
		"unknown parent":        {{ID: 0, Parent: 3, Name: "a", End: 1}},
		"other op":              {{ID: 0, Parent: -1, Op: 1, Name: "op", End: 5}, {ID: 1, Parent: 0, Op: 2, Name: "a", Start: 1, End: 2}},
		"negative duration":     {{ID: 0, Parent: -1, Name: "op", Start: 2, End: 1}},
	} {
		if checkSpans(bad) == nil {
			t.Errorf("%s: not reported", name)
		}
	}
}

// smoke runs one short run and checks that it printed exactly the metrics of
// its kind, with no failed op.
func smoke(t *testing.T, cfg config, want []metricDef) *result {
	t.Helper()
	res, err := run(cfg, findWorkload(cfg.workload))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		v, ok := res.Metrics[d.name]
		if !ok || v.Unit != d.unit {
			t.Errorf("metric %s [%s] missing or in another unit: %+v", d.name, d.unit, v)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not marshal: %v", err)
	}
	return res
}

// TestSmoke runs every workload once untraced and once traced in the tiny
// shape (two passes of one single-op round), one workload after the other so
// that the goroutine count of a run is its own. Nothing here depends on how
// fast the machine is.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		name := w.spec().name
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			res := smoke(t, config{workload: name, seed: 3, tiny: true, outDir: out}, endToEnd)
			for n, v := range res.Metrics {
				if !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, must be positive", n, v.Value)
				}
			}
			res = smoke(t, config{workload: name, seed: 3, tiny: true, trace: true, outDir: out}, perLayer)
			sh := config{tiny: true}.shape(w.spec())
			for n, want := range map[string]float64{
				"driver.ops_total":         float64(sh.passes * sh.rounds * sh.block * w.spec().clients),
				"driver.failed_frac":       0,
				"driver.goroutines_leaked": 0, // every world, listener and server is gone
			} {
				if got := res.Metrics[n].Value; got != want {
					t.Errorf("%s = %v, want %v", n, got, want)
				}
			}

			// The spans on disk are the tree the run checked in memory.
			f, err := os.Open(filepath.Join(out, name+"-seed3.spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var spans []span
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatal(err)
				}
				spans = append(spans, s)
			}
			if err := checkSpans(spans); err != nil || len(spans) == 0 {
				t.Errorf("%d spans on disk: %v", len(spans), err)
			}
			if len(durationsMs(spans, "op."+w.spec().algs[0])) == 0 {
				t.Errorf("no span of the primary op")
			}
		})
	}
}

// TestShape: op counts are fixed by the workload table and -seconds alone.
func TestShape(t *testing.T) {
	sp := spec{block: 4, rounds: 20, yardBlock: 2}
	for _, c := range []struct {
		seconds float64
		rounds  int
	}{{refSeconds, 20}, {refSeconds / 2, 10}, {0.01, 1}} {
		if got := (config{seconds: c.seconds}).shape(sp); got.rounds != c.rounds || got.block != 4 || got.passes != numPasses {
			t.Errorf("shape at %v s = %+v, want %d rounds", c.seconds, got, c.rounds)
		}
	}
}
