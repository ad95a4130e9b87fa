package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// writeTestTrace runs the compiled schedule on the mem transport with
// tracing and writes the JSONL trace plus the topology DSL to dir.
func writeTestTrace(t *testing.T, dir string) (tracePath, topoPath string) {
	t.Helper()
	g := topology.New()
	s := g.MustAddSwitch("s0")
	for _, name := range []string{"n0", "n1", "n2", "n3"} {
		g.MustConnect(g.MustAddMachine(name), s)
	}
	g.MustValidate()

	sc, err := harness.CompileRoutine(g, alltoall.PairwiseSync)
	if err != nil {
		t.Fatal(err)
	}
	const msize = 2048
	recs := make([]*obsv.Recorder, g.NumMachines())
	for i := range recs {
		recs[i] = obsv.NewRecorder(i)
	}
	err = mem.Run(len(recs), func(c mpi.Comm) error {
		return sc.Fn()(obsv.Instrument(c, recs[c.Rank()]), alltoall.NewShared(msize), msize)
	})
	if err != nil {
		t.Fatal(err)
	}

	tracePath = filepath.Join(dir, "run.jsonl")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	meta := obsv.Meta{Ranks: len(recs), Transport: "mem", Name: "ours", Msize: msize}
	if err := obsv.WriteRecorders(f, meta, recs...); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	topoPath = filepath.Join(dir, "topo.dsl")
	if err := os.WriteFile(topoPath, []byte(g.Format()), 0o644); err != nil {
		t.Fatal(err)
	}
	return tracePath, topoPath
}

func TestOfflineReportWithPrediction(t *testing.T) {
	dir := t.TempDir()
	tracePath, topoPath := writeTestTrace(t, dir)

	var out bytes.Buffer
	o := &options{
		report:  tracePath,
		file:    topoPath,
		predict: true,
		common:  true,
	}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"trace report: 4 ranks",
		"straggler: rank",
		"critical path (",
		"sim-vs-real divergence:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	// A healthy run on a healthy simulator must not flag links.
	if strings.Contains(text, "!") {
		t.Errorf("clean run flagged a link:\n%s", text)
	}
}

func TestOfflineReportJSON(t *testing.T) {
	dir := t.TempDir()
	tracePath, _ := writeTestTrace(t, dir)
	var out bytes.Buffer
	o := &options{report: tracePath, common: true, jsonOut: true}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"critical"`) {
		t.Errorf("JSON report missing critical path:\n%s", out.String())
	}
}

func TestServeModeIngestAndReport(t *testing.T) {
	dir := t.TempDir()
	tracePath, topoPath := writeTestTrace(t, dir)

	g, _, err := harness.LoadTopology(topoPath, "", false)
	if err != nil {
		t.Fatal(err)
	}
	srv, ln, err := newServer(&options{addr: "127.0.0.1:0", common: true}, g)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/trace/ingest", "application/x-ndjson", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/trace/report?format=text")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(body.String(), "trace report: 4 ranks") {
		t.Errorf("served report wrong:\n%s", body.String())
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body.Reset()
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(body.String(), "aapc_trace_ingests_total 1") {
		t.Errorf("metrics missing trace counters:\n%s", body.String())
	}
}

// TestOfflineReportDrawsTrace: a text report opens with the trace's flow
// statistics and one Gantt row per rank — here of a simulated run of fig1,
// 30 data flows and one control flow per sync message — and a trace naming
// a rank outside its world is refused.
func TestOfflineReportDrawsTrace(t *testing.T) {
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
	var out bytes.Buffer
	if err := run(&options{report: path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	head := fmt.Sprintf("trace ours (simnet, 6 ranks): 30 data flows, %d control flows, peak concurrency", sc.SyncCount())
	if !strings.HasPrefix(text, head) {
		t.Errorf("report does not open with %q:\n%s", head, text)
	}
	if rows := strings.Count(text, "\nrank"); rows != 6 {
		t.Errorf("report has %d Gantt rows, want 6:\n%s", rows, text)
	}
	if !strings.Contains(text, "trace report: 6 ranks") {
		t.Errorf("report missing the collector's report:\n%s", text)
	}

	forged := filepath.Join(dir, "forged.jsonl")
	if err := os.WriteFile(forged, []byte(`{"meta":{"ranks":2}}`+"\n"+
		`{"kind":"send","rank":5,"peer":0,"phase":-1,"start":0,"end":1,"bytes":4096}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&options{report: forged}, &out); err == nil {
		t.Error("want error reading a trace with a rank outside its world")
	}
	if err := run(&options{report: filepath.Join(dir, "missing.jsonl")}, &out); err == nil {
		t.Error("want error for a missing trace file")
	}
}

// TestTopoHelpNamesEveryPreset: -topo's help lists every preset.
func TestTopoHelpNamesEveryPreset(t *testing.T) {
	fs := flag.NewFlagSet("aapctrace", flag.ContinueOnError)
	new(options).bind(fs)
	if u := fs.Lookup("topo").Usage; !strings.Contains(u, harness.PresetList()) {
		t.Errorf("-topo help %q does not list %s", u, harness.PresetList())
	}
}
