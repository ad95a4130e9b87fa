package main

import (
	"bytes"
	"context"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/sched"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// testOptions is the flag-default configuration on an ephemeral port.
func testOptions(mutate func(*options)) *options {
	o := &options{
		addr:    "127.0.0.1:0",
		preset:  "fig1",
		cache:   64,
		shards:  8,
		history: 32,
	}
	if mutate != nil {
		mutate(o)
	}
	return o
}

// TestNewServer: the daemon boots from -topo or -file, refuses an unknown
// preset or a missing file, and bounds how long a client may take to send
// its request headers.
func TestNewServer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.dsl")
	if err := os.WriteFile(path, []byte(harness.Fig1().Format()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, o := range []*options{testOptions(nil), testOptions(func(o *options) { o.file = path })} {
		srv, ln, err := newServer(o)
		if err != nil {
			t.Fatal(err)
		}
		ln.Close()
		if srv.ReadHeaderTimeout != 5*time.Second {
			t.Errorf("ReadHeaderTimeout = %v, want 5s", srv.ReadHeaderTimeout)
		}
	}
	if _, _, err := newServer(testOptions(func(o *options) { o.preset = "nope" })); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, _, err := newServer(testOptions(func(o *options) { o.file = "/does/not/exist" })); err == nil {
		t.Error("missing topology file accepted")
	}
}

// TestTopoHelpNamesEveryPreset: -topo's help lists every preset.
func TestTopoHelpNamesEveryPreset(t *testing.T) {
	fs := flag.NewFlagSet("aapcd", flag.ContinueOnError)
	new(options).bind(fs)
	if u := fs.Lookup("topo").Usage; !strings.Contains(u, harness.PresetList()) {
		t.Errorf("-topo help %q does not list %s", u, harness.PresetList())
	}
}

// TestDaemonEndToEnd boots the daemon the way main does and exercises the
// full loop over real HTTP: compile, update stream, patched re-serve,
// metrics.
func TestDaemonEndToEnd(t *testing.T) {
	srv, ln, err := newServer(testOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	cl := sched.NewClient(base, &http.Client{})
	ctx := context.Background()

	resp, err := cl.Schedule(ctx, sched.AlgOurs, 64<<10, true, "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.NumRanks != 6 || resp.Cached {
		t.Fatalf("first schedule: %+v", resp)
	}

	st, err := cl.StartUpdates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ack, err := st.Apply(topology.Delta{Op: topology.OpJoin, Node: "n6", Attach: "s2"})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Error != "" || ack.Version != 2 || ack.Patched != 1 {
		t.Fatalf("join ack: %+v", ack)
	}

	after, err := cl.Schedule(ctx, sched.AlgOurs, 64<<10, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if !after.Incremental || after.NumRanks != 7 {
		t.Fatalf("patched schedule: incremental=%v ranks=%d", after.Incremental, after.NumRanks)
	}
	topo, err := cl.Topology(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.ParseString(topo.DSL)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Verify(g, after.ToSchedule(), false); err != nil {
		t.Errorf("served schedule invalid on served topology: %v", err)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb bytes.Buffer
	if _, err := sb.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "aapcd_topology_updates_total 1") {
		t.Error("metrics missing the topology-update counter")
	}
}

// TestDaemonTraceCollector: the trace collector rides the daemon mux —
// ingest merges into the shared store, reports resolve against the daemon's
// topology, the trace counters land on /metrics, and -pprof exposes the
// profiling endpoints.
func TestDaemonTraceCollector(t *testing.T) {
	srv, ln, err := newServer(testOptions(func(o *options) { o.pprof = true }))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	meta := obsv.Meta{Version: 1, Ranks: 2, Transport: "mem", Name: "ours", Msize: 64}
	evs := []obsv.Event{
		{Kind: obsv.KindSend, Rank: 0, Peer: 1, Seq: 1, Start: 0.1, End: 0.2, Bytes: 4096},
		{Kind: obsv.KindRecv, Rank: 1, Peer: 0, Seq: 1, LinkSeq: 1, Start: 0.1, End: 0.3, Deliver: 0.2, Bytes: 4096},
	}
	var buf bytes.Buffer
	if err := obsv.WriteJSONL(&buf, meta, evs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/trace/ingest", "application/x-ndjson", &buf)
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
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(body.String(), "2 spans (1 causally linked)") {
		t.Errorf("trace report wrong:\n%s", body.String())
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(body.String(), "aapc_trace_spans_total 2") {
		t.Errorf("metrics missing trace counters:\n%s", body.String())
	}

	// The scheduler API still resolves through the outer mux.
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz through outer mux: %d", resp.StatusCode)
	}

	// -pprof exposes the profile index.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: %d", resp.StatusCode)
	}
}

// logBuffer is a concurrency-safe writer for run's log lines.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunGracefulShutdown: run serves until the context is cancelled, then
// drains and returns nil — the signal path main wires up.
func TestRunGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var out logBuffer
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, testOptions(nil), &out) }()

	deadline := time.Now().Add(10 * time.Second)
	var base string
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never logged its address: %q", out.String())
		}
		if s := out.String(); strings.Contains(s, "http://") {
			line := s[strings.Index(s, "http://"):]
			base = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v after cancel", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not stop after cancel")
	}
	if !strings.Contains(out.String(), "drained and stopped") {
		t.Errorf("missing drain log line: %q", out.String())
	}
}
