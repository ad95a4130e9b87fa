package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/obsv/collect"
)

// opts builds a -local configuration with the defaults the flag set would
// apply.
func opts(mutate func(*options)) *options {
	o := &options{
		local:      true,
		preset:     "fig1",
		alg:        "ours",
		msize:      "4K",
		rendezvous: 30 * time.Second,
	}
	if mutate != nil {
		mutate(o)
	}
	return o
}

func TestLocalWorldEndToEnd(t *testing.T) {
	for _, alg := range []string{"ours", "lam", "mpich"} {
		if err := run(opts(func(o *options) { o.alg = alg })); err != nil {
			t.Errorf("alg %s: %v", alg, err)
		}
	}
}

// TestLocalWorldPaperSizeSpelling: -msize reads a size as the run's own
// banner prints it.
func TestLocalWorldPaperSizeSpelling(t *testing.T) {
	if err := run(opts(func(o *options) { o.msize = "64KB" })); err != nil {
		t.Fatal(err)
	}
}

func TestLocalWorldWithDeadline(t *testing.T) {
	if err := run(opts(func(o *options) { o.deadline = 30 * time.Second })); err != nil {
		t.Errorf("with deadline: %v", err)
	}
}

func TestLocalWorldWithFaultPlan(t *testing.T) {
	// A transient stall and a message delay must not affect correctness.
	o := opts(func(o *options) {
		o.faultsSpec = "seed 7; stall 1 2ms count 2; delay 0 2 1ms count 3"
		o.deadline = 30 * time.Second
	})
	if err := run(o); err != nil {
		t.Errorf("with fault plan: %v", err)
	}
}

// runFaulted runs the verified all-to-all of fig1 on a local world whose
// ranks join through joinRank under the fault plan, and returns each rank's
// transport counters. Every faulted comm must still offer mpi.Flusher.
func runFaulted(t *testing.T, spec string) []tcp.Stats {
	t.Helper()
	o := opts(func(o *options) { o.faultsSpec = spec; o.deadline = 10 * time.Second })
	plan, err := loadFaults(o.faultsSpec)
	if err != nil {
		t.Fatal(err)
	}
	g := harness.Fig1()
	fn, err := harness.Routine(g, o.alg, o.deadline)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumMachines()
	coord, err := tcp.StartCoordinator("127.0.0.1:0", n, tcp.WithRendezvousTimeout(o.rendezvous))
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]tcp.Stats, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			raw, c, _, closeFn, err := joinRank(coord.Addr(), o, plan)
			if err != nil {
				errs <- err
				return
			}
			defer closeFn()
			if _, ok := c.(mpi.Flusher); !ok {
				errs <- fmt.Errorf("rank %d: the faulted comm hides mpi.Flusher", c.Rank())
				return
			}
			err = runRank(c, fn, 1<<10, io.Discard)
			stats[c.Rank()] = raw.(interface{ TransportStats() tcp.Stats }).TransportStats()
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if err := coord.Wait(); err != nil {
		t.Error(err)
	}
	return stats
}

// TestFaultPlanDupReachesTransport: a dup rule duplicates data frames on
// the wire, and the receiving rank discards the copies.
func TestFaultPlanDupReachesTransport(t *testing.T) {
	if d := runFaulted(t, "seed 1; dup 0 1 count 2")[1].DupDiscards; d < 2 {
		t.Errorf("rank 1 discarded %d duplicate frames, want >= 2", d)
	}
}

// TestFaultPlanDropRecovers: a drop rule breaks the link under a data frame;
// the link reconnects, the frame is retransmitted and the run verifies.
func TestFaultPlanDropRecovers(t *testing.T) {
	var recovered uint64
	for _, s := range runFaulted(t, "seed 1; drop 0 1 count 1") {
		recovered += s.Reconnects + s.Retransmits
	}
	if recovered == 0 {
		t.Error("no reconnect or retransmit after an injected drop")
	}
}

// TestTopoHelpNamesEveryPreset: -topo's help lists every preset.
func TestTopoHelpNamesEveryPreset(t *testing.T) {
	fs := flag.NewFlagSet("aapcnode", flag.ContinueOnError)
	new(options).bind(fs)
	if u := fs.Lookup("topo").Usage; !strings.Contains(u, harness.PresetList()) {
		t.Errorf("-topo help %q does not list %s", u, harness.PresetList())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(opts(func(o *options) { o.local = false })); err == nil {
		t.Error("want error without a mode")
	}
	if err := run(opts(func(o *options) { o.preset = "zzz" })); err == nil {
		t.Error("want error for unknown preset")
	}
	if err := run(opts(func(o *options) { o.alg = "zzz" })); err == nil {
		t.Error("want error for unknown algorithm")
	}
	if err := run(opts(func(o *options) { o.msize = "bogus" })); err == nil {
		t.Error("want error for bad msize")
	}
	if err := run(opts(func(o *options) { o.faultsSpec = "frob 1 2" })); err == nil {
		t.Error("want error for bad fault plan")
	}
	err := run(opts(func(o *options) {
		o.local = false
		o.join = "127.0.0.1:1"
		o.rendezvous = 200 * time.Millisecond
	}))
	if err == nil {
		t.Error("want error joining dead coordinator")
	} else if !strings.Contains(err.Error(), "dial") && !strings.Contains(err.Error(), "connect") {
		t.Logf("join error (accepted): %v", err)
	}
}

// TestReportTransportStats exercises the -transport-stats report against a
// real 2-rank distributed world: the transport line and the zero-copy
// borrowed-vs-copied split. The two ranks share a host and still link
// through a socket, so no line splits bytes by link kind.
func TestReportTransportStats(t *testing.T) {
	const n = 2
	coord, err := tcp.StartCoordinator("127.0.0.1:0", n, tcp.WithRendezvousTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var bufs [n]bytes.Buffer
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, closeFn, err := tcp.JoinRetry(coord.Addr(), 30*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer closeFn()
			me := c.Rank()
			rr := mpi.Irecv(c, make([]byte, 2048), 1-me, 0)
			sr := mpi.Isend(c, make([]byte, 2048), 1-me, 0)
			if err := mpi.WaitAll([]mpi.Request{rr, sr}); err != nil {
				errs <- err
				return
			}
			if err := c.Barrier(); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			reportTransportStats(c, &bufs[me])
			mu.Unlock()
			errs <- nil
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Wait(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		out := bufs[r].String()
		for _, want := range []string{"transport: frames=", "zero-copy: borrowed=", "borrow_ratio="} {
			if !strings.Contains(out, want) {
				t.Errorf("rank %d report missing %q:\n%s", r, want, out)
			}
		}
		if strings.Contains(out, "links:") {
			t.Errorf("rank %d report has a links line:\n%s", r, out)
		}
	}

	// A comm without transport counters reports nothing.
	var quiet bytes.Buffer
	reportTransportStats(mem.NewWorld(1)[0], &quiet)
	if quiet.Len() != 0 {
		t.Errorf("mem comm produced a transport report: %q", quiet.String())
	}
}

// TestLocalWorldObserved runs the instrumented local world with a metrics
// endpoint and a JSONL trace, then loads the trace into the collector: one
// data flow per ordered rank pair, one control flow per sync message, one
// Gantt row per rank, and a phase table covering every data send.
func TestLocalWorldObserved(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	o := opts(func(o *options) {
		o.metrics = "127.0.0.1:0"
		o.tracePath = path
	})
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store := collect.NewStore()
	if err := store.AddJSONL(f); err != nil {
		t.Fatal(err)
	}
	g, err := harness.Preset(o.preset)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumMachines()
	meta, events := store.Meta(), store.Events()
	if meta.Ranks != n || meta.Transport != "tcp" {
		t.Errorf("trace meta %+v, want %d tcp ranks", meta, n)
	}
	st := collect.Flows(events)
	if st.DataFlows != n*(n-1) {
		t.Errorf("trace has %d data flows, want %d", st.DataFlows, n*(n-1))
	}
	syncs := 0
	for _, e := range events {
		if e.Kind == obsv.KindSyncWait {
			syncs++
		}
	}
	if st.ControlFlows == 0 || st.ControlFlows != syncs {
		t.Errorf("trace has %d control flows, want one per sync wait (%d)", st.ControlFlows, syncs)
	}
	if rows := strings.Count(collect.Gantt(events, meta.Ranks, 40), "rank"); rows != n {
		t.Errorf("Gantt has %d rows, want %d", rows, n)
	}
	sends := 0
	for _, p := range store.Analyze(g).Phases {
		sends += p.Sends
	}
	if sends != n*(n-1) {
		t.Errorf("phase table covers %d data sends, want %d", sends, n*(n-1))
	}
}

// TestLocalWorldPushesTrace: -push delivers the run's JSONL trace to a
// collector, which can then produce a causal report — the wiring a
// distributed run uses to report itself to aapcd/aapctrace.
func TestLocalWorldPushesTrace(t *testing.T) {
	store := collect.NewStore()
	store.SetCommonClock(true) // -local: every rank in this process
	srv := httptest.NewServer(collect.Handler(store, nil))
	defer srv.Close()

	o := opts(func(o *options) {
		o.tracePush = srv.URL + "/v1/trace/ingest"
		o.pprof = true // rides along: profile rates + debug server on :0
	})
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	g, err := harness.Preset(o.preset)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumMachines()
	if store.NumSpans() == 0 {
		t.Fatal("collector received no spans")
	}
	rep := store.Analyze(g)
	if rep.Ranks != n {
		t.Errorf("report ranks = %d, want %d", rep.Ranks, n)
	}
	if rep.Linked == 0 {
		t.Error("pushed trace has no causal links")
	}
	if len(rep.Critical) == 0 {
		t.Error("pushed trace yields no critical path")
	}

	// A bad collector URL must surface as a run error.
	srv.Close()
	if err := run(opts(func(o *options) { o.tracePush = srv.URL + "/v1/trace/ingest" })); err == nil {
		t.Error("want error pushing to dead collector")
	}
}
