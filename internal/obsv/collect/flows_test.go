package collect_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/obsv/collect"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// simEvents records one all-to-all in the simulator and returns its merged
// events.
func simEvents(t *testing.T, g *topology.Graph, fn alltoall.Func, msize int) []obsv.Event {
	t.Helper()
	if !obsv.Enabled {
		t.Skip("instrumentation compiled out (obsv_off): a traced run records nothing")
	}
	_, recs, err := harness.MeasureObserved(simnet.Config{Graph: g}, fn, msize)
	if err != nil {
		t.Fatal(err)
	}
	return obsv.MergedEvents(recs...)
}

func compile(t *testing.T, g *topology.Graph, mode alltoall.SyncMode) *alltoall.Scheduled {
	t.Helper()
	sc, err := harness.CompileRoutine(g, mode)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestFlowsIdleRank: a rank that never communicates still gets a Gantt row
// once the world size is given; a too-small world size never drops rows.
func TestFlowsIdleRank(t *testing.T) {
	// Only ranks 0 and 1 exchange; rank 2 is idle.
	events := []obsv.Event{
		{Kind: obsv.KindSend, Rank: 0, Peer: 1, Bytes: 1000, Start: 0, End: 1},
		{Kind: obsv.KindSend, Rank: 1, Peer: 0, Bytes: 1000, Start: 0, End: 1},
		{Kind: obsv.KindRecv, Rank: 1, Peer: 0, Bytes: 1000, Start: 0, End: 1},
	}
	if got := strings.Count(collect.Gantt(events, 0, 20), "rank"); got != 2 {
		t.Errorf("inferred Gantt has %d rows, want 2", got)
	}
	if got := strings.Count(collect.Gantt(events, 3, 20), "rank"); got != 3 {
		t.Errorf("explicit Gantt has %d rows, want 3 (idle rank dropped)", got)
	}
	if got := strings.Count(collect.Gantt(events, 1, 20), "rank"); got != 2 {
		t.Errorf("undersized world: %d rows, want the inferred 2", got)
	}
	if st := collect.Flows(events); st.DataFlows != 2 || st.MaxConcurrentData != 2 {
		t.Errorf("stats %+v, want 2 concurrent data flows (receives are not flows)", st)
	}
}

func TestGanttEmpty(t *testing.T) {
	if !strings.Contains(collect.Gantt(nil, 0, 40), "empty") {
		t.Error("empty gantt should say so")
	}
	if st := collect.Flows(nil); st != (collect.FlowStats{}) {
		t.Errorf("empty stats: %+v", st)
	}
}

// TestFlowsScheduledRun: the generated routine on the Fig. 1 cluster moves
// 30 data messages and exactly its planned sync messages, and never runs
// more than a handful of data flows at once.
func TestFlowsScheduledRun(t *testing.T) {
	g := harness.Fig1()
	sc := compile(t, g, alltoall.PairwiseSync)
	const msize = 32 << 10
	st := collect.Flows(simEvents(t, g, sc.Fn(), msize))
	if st.DataFlows != 30 {
		t.Errorf("DataFlows = %d, want 30", st.DataFlows)
	}
	if st.ControlFlows != sc.SyncCount() {
		t.Errorf("ControlFlows = %d, want the plan's %d sync messages", st.ControlFlows, sc.SyncCount())
	}
	if st.DataBytes != 30*msize {
		t.Errorf("DataBytes = %d", st.DataBytes)
	}
	if st.MaxConcurrentData > 6 {
		t.Errorf("MaxConcurrentData = %d for the scheduled run", st.MaxConcurrentData)
	}
}

func TestScheduledVsSimpleConcurrency(t *testing.T) {
	g := harness.Fig1()
	sc := compile(t, g, alltoall.PairwiseSync)
	ours := collect.Flows(simEvents(t, g, sc.Fn(), 16<<10))
	lam := collect.Flows(simEvents(t, g, alltoall.Simple, 16<<10))
	if lam.MaxConcurrentData <= ours.MaxConcurrentData {
		t.Errorf("LAM concurrency %d should exceed scheduled %d",
			lam.MaxConcurrentData, ours.MaxConcurrentData)
	}
	if lam.DataFlows != 30 || ours.DataFlows != 30 {
		t.Errorf("both should move 30 data flows: %d vs %d", lam.DataFlows, ours.DataFlows)
	}
	if lam.ControlFlows != 0 {
		t.Errorf("LAM sends no sync messages, got %d control flows", lam.ControlFlows)
	}
}

func TestGanttRendering(t *testing.T) {
	g := harness.Fig1()
	sc := compile(t, g, alltoall.PairwiseSync)
	gantt := collect.Gantt(simEvents(t, g, sc.Fn(), 32<<10), g.NumMachines(), 72)
	lines := strings.Split(strings.TrimRight(gantt, "\n"), "\n")
	if len(lines) != 1+6 {
		t.Fatalf("gantt has %d lines, want header+6:\n%s", len(lines), gantt)
	}
	for _, rank := range []string{"rank  0", "rank  5"} {
		if !strings.Contains(gantt, rank) {
			t.Errorf("gantt missing %q", rank)
		}
	}
	// Every rank sends at some point, so no row is all idle.
	for _, line := range lines[1:] {
		if !strings.ContainsAny(line, "0123456789") {
			t.Errorf("idle gantt row: %s", line)
		}
	}
}

// TestFlowsJSONLRoundTrip records an instrumented scheduled all-to-all on
// the mem transport, writes the JSONL trace, loads it back through the
// collector, and demands identical statistics and Gantt rows: record ->
// write -> load must lose nothing the drawing depends on.
func TestFlowsJSONLRoundTrip(t *testing.T) {
	if !obsv.Enabled {
		t.Skip("instrumentation compiled out (obsv_off): a traced run records nothing")
	}
	const msize = 1024
	g := harness.Fig1()
	sc := compile(t, g, alltoall.PairwiseSync)
	n := sc.NumRanks()
	var mu sync.Mutex
	recs := make([]*obsv.Recorder, n)
	err := mem.Run(n, func(c mpi.Comm) error {
		rec := obsv.NewRecorder(c.Rank())
		mu.Lock()
		recs[c.Rank()] = rec
		mu.Unlock()
		return sc.Fn()(obsv.Instrument(c, rec), alltoall.NewShared(msize), msize)
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := obsv.Meta{Version: 1, Ranks: n, Transport: "mem", Name: "ours", Msize: msize}
	direct := obsv.MergedEvents(recs...)
	var buf bytes.Buffer
	if err := obsv.WriteRecorders(&buf, meta, recs...); err != nil {
		t.Fatal(err)
	}
	store := collect.NewStore()
	if err := store.AddJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := store.Meta(); got != meta {
		t.Errorf("meta round trip: got %+v, want %+v", got, meta)
	}
	loaded := store.Events()
	ds, ls := collect.Flows(direct), collect.Flows(loaded)
	if ds != ls {
		t.Errorf("flow stats diverge after round trip:\ndirect %+v\nloaded %+v", ds, ls)
	}
	if dg, lg := collect.Gantt(direct, n, 60), collect.Gantt(loaded, n, 60); dg != lg {
		t.Errorf("Gantt diverges after round trip:\n%s\nvs\n%s", dg, lg)
	}
	if ds.DataFlows != n*(n-1) || ds.ControlFlows != sc.SyncCount() {
		t.Errorf("round trip has %d data / %d control flows, want %d / %d",
			ds.DataFlows, ds.ControlFlows, n*(n-1), sc.SyncCount())
	}
}

// TestTwoViewsOfOneRunAgree: one simulated run of the generated routine on
// topology (b), drawn from its events directly and from their JSONL round
// trip, reports the same run both ways — every data message, one control
// flow per sync message (a sync's syncwait marker is not a second flow),
// the same bytes and the same peak concurrency.
func TestTwoViewsOfOneRunAgree(t *testing.T) {
	if !obsv.Enabled {
		t.Skip("instrumentation compiled out (obsv_off): a traced run records nothing")
	}
	const msize = 64 << 10
	g := harness.TopologyB()
	sc := compile(t, g, alltoall.PairwiseSync)
	_, recs, err := harness.MeasureObserved(simnet.Config{Graph: g}, sc.Fn(), msize)
	if err != nil {
		t.Fatal(err)
	}
	events := obsv.MergedEvents(recs...)

	var buf bytes.Buffer
	if err := obsv.WriteRecorders(&buf, obsv.Meta{Transport: "simnet", Name: "ours", Msize: msize}, recs...); err != nil {
		t.Fatal(err)
	}
	meta, loaded, err := obsv.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumMachines()
	direct, round := collect.Flows(events), collect.Flows(loaded)
	for name, st := range map[string]collect.FlowStats{"direct": direct, "round trip": round} {
		if st.DataFlows != 992 || st.ControlFlows != 1270 || st.ControlFlows != sc.SyncCount() ||
			st.DataBytes != 992*msize || st.MaxConcurrentData != 12 {
			t.Errorf("%s view: %+v, want 992 data flows, 1270 = %d sync messages, %d bytes, peak 12",
				name, st, sc.SyncCount(), 992*msize)
		}
	}
	if direct != round {
		t.Errorf("views disagree:\ndirect     %+v\nround trip %+v", direct, round)
	}
	if dg, rg := collect.Gantt(events, n, 96), collect.Gantt(loaded, meta.Ranks, 96); dg != rg {
		t.Errorf("Gantt views disagree:\n%s\nvs\n%s", dg, rg)
	}
}
