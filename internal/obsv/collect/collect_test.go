package collect

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// chainSpans builds the minimal two-rank story: rank 0 computes slowly,
// sends late; rank 1 posted its receive immediately and sat waiting. The
// critical path must cross the message edge into rank 1.
func chainSpans() []Span {
	mk := func(kind obsv.Kind, rank, peer int, seq uint64, start, end float64, link uint64, deliver float64) Span {
		return Span{
			Event:  obsv.Event{Kind: kind, Rank: rank, Peer: peer, Seq: seq, LinkSeq: link, Bytes: 4096},
			GStart: start, GEnd: end, GDeliver: deliver,
		}
	}
	return []Span{
		mk(obsv.KindPhase, 0, -1, 1, 0, 0, 0, 0),
		mk(obsv.KindSend, 0, 1, 2, 0.001, 0.050, 0, 0), // 49ms "slow NIC" send
		mk(obsv.KindPhase, 1, -1, 1, 0, 0, 0, 0),
		mk(obsv.KindRecv, 1, 0, 2, 0.0005, 0.051, 2, 0.050),
		mk(obsv.KindSend, 1, 0, 3, 0.051, 0.052, 0, 0),
	}
}

func TestCriticalPathCrossesMessageEdge(t *testing.T) {
	path := CriticalPath(chainSpans())
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	// Forward order: must start on rank 0 and cross to rank 1 via the link.
	if path[0].Rank != 0 {
		t.Errorf("path starts on rank %d, want 0", path[0].Rank)
	}
	sawVia := false
	for _, st := range path {
		if st.ViaLink {
			if st.Rank != 1 || st.Kind != obsv.KindRecv {
				t.Errorf("unexpected via-link step: %+v", st)
			}
			sawVia = true
		}
	}
	if !sawVia {
		t.Error("path never crossed the message edge")
	}
	last := path[len(path)-1]
	if last.Rank != 1 {
		t.Errorf("path ends on rank %d, want 1", last.Rank)
	}
}

func TestCriticalPathPrefersLocalWhenSenderWasReady(t *testing.T) {
	// The sender was ready at t=0.001; the receiver posted its recv only at
	// t=0.049 after 48ms of its own work, and the rendezvous completed
	// immediately. Blaming the wire would point at a healthy link.
	spans := []Span{
		{Event: obsv.Event{Kind: obsv.KindSend, Rank: 0, Peer: 1, Seq: 1, Bytes: 4096},
			GStart: 0.001, GEnd: 0.0495, GDeliver: 0.0493},
		{Event: obsv.Event{Kind: obsv.KindPhase, Rank: 1, Peer: -1, Seq: 1},
			GStart: 0, GEnd: 0.049},
		{Event: obsv.Event{Kind: obsv.KindRecv, Rank: 1, Peer: 0, Seq: 2, LinkSeq: 1, Bytes: 4096},
			GStart: 0.049, GEnd: 0.0494, GDeliver: 0.0493},
		{Event: obsv.Event{Kind: obsv.KindSend, Rank: 1, Peer: 0, Seq: 3, Bytes: 4096},
			GStart: 0.0494, GEnd: 0.0505},
	}
	path := CriticalPath(spans)
	for _, st := range path {
		if st.ViaLink {
			t.Fatalf("path crossed the wire although the receiver was the constraint:\n%+v", path)
		}
	}
	if path[0].Rank != 1 {
		t.Errorf("path should stay on the late rank 1, got %+v", path)
	}
}

func TestCriticalPathTerminatesOnDegenerateInput(t *testing.T) {
	// Two spans claiming each other's identity ranges must not loop.
	spans := []Span{
		{Event: obsv.Event{Kind: obsv.KindRecv, Rank: 0, Peer: 1, Seq: 1, LinkSeq: 1, Bytes: 4096}, GStart: 0, GEnd: 2, GDeliver: 2},
		{Event: obsv.Event{Kind: obsv.KindRecv, Rank: 1, Peer: 0, Seq: 1, LinkSeq: 1, Bytes: 4096}, GStart: 0, GEnd: 2, GDeliver: 2},
	}
	path := CriticalPath(spans)
	if len(path) > len(spans) {
		t.Fatalf("path longer than span count: %d", len(path))
	}
}

// starGraph is n machines n0..n<k-1> on one switch s0.
func starGraph(t testing.TB, ranks int) *topology.Graph {
	t.Helper()
	g := topology.New()
	s := g.MustAddSwitch("s0")
	for i := 0; i < ranks; i++ {
		n := g.MustAddMachine(fmt.Sprintf("n%d", i))
		g.MustConnect(n, s)
	}
	return g.MustValidate()
}

func TestPhaseStatsAttribution(t *testing.T) {
	g := starGraph(t, 2)
	spans := []Span{
		// Phase 0: rank 0 enters at 0, rank 1 at 0.010 — skew 10ms.
		{Event: obsv.Event{Kind: obsv.KindPhase, Rank: 0, Peer: -1, Seq: 1, Phase: 0}, GStart: 0, GEnd: 0},
		{Event: obsv.Event{Kind: obsv.KindPhase, Rank: 1, Peer: -1, Seq: 1, Phase: 0}, GStart: 0.010, GEnd: 0.010},
		// Rank 0's data send in phase 0, delivered 20ms later.
		{Event: obsv.Event{Kind: obsv.KindSend, Rank: 0, Peer: 1, Seq: 2, Phase: 0, Bytes: 4096}, GStart: 0.001, GEnd: 0.021, GDeliver: 0.021},
		{Event: obsv.Event{Kind: obsv.KindRecv, Rank: 1, Peer: 0, Seq: 2, Phase: 0, LinkSeq: 2, Bytes: 4096}, GStart: 0.011, GEnd: 0.022, GDeliver: 0.021},
		// Rank 1 stalls 5ms in sync during phase 0.
		{Event: obsv.Event{Kind: obsv.KindSyncWait, Rank: 1, Peer: 0, Seq: 3, Phase: 0}, GStart: 0.022, GEnd: 0.027},
		// Phase 1 entries end phase 0's residence.
		{Event: obsv.Event{Kind: obsv.KindPhase, Rank: 0, Peer: -1, Seq: 3, Phase: 1}, GStart: 0.030, GEnd: 0.030},
		{Event: obsv.Event{Kind: obsv.KindPhase, Rank: 1, Peer: -1, Seq: 4, Phase: 1}, GStart: 0.028, GEnd: 0.028},
	}
	stats := PhaseStats(spans, g)
	if len(stats) != 2 {
		t.Fatalf("got %d phases, want 2", len(stats))
	}
	p0 := stats[0]
	if p0.Phase != 0 {
		t.Fatalf("first phase = %d", p0.Phase)
	}
	if p0.FirstRank != 0 || p0.LastRank != 1 {
		t.Errorf("enter order: first %d last %d, want 0/1", p0.FirstRank, p0.LastRank)
	}
	if got, want := p0.EnterSkew, 0.010; !near(got, want) {
		t.Errorf("EnterSkew = %v, want %v", got, want)
	}
	// Residence: rank 0 spans 0..0.030, rank 1 spans 0.010..0.028.
	if p0.SlowestRank != 0 || !near(p0.Residence, 0.030) {
		t.Errorf("slowest = rank %d residence %v, want rank 0 / 0.030", p0.SlowestRank, p0.Residence)
	}
	if !near(p0.SyncWait, 0.005) {
		t.Errorf("SyncWait = %v, want 0.005", p0.SyncWait)
	}
	// Transmit: delivery 0.021 minus send start 0.001.
	if !near(p0.Transmit, 0.020) {
		t.Errorf("Transmit = %v, want 0.020", p0.Transmit)
	}
	if p0.SlowestLink == "" {
		t.Error("no slowest link named despite a topology")
	}
}

// TestPhaseStatsCountsDataSends is the data-movement half of the phase
// table: per phase, the ranks that entered it and the data sends attributed
// to it, sync-sized sends and unattributed events excluded.
func TestPhaseStatsCountsDataSends(t *testing.T) {
	s := NewStore()
	s.SetCommonClock(true)
	s.AddEvents([]obsv.Event{
		{Kind: obsv.KindPhase, Rank: 0, Peer: -1, Seq: 1, Phase: 0, Start: 1.0, End: 1.0},
		{Kind: obsv.KindPhase, Rank: 1, Peer: -1, Seq: 1, Phase: 0, Start: 1.5, End: 1.5},
		{Kind: obsv.KindSend, Rank: 0, Peer: 1, Seq: 2, Phase: 0, Bytes: 100, Start: 1.0, End: 2.0},
		{Kind: obsv.KindSyncWait, Rank: 1, Peer: 0, Seq: 2, Phase: 0, Start: 1.5, End: 1.75},
		{Kind: obsv.KindPhase, Rank: 0, Peer: -1, Seq: 3, Phase: 1, Start: 2.0, End: 2.0},
		{Kind: obsv.KindSend, Rank: 0, Peer: 1, Seq: 4, Phase: 1, Bytes: 500, Start: 2.0, End: 2.5},
		{Kind: obsv.KindSend, Rank: 0, Peer: 1, Seq: 5, Phase: 1, Bytes: 1, Start: 2.0, End: 2.1}, // sync message: excluded
		{Kind: obsv.KindBarrier, Rank: 0, Peer: -1, Seq: 6, Phase: -1, Start: 0, End: 0.5},        // unattributed: ignored
	})
	stats := s.Analyze(nil).Phases
	if len(stats) != 2 {
		t.Fatalf("got %d phases, want 2", len(stats))
	}
	p0, p1 := stats[0], stats[1]
	if p0.Phase != 0 || p0.Ranks != 2 || p0.Sends != 1 || p0.Bytes != 100 {
		t.Errorf("phase 0: %+v", p0)
	}
	if !near(p0.EnterSkew, 0.5) || !near(p0.SyncWait, 0.25) {
		t.Errorf("phase 0 enter skew %g sync wait %g, want 0.5/0.25", p0.EnterSkew, p0.SyncWait)
	}
	if p1.Phase != 1 || p1.Ranks != 1 || p1.Sends != 1 || p1.Bytes != 500 {
		t.Errorf("phase 1: %+v", p1)
	}
}

func near(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

func TestDivergenceFlagsOnlySlowLink(t *testing.T) {
	// Three ranks on one switch; rank 0's uplink (n0>s0) is slow, so both of
	// its outbound messages take 0.1s where the simulator predicts 0.01s.
	// Every other directed pair is healthy. Only n0>s0 is crossed exclusively
	// by slow traffic — s0>n1 and s0>n2 each also carry a healthy message, so
	// they fall below the 75% link fraction and must stay unflagged. The
	// prediction is the same exchange recorded by the simulator: every
	// message matched at 0.001 (the receive posted late) and delivered at
	// 0.011.
	g := starGraph(t, 3)
	var spans []Span
	var predicted []obsv.Event
	seq := map[int]uint64{}
	msg := func(src, dst int, dur float64) {
		seq[src]++
		s := seq[src]
		spans = append(spans,
			Span{Event: obsv.Event{Kind: obsv.KindSend, Rank: src, Peer: dst, Seq: s, Bytes: 4096},
				GStart: 0, GEnd: dur, GDeliver: dur},
			Span{Event: obsv.Event{Kind: obsv.KindRecv, Rank: dst, Peer: src, Seq: 100 + s, LinkSeq: s, Bytes: 4096},
				GStart: 0, GEnd: dur, GDeliver: dur},
		)
		predicted = append(predicted,
			obsv.Event{Kind: obsv.KindSend, Rank: src, Peer: dst, Seq: s, Bytes: 4096,
				Start: 0, End: 0.011, Deliver: 0.011},
			obsv.Event{Kind: obsv.KindRecv, Rank: dst, Peer: src, Seq: 100 + s, LinkSeq: s, Bytes: 4096,
				Start: 0.001, End: 0.011, Deliver: 0.011},
		)
	}
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			dur := 0.01
			if src == 0 {
				dur = 0.1 // slow uplink
			}
			msg(src, dst, dur)
		}
	}
	rep := Divergence(spans, predicted, g, DivergenceOptions{Factor: 3})
	if rep.Matched != 6 {
		t.Fatalf("matched %d, want 6", rep.Matched)
	}
	for _, m := range rep.Messages {
		if !near(m.Predicted, 0.01) {
			t.Errorf("message %d->%d predicted %v, want rendezvous-to-delivery 0.01", m.Src, m.Dst, m.Predicted)
		}
	}
	flagged := rep.FlaggedLinks()
	if len(flagged) != 1 || flagged[0] != "n0>s0" {
		t.Errorf("flagged = %v, want [n0>s0]", flagged)
	}
	for _, m := range rep.Messages {
		if m.Src == 0 && !m.Flagged {
			t.Errorf("slow message 0->%d unflagged: %+v", m.Dst, m)
		}
		if m.Src != 0 && m.Flagged {
			t.Errorf("healthy message %d->%d flagged: %+v", m.Src, m.Dst, m)
		}
	}
}

func TestDivergenceIgnoresControlTraffic(t *testing.T) {
	spans := []Span{
		{Event: obsv.Event{Kind: obsv.KindSend, Rank: 0, Peer: 1, Seq: 1, Bytes: 8}, GStart: 0, GEnd: 0.5, GDeliver: 0.5},
		{Event: obsv.Event{Kind: obsv.KindRecv, Rank: 1, Peer: 0, Seq: 1, LinkSeq: 1, Bytes: 8}, GStart: 0, GEnd: 0.5, GDeliver: 0.5},
	}
	predicted := []obsv.Event{
		{Kind: obsv.KindSend, Rank: 0, Peer: 1, Seq: 1, Bytes: 8, End: 0.001, Deliver: 0.001},
		{Kind: obsv.KindRecv, Rank: 1, Peer: 0, Seq: 1, LinkSeq: 1, Bytes: 8, End: 0.001, Deliver: 0.001},
	}
	rep := Divergence(spans, predicted, nil, DivergenceOptions{})
	if rep.Matched != 0 || len(rep.Messages) != 0 {
		t.Errorf("control-size traffic entered divergence: %+v", rep)
	}
}

func TestStoreJSONLRoundTrip(t *testing.T) {
	meta := obsv.Meta{Version: 1, Ranks: 2, Transport: "mem", Name: "rt", Msize: 64}
	evs := []obsv.Event{
		{Kind: obsv.KindSend, Rank: 0, Peer: 1, Seq: 1, Start: 0.1, End: 0.2, Bytes: 64},
		{Kind: obsv.KindRecv, Rank: 1, Peer: 0, Seq: 1, LinkSeq: 1, Start: 0.1, End: 0.3, Deliver: 0.2, Bytes: 64},
	}
	var buf bytes.Buffer
	if err := obsv.WriteJSONL(&buf, meta, evs); err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	if err := s.AddJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if s.NumSpans() != 2 {
		t.Fatalf("NumSpans = %d, want 2", s.NumSpans())
	}
	if got := s.Meta(); got.Name != "rt" || got.Ranks != 2 {
		t.Errorf("meta not adopted: %+v", got)
	}
	rep := s.Analyze(nil)
	if rep.Ranks != 2 || rep.Linked != 1 {
		t.Errorf("report: ranks %d linked %d, want 2/1", rep.Ranks, rep.Linked)
	}
	s.Reset()
	if s.NumSpans() != 0 {
		t.Error("Reset left spans behind")
	}
	if got := s.Counters().Get("aapc_trace_spans_total"); got != 2 {
		t.Errorf("aapc_trace_spans_total = %d, want 2 (counters survive Reset)", got)
	}
}

func TestHandlerIngestReportReset(t *testing.T) {
	s := NewStore()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()

	meta := obsv.Meta{Version: 1, Ranks: 2, Transport: "mem", Name: "h", Msize: 64}
	evs := []obsv.Event{
		{Kind: obsv.KindSend, Rank: 0, Peer: 1, Seq: 1, Start: 0.1, End: 0.2, Bytes: 64},
		{Kind: obsv.KindRecv, Rank: 1, Peer: 0, Seq: 1, LinkSeq: 1, Start: 0.1, End: 0.3, Deliver: 0.2, Bytes: 64},
	}
	var buf bytes.Buffer
	if err := obsv.WriteJSONL(&buf, meta, evs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/trace/ingest", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/trace/report?format=text")
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	_, _ = txt.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(txt.String(), "2 spans (1 causally linked)") {
		t.Errorf("text report missing span summary:\n%s", txt.String())
	}

	resp, err = http.Get(srv.URL + "/v1/trace/events")
	if err != nil {
		t.Fatal(err)
	}
	gotMeta, gotEvs, err := obsv.ReadJSONL(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Name != "h" || len(gotEvs) != 2 {
		t.Errorf("events round trip: meta %+v, %d events", gotMeta, len(gotEvs))
	}

	resp, err = http.Post(srv.URL+"/v1/trace/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if s.NumSpans() != 0 {
		t.Error("reset endpoint did not clear the store")
	}

	// GET on ingest and POST-only reset must be refused.
	resp, err = http.Get(srv.URL + "/v1/trace/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET ingest status %d, want 405", resp.StatusCode)
	}
}
