// Package collect is the one analysis of a recorded run: it merges per-rank
// span logs (obsv events, in memory or as JSONL) into one causally-linked
// DAG on a common timebase and answers the questions the paper's schedules
// pose — which chain of sends and waits bounds the makespan (critical
// path), which rank or link drags each phase (phase attribution), where a
// measured run diverges from the simulator's contention-free prediction —
// and draws the run as Gantt rows and flow statistics.
//
// A simulated run is recorded like a real one (obsv.Instrument over a
// simnet communicator), so every function here reads one record whatever
// produced it, and the divergence report compares a measured trace with a
// predicted one event for event; the package does not import the
// simulator. It runs embedded (harness, tests, aapcbench), behind the
// schedule daemon's HTTP mux (POST /v1/trace/ingest), or standalone in
// cmd/aapctrace.
package collect

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// MaxRanks is the largest world a trace may describe. Ingest rejects a
// trace that claims more ranks, or names a rank or peer outside its world:
// the analysis sizes per-rank tables (and the clock-offset estimator a
// rank-by-rank one) by the highest rank it holds, so one forged rank number
// must never reach them. The repository's largest runs use 512 ranks.
const MaxRanks = 1024

// Store accumulates per-rank event logs until a report is asked for. It is
// safe for concurrent ingestion.
type Store struct {
	mu     sync.Mutex
	byRank map[int][]obsv.Event
	meta   obsv.Meta
	common bool
	cnts   obsv.Counters
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byRank: make(map[int][]obsv.Event)}
}

// Counters exposes the store's ingestion counters so a Registry can merge
// them onto /metrics (aapc_trace_ingests_total, aapc_trace_spans_total,
// aapc_trace_reports_total).
func (s *Store) Counters() *obsv.Counters { return &s.cnts }

// SetCommonClock records the producer's assertion that every rank's clock
// shares one epoch (true for the in-process transports: mem, tcp.Run,
// simnet), so analysis skips pairwise offset estimation. The estimator is
// for multi-host traces where clocks genuinely differ; running it on a
// shared clock can only add error, and under injected faults it is actively
// misled — a uniform delay on one rank's sends is indistinguishable, from
// minimum one-way delays alone, from that rank's clock running behind.
func (s *Store) SetCommonClock(v bool) {
	s.mu.Lock()
	s.common = v
	s.mu.Unlock()
}

// AddEvents ingests events, grouping them by their recorded rank.
func (s *Store) AddEvents(evs []obsv.Event) {
	if len(evs) == 0 {
		return
	}
	s.mu.Lock()
	for _, ev := range evs {
		s.byRank[ev.Rank] = append(s.byRank[ev.Rank], ev)
	}
	s.mu.Unlock()
	s.cnts.Inc("aapc_trace_ingests_total")
	s.cnts.Add("aapc_trace_spans_total", uint64(len(evs)))
}

// AddJSONL ingests one obsv JSONL trace (rank logs may be streamed in any
// interleaving; events carry their rank). The first meta header seen with a
// nonzero rank count wins. A trace whose ranks fall outside its world (the
// header's rank count, else MaxRanks) is rejected whole.
func (s *Store) AddJSONL(r io.Reader) error {
	meta, evs, err := obsv.ReadJSONL(r)
	if err != nil {
		return err
	}
	if err := checkRanks(meta, evs); err != nil {
		return err
	}
	s.mu.Lock()
	if s.meta.Ranks == 0 && meta.Ranks > 0 {
		s.meta = meta
	}
	s.mu.Unlock()
	s.AddEvents(evs)
	return nil
}

// checkRanks validates a trace's world: a header rank count of at most
// MaxRanks, and every event's rank in [0, R) and peer in [-1, R), where R
// is the header's count or, without one, MaxRanks.
func checkRanks(meta obsv.Meta, evs []obsv.Event) error {
	if meta.Ranks > MaxRanks {
		return fmt.Errorf("collect: trace header claims %d ranks (limit %d)", meta.Ranks, MaxRanks)
	}
	n := meta.Ranks
	if n <= 0 {
		n = MaxRanks
	}
	for i := range evs {
		if ev := &evs[i]; ev.Rank < 0 || ev.Rank >= n || ev.Peer < -1 || ev.Peer >= n {
			return fmt.Errorf("collect: event %d (%s rank %d peer %d) outside a %d-rank world",
				i+1, ev.Kind, ev.Rank, ev.Peer, n)
		}
	}
	return nil
}

// Meta returns the trace header the store adopted (zero value when none).
func (s *Store) Meta() obsv.Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta
}

// Reset drops every ingested event, keeping the counters.
func (s *Store) Reset() {
	s.mu.Lock()
	s.byRank = make(map[int][]obsv.Event)
	s.meta = obsv.Meta{}
	s.mu.Unlock()
}

// NumSpans returns the total number of ingested events.
func (s *Store) NumSpans() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, evs := range s.byRank {
		n += len(evs)
	}
	return n
}

// ByRank returns the ingested events as a dense rank-indexed slice, each
// rank's log sorted by Seq (program order). The world size is the larger of
// the meta header's rank count and the highest rank seen.
func (s *Store) ByRank() [][]obsv.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.meta.Ranks
	for r := range s.byRank {
		if r+1 > n {
			n = r + 1
		}
	}
	out := make([][]obsv.Event, n)
	for r, evs := range s.byRank {
		if r < 0 {
			continue
		}
		cp := append([]obsv.Event(nil), evs...)
		sort.SliceStable(cp, func(i, j int) bool { return cp[i].Seq < cp[j].Seq })
		out[r] = cp
	}
	return out
}

// Events returns every ingested event, rank-major and in program order
// within a rank (the order of ByRank).
func (s *Store) Events() []obsv.Event {
	var evs []obsv.Event
	for _, r := range s.ByRank() {
		evs = append(evs, r...)
	}
	return evs
}

// Span is one event mapped onto the common (rank-0) timebase.
type Span struct {
	obsv.Event
	// GStart/GEnd are Start/End plus the rank's estimated clock offset.
	GStart float64 `json:"gstart"`
	GEnd   float64 `json:"gend"`
	// GDeliver is the adjusted transport delivery time; 0 when unknown.
	GDeliver float64 `json:"gdeliver,omitempty"`
}

// effEnd is the moment the span's effect actually happened: the delivery
// time for a linked receive (the payload was there even if the rank drained
// the wait much later), the transport completion for a traced send (drain
// order must not inflate a send's apparent duration), End otherwise.
func (s *Span) effEnd() float64 {
	if s.GDeliver > 0 && (s.Kind == obsv.KindSend || (s.Kind == obsv.KindRecv && s.LinkSeq != 0)) {
		return s.GDeliver
	}
	return s.GEnd
}

// Merge maps the per-rank logs onto the common timebase. The result is
// ordered rank-major, Seq-minor — the canonical span order every analysis
// in this package indexes into.
func Merge(byRank [][]obsv.Event, offsets []float64) []Span {
	var out []Span
	for r, evs := range byRank {
		off := 0.0
		if r < len(offsets) {
			off = offsets[r]
		}
		for _, ev := range evs {
			sp := Span{Event: ev, GStart: ev.Start + off, GEnd: ev.End + off}
			if ev.Deliver > 0 {
				sp.GDeliver = ev.Deliver + off
			}
			out = append(out, sp)
		}
	}
	return out
}

// Report is the full analysis of one merged trace.
type Report struct {
	Meta    obsv.Meta `json:"meta"`
	Ranks   int       `json:"ranks"`
	Spans   int       `json:"spans"`
	Linked  int       `json:"linked"`
	Offsets []float64 `json:"offsets"`
	// Makespan is the span of the merged run on the common timebase.
	Makespan float64 `json:"makespan"`
	// Critical is the chain of spans bounding the makespan, in time order.
	Critical []CritStep `json:"critical"`
	// Phases holds the per-phase skew/straggler attribution.
	Phases []PhaseStat `json:"phases"`
	// SlowestRank lost the most time across phases (-1 when unknowable).
	SlowestRank int `json:"slowest_rank"`
	// Divergence compares the run against a predicted run of the same
	// schedule; nil when no prediction was supplied.
	Divergence *DivergenceReport `json:"divergence,omitempty"`
}

// Analyze builds the full report for the store's current contents. g, when
// non-nil, enables per-phase link attribution (paths between ranks).
func (s *Store) Analyze(g *topology.Graph) *Report {
	rep, _ := s.analyze(g)
	return rep
}

// AnalyzeWithPrediction is Analyze plus a sim-vs-real divergence section:
// predicted is the recorded event stream of the same schedule priced in
// the simulator (harness.MeasureObserved).
func (s *Store) AnalyzeWithPrediction(g *topology.Graph, predicted []obsv.Event, opt DivergenceOptions) *Report {
	rep, spans := s.analyze(g)
	rep.Divergence = Divergence(spans, predicted, g, opt)
	return rep
}

func (s *Store) analyze(g *topology.Graph) (*Report, []Span) {
	s.cnts.Inc("aapc_trace_reports_total")
	byRank := s.ByRank()
	s.mu.Lock()
	common := s.common
	s.mu.Unlock()
	offsets := make([]float64, len(byRank))
	if !common {
		offsets = EstimateOffsets(byRank)
	}
	spans := Merge(byRank, offsets)
	rep := &Report{
		Meta:    s.Meta(),
		Ranks:   len(byRank),
		Spans:   len(spans),
		Offsets: offsets,
	}
	for i := range spans {
		if spans[i].Kind == obsv.KindRecv && spans[i].LinkSeq != 0 {
			rep.Linked++
		}
	}
	rep.Makespan = makespan(spans)
	rep.Critical = CriticalPath(spans)
	rep.Phases = PhaseStats(spans, g)
	rep.SlowestRank = slowestRank(rep.Critical)
	return rep, spans
}

// makespan is the extent of the spans on the common timebase: earliest
// start to latest end (0 for no spans).
func makespan(spans []Span) float64 {
	if len(spans) == 0 {
		return 0
	}
	first, last := spans[0].GStart, 0.0
	for i := range spans {
		first = min(first, spans[i].GStart)
		last = max(last, spans[i].GEnd)
	}
	return last - first
}

// slowestRank attributes the run's straggler from the critical path: each
// step's exclusive contribution — how far it pushed the path past its
// predecessor's effective end — is charged to its rank, and the rank with
// the largest total wins (ties to the lower rank; -1 on an empty path).
//
// Phase residence cannot answer this question: in an all-to-all every rank
// finishes together, so the waiters' residences inflate in lockstep with
// the straggler's — worst in the final phase, where the rank that raced
// ahead earliest shows the LONGEST stay while it sits blocked on the slow
// one. Exclusive path time has no such confound: a wait step's contribution
// is only the sliver past what it waited on, while the slow rank's own
// sends carry their full duration.
func slowestRank(path []CritStep) int {
	contrib := make(map[int]float64)
	for i, st := range path {
		base := st.Start
		if i > 0 {
			base = path[i-1].End
		}
		if d := st.End - base; d > 0 {
			contrib[st.Rank] += d
		}
	}
	best, bestT := -1, 0.0
	for r, t := range contrib {
		if best == -1 || t > bestT || (t == bestT && r < best) {
			best, bestT = r, t
		}
	}
	return best
}

// WriteText renders the report as the human-readable straggler/critical
// path summary shown by `aapctrace` and GET /v1/trace/report?format=text.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "trace report: %d ranks, %d spans (%d causally linked), makespan %.3fms\n",
		r.Ranks, r.Spans, r.Linked, r.Makespan*1e3)
	if r.Meta.Name != "" {
		fmt.Fprintf(w, "run: %s transport=%s msize=%d\n", r.Meta.Name, r.Meta.Transport, r.Meta.Msize)
	}
	fmt.Fprintf(w, "clock offsets vs rank 0:")
	for _, off := range r.Offsets {
		fmt.Fprintf(w, " %+.6fs", off)
	}
	fmt.Fprintln(w)
	if r.SlowestRank >= 0 {
		fmt.Fprintf(w, "straggler: rank %d\n", r.SlowestRank)
	}
	if len(r.Phases) > 0 {
		fmt.Fprintln(w, "per-phase attribution:")
		for _, p := range r.Phases {
			fmt.Fprintf(w, "  phase %d: enter-skew %.3fms, slowest rank %d (residence %.3fms), sync-wait %.3fms, transmit %.3fms",
				p.Phase, p.EnterSkew*1e3, p.SlowestRank, p.Residence*1e3, p.SyncWait*1e3, p.Transmit*1e3)
			if p.SlowestLink != "" {
				fmt.Fprintf(w, ", slowest link %s (%.3fms mean)", p.SlowestLink, p.SlowestLinkLatency*1e3)
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Critical) > 0 {
		fmt.Fprintf(w, "critical path (%d steps):\n", len(r.Critical))
		for _, st := range r.Critical {
			via := ""
			if st.ViaLink {
				via = " <-msg"
			}
			fmt.Fprintf(w, "  %8.3fms..%8.3fms rank %d %s peer=%d phase=%d seq=%d%s\n",
				st.Start*1e3, st.End*1e3, st.Rank, st.Kind, st.Peer, st.Phase, st.Seq, via)
		}
	}
	if d := r.Divergence; d != nil {
		fmt.Fprintf(w, "sim-vs-real divergence: %d messages matched (%d unmatched), scale %.3g, factor %.1f\n",
			d.Matched, d.Unmatched, d.Scale, d.Factor)
		for _, l := range d.Links {
			mark := " "
			if l.Flagged {
				mark = "!"
			}
			fmt.Fprintf(w, "  %s link %-12s %d/%d messages diverging\n", mark, l.Link, l.Diverging, l.Crossing)
		}
	}
}

// Text renders WriteText to a string.
func (r *Report) Text() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// Handler serves the collector over HTTP:
//
//	POST /v1/trace/ingest  — body is an obsv JSONL trace; merged into the store
//	GET  /v1/trace/report  — JSON report (?format=text for the rendering)
//	GET  /v1/trace/events  — merged events as one JSONL trace
//	POST /v1/trace/reset   — drop ingested events
//
// The graph, when non-nil, enables link attribution in reports.
func Handler(s *Store, g *topology.Graph) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/trace/ingest", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if err := s.AddJSONL(req.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"spans\":%d}\n", s.NumSpans())
	})
	mux.HandleFunc("/v1/trace/report", func(w http.ResponseWriter, req *http.Request) {
		rep := s.Analyze(g)
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
	mux.HandleFunc("/v1/trace/events", func(w http.ResponseWriter, req *http.Request) {
		byRank := s.ByRank()
		var evs []obsv.Event
		for _, r := range byRank {
			evs = append(evs, r...)
		}
		meta := s.Meta()
		if meta.Ranks == 0 {
			meta.Ranks = len(byRank)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = obsv.WriteJSONL(w, meta, evs)
	})
	mux.HandleFunc("/v1/trace/reset", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		s.Reset()
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}
