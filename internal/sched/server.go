package sched

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"github.com/aapc-sched/aapcsched/internal/gen"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// NewServer mounts the daemon's v1 API on a fresh mux:
//
//	GET  /v1/schedule?alg=ours&msize=65536[&syncs=1][&hash=H]
//	GET  /v1/topology[?version=K]
//	POST /v1/updates        (streaming delta-DSL lines -> JSON ack lines)
//	GET  /metrics           (Prometheus text, when a registry is given)
//	GET  /healthz
//
// Errors are JSON {"error": "..."} with 400 for malformed requests, 404 for
// unknown versions/hashes, 405 for wrong methods and 422 for well-formed
// deltas the topology rejects.
func NewServer(d *Daemon, reg *obsv.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", d.handleSchedule)
	mux.HandleFunc("/v1/topology", d.handleTopology)
	mux.HandleFunc("/v1/updates", d.handleUpdates)
	if reg != nil {
		mux.Handle("/metrics", reg)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// fail renders a JSON error and accounts it.
func (d *Daemon) fail(w http.ResponseWriter, status int, format string, args ...any) {
	d.counters.Inc(fmt.Sprintf("%s{code=%q}", ctrReqErrors, strconv.Itoa(status)))
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// scheduleQuery is the parsed GET /v1/schedule query.
type scheduleQuery struct {
	alg   string
	msize int
	syncs bool
	hash  string
}

// parseScheduleQuery validates the schedule query parameters. It rejects
// unknown parameters so that a typo ("msizes=") fails loudly instead of
// silently serving the default.
func parseScheduleQuery(q url.Values) (scheduleQuery, error) {
	out := scheduleQuery{alg: AlgOurs}
	for name, vals := range q {
		if len(vals) != 1 {
			return out, fmt.Errorf("parameter %q repeated", name)
		}
		v := vals[0]
		switch name {
		case "alg":
			if !gen.ValidAlg(v) {
				return out, fmt.Errorf("unknown alg %q (want ours, greedy, auto or ring)", v)
			}
			out.alg = v
		case "msize":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return out, fmt.Errorf("bad msize %q: want a non-negative integer", v)
			}
			out.msize = n
		case "syncs":
			b, err := strconv.ParseBool(v)
			if err != nil {
				return out, fmt.Errorf("bad syncs %q: want a boolean", v)
			}
			out.syncs = b
		case "hash":
			if v == "" {
				return out, fmt.Errorf("empty hash")
			}
			out.hash = v
		default:
			return out, fmt.Errorf("unknown parameter %q", name)
		}
	}
	return out, nil
}

func (d *Daemon) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		d.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q, err := parseScheduleQuery(r.URL.Query())
	if err != nil {
		d.fail(w, http.StatusBadRequest, "bad query: %v", err)
		return
	}
	res, err := d.Schedule(q.alg, q.msize, q.hash)
	switch {
	case errors.Is(err, ErrUnknownHash):
		d.fail(w, http.StatusNotFound, "%v", err)
		return
	case errors.Is(err, ErrRingInfeasible):
		d.fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	case err != nil:
		d.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	var plan *syncplan.Plan
	if q.syncs {
		plan, err = d.SyncPlan(res)
		if err != nil {
			d.fail(w, http.StatusInternalServerError, "sync plan: %v", err)
			return
		}
	}
	if !res.cached {
		// The request waited on a compile: its cached:false answer is for it
		// alone.
		writeJSON(w, http.StatusOK, responseFor(res, plan))
		return
	}
	// A cache hit is answered with bytes rendered once per entry.
	withSyncs := 0
	if q.syncs {
		withSyncs = 1
	}
	m := &res.entry.bodies[res.class.index()][withSyncs]
	m.once.Do(func() {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(responseFor(res, plan))
		m.b = buf.Bytes()
	})
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(m.b)))
	w.Write(m.b)
}

func (d *Daemon) handleTopology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		d.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	v := d.store.Current()
	if arg := r.URL.Query().Get("version"); arg != "" {
		seq, err := strconv.Atoi(arg)
		if err != nil {
			d.fail(w, http.StatusBadRequest, "bad version %q", arg)
			return
		}
		old, ok := d.store.BySeq(seq)
		if !ok {
			d.fail(w, http.StatusNotFound, "version %d not retained", seq)
			return
		}
		v = old
	}
	writeJSON(w, http.StatusOK, TopologyResponse{
		Version:     v.Seq,
		Hash:        v.Hash,
		NumMachines: v.Graph.NumMachines(),
		NumSwitches: v.Graph.NumSwitches(),
		DSL:         v.Graph.Format(),
	})
}

// handleUpdates consumes delta-DSL lines from the request body and streams
// one JSON ack per line back, flushing after each, so a client can apply
// updates in lockstep over one connection. A malformed line is a 400 if
// nothing has been acked yet, otherwise an in-stream error ack; a
// well-formed delta the topology rejects is a 422 if it is the first,
// otherwise an in-stream error ack (the stream and the topology survive
// it). Either way the topology is unchanged. A body that cannot be read (a
// line longer than bufio.MaxScanTokenSize) ends the stream: a 400 before the
// first ack, a final error ack naming the read error after it.
func (d *Daemon) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Lockstep streaming interleaves reads of the request body with writes
	// of the response. Without full duplex, the server's first response
	// write would block draining the (still-open) request body.
	//
	// The stream never hands its connection back for reuse: a line it
	// cannot read ends the handler with the body unread, and net/http
	// peeking that connection for a next request would race the body
	// reader ("invalid concurrent Body.Read"). Connection: close also
	// keeps the session usable where full duplex is unsupported.
	w.Header().Set("Connection", "close")
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	enc := json.NewEncoder(w)
	started := false
	ack := func(a UpdateAck) {
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		enc.Encode(a)
		rc.Flush()
	}
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		delta, err := topology.ParseDelta(line)
		if err != nil {
			if !started {
				d.fail(w, http.StatusBadRequest, "%v", err)
				return
			}
			ack(UpdateAck{Delta: line, Error: err.Error()})
			continue
		}
		res, err := d.ApplyDelta(delta)
		if err != nil {
			if !started {
				d.fail(w, http.StatusUnprocessableEntity, "%v", err)
				return
			}
			ack(UpdateAck{Delta: delta.Format(), Error: err.Error()})
			continue
		}
		ack(UpdateAck{
			Delta:    delta.Format(),
			Version:  res.Version.Seq,
			Hash:     res.Version.Hash,
			NumRanks: res.Version.Graph.NumMachines(),
			Patched:  res.Patched,
			Dropped:  res.Dropped,
		})
	}
	if err := sc.Err(); err != nil {
		if !started {
			d.fail(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		ack(UpdateAck{Error: fmt.Sprintf("reading body: %v", err)})
	}
}
