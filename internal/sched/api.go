package sched

import (
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
)

// The JSON wire types of the daemon's v1 API. Phases and syncs are the
// runtime types, whose codecs (schedule.Phase and syncplan.Sync) render
// each as one flat array of (src, dst) pairs, the form the aapcgen routine
// JSON uses too, so aapcgen -check consumes daemon responses.

// ScheduleResponse is the body of GET /v1/schedule.
type ScheduleResponse struct {
	// TopoHash and Version identify the topology the schedule is valid
	// for; pass the hash back to pin a follow-up request to it.
	TopoHash string `json:"topoHash"`
	Version  int    `json:"version"`
	// NumRanks and Alg echo the resolved cache key; Class is the
	// message-size class of the request's msize (not part of the key: one
	// cached schedule answers every class).
	NumRanks int    `json:"numRanks"`
	Alg      string `json:"alg"`
	Class    string `json:"class"`
	// SyncMode is the synchronization advice for the class.
	SyncMode string `json:"syncMode"`
	// Cached is true when the response came from the cache without
	// waiting on any compile; Incremental is true when the schedule was
	// produced by an incremental patch rather than a from-scratch compile.
	Cached      bool `json:"cached"`
	Incremental bool `json:"incremental"`
	// CompileNanos is the wall time of the compile or patch that produced
	// the schedule (not of this request, which may have been a cache hit).
	CompileNanos int64 `json:"compileNanos"`
	// NumPhases and Load describe the schedule: Load is the topology's
	// AAPC lower bound, NumPhases >= Load with equality for the optimal
	// construction.
	NumPhases int `json:"numPhases"`
	Load      int `json:"load"`
	// Phases is the schedule body.
	Phases []schedule.Phase `json:"phases"`
	// Syncs is the pair-wise synchronization plan, present when the
	// request asked for it.
	Syncs []syncplan.Sync `json:"syncs,omitempty"`
}

// ToSchedule returns the served schedule.
func (r *ScheduleResponse) ToSchedule() *schedule.Schedule {
	return &schedule.Schedule{NumRanks: r.NumRanks, Phases: r.Phases}
}

// ToPlan returns the served synchronization plan (nil when the response
// carries no syncs).
func (r *ScheduleResponse) ToPlan() *syncplan.Plan {
	if r.Syncs == nil {
		return nil
	}
	return &syncplan.Plan{Syncs: r.Syncs}
}

// responseFor renders a served schedule (and optional plan) as wire JSON.
func responseFor(res *result, plan *syncplan.Plan) *ScheduleResponse {
	e := res.entry
	out := &ScheduleResponse{
		TopoHash:     e.key.TopoHash,
		Version:      e.version,
		NumRanks:     e.s.NumRanks,
		Alg:          e.key.Alg,
		Class:        string(res.class),
		SyncMode:     res.class.SyncModeFor(),
		Cached:       res.cached,
		Incremental:  e.incremental,
		CompileNanos: e.compileNanos,
		NumPhases:    len(e.s.Phases),
		Load:         res.version.Graph.AAPCLoad(),
		Phases:       e.s.Phases,
	}
	if out.Phases == nil { // a one-machine schedule: the wire says [], not null
		out.Phases = []schedule.Phase{}
	}
	if plan != nil {
		out.Syncs = plan.Syncs
	}
	return out
}

// TopologyResponse is the body of GET /v1/topology.
type TopologyResponse struct {
	Version int    `json:"version"`
	Hash    string `json:"hash"`
	// NumMachines and NumSwitches summarize the cluster.
	NumMachines int `json:"numMachines"`
	NumSwitches int `json:"numSwitches"`
	// DSL is the topology in the repository's topology DSL
	// (topology.Parse round-trips it).
	DSL string `json:"dsl"`
}

// UpdateAck is one line of the streaming POST /v1/updates response: the
// outcome of applying one delta line.
type UpdateAck struct {
	// Delta echoes the applied delta in DSL form.
	Delta string `json:"delta"`
	// Version and Hash identify the topology after the delta.
	Version int    `json:"version"`
	Hash    string `json:"hash"`
	// NumRanks is the machine count after the delta.
	NumRanks int `json:"numRanks"`
	// Patched and Dropped count the cache entries incrementally patched
	// and invalidated by this update.
	Patched int `json:"patched"`
	Dropped int `json:"dropped"`
	// Error is set when the delta could not be applied; the stream
	// continues with the topology unchanged.
	Error string `json:"error,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
