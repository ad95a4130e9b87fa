package sched

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/gen"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// Options configures a Daemon.
type Options struct {
	// Graph is the boot topology (required, validated).
	Graph *topology.Graph
	// CacheCap is the per-shard entry capacity (default 64).
	CacheCap int
	// Shards is the cache shard count (default 8).
	Shards int
	// GreedyWorkers bounds the parallel greedy compile fan-out
	// (default GOMAXPROCS).
	GreedyWorkers int
	// History is how many topology versions to retain (default 32).
	History int
	// Registry, when set, receives the daemon's counters for /metrics.
	Registry *obsv.Registry
}

// Daemon compiles, caches and patches schedules for an evolving cluster.
// Schedule is safe for arbitrary concurrency; ApplyDelta calls are
// serialized internally.
type Daemon struct {
	store    *Store
	cache    *Cache
	counters obsv.Counters
	workers  int

	// updateMu serializes topology updates: apply-then-repair must be
	// atomic with respect to other updates (repairs read the predecessor
	// version's entries).
	updateMu sync.Mutex

	// incrementalLimit is the affected-machine fraction (in 1/256ths of n)
	// above which a cached entry is dropped instead of patched.
	incrementalLimit int

	// compileHook, when set, observes every from-scratch compile as it
	// starts — the conformance suite uses it to hold compiles open and
	// prove singleflight deduplication.
	compileHook func(Key)
}

// New builds a daemon serving schedules for the given boot topology.
func New(opts Options) (*Daemon, error) {
	if opts.Graph == nil {
		return nil, fmt.Errorf("sched: Options.Graph is required")
	}
	if opts.CacheCap == 0 {
		opts.CacheCap = 64
	}
	if opts.Shards == 0 {
		opts.Shards = 8
	}
	if opts.History == 0 {
		opts.History = 32
	}
	st, err := NewStore(opts.Graph, opts.History)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		store:            st,
		workers:          opts.GreedyWorkers,
		incrementalLimit: 64, // patch when <= 25% of machines changed
	}
	d.cache = NewCache(opts.Shards, opts.CacheCap, &d.counters)
	if opts.Registry != nil {
		opts.Registry.AddCounters(&d.counters)
	}
	return d, nil
}

// Counters exposes the daemon's named counters (cache accounting, compile
// and patch totals, request errors).
func (d *Daemon) Counters() *obsv.Counters { return &d.counters }

// Store exposes the topology version store.
func (d *Daemon) Store() *Store { return d.store }

// CacheLen returns the number of cached schedules.
func (d *Daemon) CacheLen() int { return d.cache.Len() }

// result is a served schedule plus its provenance and the message-size
// class of the request it answers.
type result struct {
	entry   *entry
	version *Version
	class   MsizeClass
	cached  bool
}

// Schedule returns the schedule for the algorithm and message size on the
// current topology — or, when hash is non-empty, on the retained version
// with that topology hash. The first request for a key compiles; concurrent
// duplicates share that compile; later requests hit the cache. The message
// size picks the class and sync advice of the answer, not the schedule.
func (d *Daemon) Schedule(alg string, msize int, hash string) (*result, error) {
	if !gen.ValidAlg(alg) {
		return nil, fmt.Errorf("sched: unknown algorithm %q", alg)
	}
	if msize < 0 {
		return nil, fmt.Errorf("sched: negative message size %d", msize)
	}
	v := d.store.Current()
	if hash != "" && hash != v.Hash {
		old, ok := d.store.ByHash(hash)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownHash, hash)
		}
		v = old
	}
	k := Key{TopoHash: v.Hash, N: v.Graph.NumMachines(), Alg: alg}
	e, cached, err := d.cache.GetOrCompile(k, func() (*entry, error) {
		if d.compileHook != nil {
			d.compileHook(k)
		}
		start := time.Now()
		s, err := gen.Schedule(v.Graph, alg, d.workers)
		var verr *schedule.VerifyError
		if alg == AlgRing && errors.As(err, &verr) {
			return nil, fmt.Errorf("%w: %v", ErrRingInfeasible, verr)
		}
		if err != nil {
			return nil, err
		}
		return &entry{key: k, s: s, version: v.Seq, compileNanos: time.Since(start).Nanoseconds()}, nil
	})
	if err != nil {
		return nil, err
	}
	return &result{entry: e, version: v, class: ClassifyMsize(msize), cached: cached}, nil
}

// SyncPlan returns the pair-wise synchronization plan for a served schedule
// on the topology version it was keyed to. Deriving it costs the same order
// as compiling the schedule (a fraction of a millisecond at 32 ranks) and
// only requests that ask for syncs need it, so it happens once per cache
// entry, on the first request that asks: concurrent callers share that one
// derivation, later callers get its result, and an entry published by a patch
// or recompile derives its own. The returned plan is shared by every caller
// and must be treated as read-only. Every algorithm's schedule is planned
// alike: syncplan.Build reads each link's speed, so a ring or auto schedule
// that shares a fast link within a phase is planned as such.
func (d *Daemon) SyncPlan(r *result) (*syncplan.Plan, error) {
	e := r.entry
	ctr := ctrPlanReuses
	e.planOnce.Do(func() {
		ctr = ctrPlanBuilds
		e.plan, e.planErr = syncplan.Build(r.version.Graph, e.s)
	})
	d.counters.Inc(ctr)
	return e.plan, e.planErr
}

// UpdateResult describes one applied topology update.
type UpdateResult struct {
	// Version is the topology after the delta.
	Version *Version
	// Patched counts cache entries carried forward by incremental
	// reschedule; Dropped counts entries invalidated (they recompile on
	// next request).
	Patched, Dropped int
}

// ApplyDelta advances the topology and repairs the cache: entries of the
// predecessor version whose algorithm supports phase-pinning are patched
// incrementally (schedule.Reschedule) when the delta touched at most a
// quarter of the machines; everything else keyed to the predecessor is
// dropped and recompiles on next request. Entries of older versions are
// left for the LRU to age out — they stay correct for their own version.
func (d *Daemon) ApplyDelta(delta topology.Delta) (*UpdateResult, error) {
	d.updateMu.Lock()
	defer d.updateMu.Unlock()

	prev := d.store.Current()
	v, rd, err := d.store.Apply(delta)
	if err != nil {
		return nil, err
	}
	d.counters.Inc(ctrTopoUpdates)

	out := &UpdateResult{Version: v}
	n := v.Graph.NumMachines()
	patchable := rd.Affected()*256 <= d.incrementalLimit*n
	for _, e := range d.cache.Snapshot() {
		if e.key.TopoHash != prev.Hash {
			continue
		}
		if patchable && reschedulable(e.key.Alg) {
			start := time.Now()
			patched, err := schedule.Reschedule(e.s, v.Graph, rd)
			if err == nil {
				d.cache.Put(&entry{
					key:          Key{TopoHash: v.Hash, N: n, Alg: e.key.Alg},
					s:            patched,
					version:      v.Seq,
					compileNanos: time.Since(start).Nanoseconds(),
					incremental:  true,
				})
				d.counters.Inc(ctrPatches)
				out.Patched++
				continue
			}
		}
		d.cache.Remove(e.key)
		d.counters.Inc(ctrRecompiles)
		out.Dropped++
	}
	return out, nil
}
