package sched

import (
	"container/list"
	"sync"

	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
)

// Metric names the daemon's cache and compiler account under (rendered on
// /metrics through obsv.Registry.AddCounters).
const (
	ctrHits        = "aapcd_cache_hits_total"
	ctrMisses      = "aapcd_cache_misses_total"
	ctrDedup       = "aapcd_singleflight_dedup_total"
	ctrEvictions   = "aapcd_cache_evictions_total"
	ctrCompiles    = "aapcd_compiles_total"
	ctrPatches     = "aapcd_incremental_patches_total"
	ctrRecompiles  = "aapcd_full_recompiles_total"
	ctrTopoUpdates = "aapcd_topology_updates_total"
	ctrReqErrors   = "aapcd_request_errors_total"
	ctrPlanBuilds  = "aapcd_syncplan_builds_total"
	ctrPlanReuses  = "aapcd_syncplan_reuses_total"
)

// entry is one cached schedule with the provenance the daemon serves
// alongside it, and everything derived from it: each artefact is derived at
// most once, on first demand, and dies with the entry. An entry is immutable
// once published apart from those once-guarded memos; a patch or recompile
// publishes a new entry, which re-derives its own.
type entry struct {
	key Key
	s   *schedule.Schedule
	// version is the topology-store sequence number the schedule was
	// compiled (or patched) for.
	version int
	// compileNanos is the wall time of the compile or incremental patch
	// that produced the schedule.
	compileNanos int64
	// incremental marks schedules produced by Reschedule rather than a
	// from-scratch compile.
	incremental bool

	// plan is the pair-wise synchronization plan (Daemon.SyncPlan), shared
	// read-only by every request that asks for syncs.
	planOnce sync.Once
	plan     *syncplan.Plan
	planErr  error
	// bodies are the rendered cache-hit responses, one per (class, syncs):
	// what differs between two hits of one entry is only the class advice
	// and whether the plan rides along.
	bodies [numClasses][2]struct {
		once sync.Once
		b    []byte
	}
}

// flight is one in-progress compile; followers block on done and share the
// result.
type flight struct {
	done chan struct{}
	e    *entry
	err  error
}

// cacheShard is one lock domain of the cache: an LRU over entries plus the
// in-flight compiles for its keys.
type cacheShard struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *entry
	byKey   map[Key]*list.Element
	flights map[Key]*flight
}

// Cache is a sharded LRU of compiled schedules with singleflight compile
// deduplication. Keys hash to a shard; each shard holds at most cap
// entries, evicting least-recently-used. Concurrent GetOrCompile calls for
// the same key run the compile function exactly once.
type Cache struct {
	shards   []*cacheShard
	counters *obsv.Counters
}

// NewCache builds a cache of the given shard count and per-shard capacity
// (minimums of 1 apply). counters may be nil.
func NewCache(shards, capPerShard int, counters *obsv.Counters) *Cache {
	if shards < 1 {
		shards = 1
	}
	if capPerShard < 1 {
		capPerShard = 1
	}
	c := &Cache{shards: make([]*cacheShard, shards), counters: counters}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:     capPerShard,
			order:   list.New(),
			byKey:   make(map[Key]*list.Element),
			flights: make(map[Key]*flight),
		}
	}
	return c
}

// shardFor hashes the key to its shard (FNV-1a over the string form).
func (c *Cache) shardFor(k Key) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range []byte(k.TopoHash) {
		h = (h ^ uint64(b)) * prime64
	}
	for _, b := range []byte(k.Alg) {
		h = (h ^ uint64(b)) * prime64
	}
	h = (h ^ uint64(k.N)) * prime64
	return c.shards[h%uint64(len(c.shards))]
}

// GetOrCompile returns the cached entry for the key, or runs compile to
// produce it. Exactly one caller compiles; concurrent callers for the same
// key wait for that result (singleflight). A failed compile is not cached —
// every waiter receives the error and the next request retries.
func (c *Cache) GetOrCompile(k Key, compile func() (*entry, error)) (*entry, bool, error) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	if el, ok := sh.byKey[k]; ok {
		sh.order.MoveToFront(el)
		e := el.Value.(*entry) // read under the lock: Put replaces Value in place
		sh.mu.Unlock()
		c.counters.Inc(ctrHits)
		return e, true, nil
	}
	if f, ok := sh.flights[k]; ok {
		sh.mu.Unlock()
		c.counters.Inc(ctrDedup)
		<-f.done
		return f.e, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[k] = f
	sh.mu.Unlock()
	c.counters.Inc(ctrMisses)

	f.e, f.err = compile()

	sh.mu.Lock()
	delete(sh.flights, k)
	if f.err == nil {
		sh.insertLocked(f.e, c.counters)
	}
	sh.mu.Unlock()
	close(f.done)
	if f.err == nil {
		c.counters.Inc(ctrCompiles)
	}
	return f.e, false, f.err
}

// Put inserts (or replaces) an entry directly — the incremental-repair path
// uses it to publish patched schedules without a request in flight.
func (c *Cache) Put(e *entry) {
	sh := c.shardFor(e.key)
	sh.mu.Lock()
	sh.insertLocked(e, c.counters)
	sh.mu.Unlock()
}

// insertLocked adds the entry at the LRU front and evicts past capacity.
func (sh *cacheShard) insertLocked(e *entry, counters *obsv.Counters) {
	if el, ok := sh.byKey[e.key]; ok {
		el.Value = e
		sh.order.MoveToFront(el)
		return
	}
	sh.byKey[e.key] = sh.order.PushFront(e)
	for sh.order.Len() > sh.cap {
		last := sh.order.Back()
		sh.order.Remove(last)
		delete(sh.byKey, last.Value.(*entry).key)
		counters.Inc(ctrEvictions)
	}
}

// Snapshot returns every cached entry, newest-first per shard — the
// incremental-repair pass walks this to find entries worth patching.
func (c *Cache) Snapshot() []*entry {
	var out []*entry
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.order.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*entry))
		}
		sh.mu.Unlock()
	}
	return out
}

// Remove drops the key if present.
func (c *Cache) Remove(k Key) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	if el, ok := sh.byKey[k]; ok {
		sh.order.Remove(el)
		delete(sh.byKey, k)
	}
	sh.mu.Unlock()
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}
