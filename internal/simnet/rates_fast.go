package simnet

import (
	"math"
	"math/bits"
)

// The fast rate engine collapses flows sharing a path into aggregates for
// the progressive-filling loop. On a tree the path between two machines is
// unique, so the aggregate key is simply the (src, dst) pair: every
// concurrent message between the same endpoints — repeated iterations,
// windowed exchanges, sync traffic — is one solver variable instead of many.
// Aggregates and per-edge flow counts are maintained incrementally as flows
// activate and complete, and every directed edge keeps an incidence list of
// the aggregates crossing it, so a filling round freezes the aggregates of a
// bottleneck edge directly instead of re-scanning every unfrozen flow's
// path. Edge fair-share ratios are cached and recomputed only for edges a
// freeze actually touched. The solver visits only busy edges — those some
// active flow crosses, tracked as a bitset by attachFlow/detachFlow — so a
// call costs nothing for the idle links of a large tree. All solver state
// lives in reusable buffers: at steady state (no new aggregates) a rate
// assignment performs zero allocations.
//
// Equivalence with the dense reference: flows with identical paths are
// symmetric in the max-min system, so they always freeze together at the
// same share, and the solver subtracts the share from an edge's remaining
// capacity once per member flow — replaying exactly the reference solver's
// arithmetic — so the two engines agree bit-for-bit away from degenerate
// 1e-9 tie-breaks (see the property tests in rates_test.go).

// aggregate is one path-equivalence class of active flows.
type aggregate struct {
	key    int     // src*n + dst
	path   []int32 // directed edge IDs (shared with engine.pathOf)
	weight int     // number of active member flows
	// slots[i] is this aggregate's position in edgeAggs[path[i]], kept for
	// O(1) swap-removal when the last member completes.
	slots   []int
	listIdx int // position in engine.aggs
	rate    float64
	// frozenGen marks the assignRatesFast call (engine.rateGen) that froze
	// this aggregate, replacing a per-call reset sweep.
	frozenGen uint64
}

// aggEntry is one incidence-list entry: the aggregate and the index of this
// edge within the aggregate's path (so removal can fix slots).
type aggEntry struct {
	agg *aggregate
	pi  int
}

// edgeState is one edge's solver state, packed so every path step during a
// freeze touches a single cache line instead of four parallel arrays. ratio
// caches remCap/remCount and is recomputed only when dirty.
type edgeState struct {
	remCap   float64
	ratio    float64
	remCount int32
	dirty    bool
}

// fastScratch holds the aggregated solver's per-call working state.
// busyEdges lists, ascending, the edges busy at the last call — the only
// edges whose linkRate may be nonzero — and live the busy edges with
// capacity still unassigned in the current round.
type fastScratch struct {
	edges     []edgeState
	busyEdges []int32
	live      []int32
}

// attachFlow adds an activated flow to its path aggregate, creating and
// registering the aggregate on first use, and bumps the persistent per-edge
// flow counts. Caller holds e.mu.
func (e *engine) attachFlow(f *flow) {
	if len(f.path) == 0 {
		return // self-message: crosses no link, never aggregated
	}
	for _, eid := range f.path {
		if e.linkCount[eid]++; e.linkCount[eid] == 1 {
			e.busy[eid/64] |= 1 << (eid % 64)
		}
	}
	key := f.src*e.n + f.dst
	a := e.aggByKey[key]
	if a == nil {
		if n := len(e.aggPool); n > 0 {
			a = e.aggPool[n-1]
			e.aggPool = e.aggPool[:n-1]
		} else {
			a = &aggregate{}
		}
		a.key = key
		a.path = f.path
		a.weight = 0
		a.frozenGen = 0
		if cap(a.slots) < len(f.path) {
			a.slots = make([]int, len(f.path))
		} else {
			a.slots = a.slots[:len(f.path)]
		}
		for pi, eid := range f.path {
			a.slots[pi] = len(e.edgeAggs[eid])
			e.edgeAggs[eid] = append(e.edgeAggs[eid], aggEntry{agg: a, pi: pi})
		}
		a.listIdx = len(e.aggs)
		e.aggs = append(e.aggs, a)
		e.aggByKey[key] = a
	}
	a.weight++
	f.agg = a
}

// detachFlow removes a completed flow from its aggregate and the per-edge
// flow counts, unregistering the aggregate when the last member leaves.
// Caller holds e.mu.
func (e *engine) detachFlow(f *flow) {
	a := f.agg
	if a == nil {
		return
	}
	f.agg = nil
	for _, eid := range a.path {
		if e.linkCount[eid]--; e.linkCount[eid] == 0 {
			e.busy[eid/64] &^= 1 << (eid % 64)
		}
	}
	a.weight--
	if a.weight > 0 {
		return
	}
	for pi, eid := range a.path {
		list := e.edgeAggs[eid]
		slot := a.slots[pi]
		last := len(list) - 1
		moved := list[last]
		list[slot] = moved
		moved.agg.slots[moved.pi] = slot
		list[last] = aggEntry{}
		e.edgeAggs[eid] = list[:last]
	}
	last := len(e.aggs) - 1
	movedA := e.aggs[last]
	e.aggs[a.listIdx] = movedA
	movedA.listIdx = a.listIdx
	e.aggs[last] = nil
	e.aggs = e.aggs[:last]
	delete(e.aggByKey, a.key)
	a.path = nil
	e.aggPool = append(e.aggPool, a)
}

// assignRatesFast computes max-min fair rates by progressive filling over
// path aggregates: each round finds the bottleneck share from the cached
// edge ratios, then freezes the aggregates on bottleneck edges through the
// incidence lists. Each aggregate is frozen exactly once and each edge is a
// bottleneck at most once, so a call costs O(rounds × busy edges + Σ
// aggregate path lengths) instead of the reference solver's O(rounds ×
// flows × path). Busy edges are initialised, scanned and frozen in
// ascending index order, as the reference solver visits all edges, so every
// subtraction happens in the same order and the rates agree bit for bit.
// Caller holds e.mu.
func (e *engine) assignRatesFast() {
	nEdges := len(e.edgeCap)
	fs := &e.fs
	if cap(fs.edges) < nEdges {
		// Amortized: sized once per topology, reused every solver call.
		fs.edges = make([]edgeState, nEdges)
		fs.busyEdges = make([]int32, 0, nEdges)
		fs.live = make([]int32, 0, nEdges)
	}
	// Only the edges busy at the last call can carry a stale rate.
	for _, eid := range fs.busyEdges {
		e.linkRate[eid] = 0
	}
	busy := fs.busyEdges[:0]
	for w, word := range e.busy {
		for ; word != 0; word &= word - 1 {
			busy = append(busy, int32(w*64+bits.TrailingZeros64(word)))
		}
	}
	fs.busyEdges = busy
	if len(e.aggs) == 0 {
		for _, f := range e.act {
			f.rate = selfRate(f.remain)
		}
		return
	}
	e.rateGen++
	gen := e.rateGen
	es := fs.edges[:nEdges]
	for _, eid := range busy {
		c := e.linkCount[eid]
		es[eid] = edgeState{
			remCap:   e.edgeCap[eid] * e.efficiency(c),
			remCount: int32(c),
			dirty:    true,
		}
	}
	live := append(fs.live[:0], busy...)
	unassigned := len(e.aggs)
	for unassigned > 0 {
		// Bottleneck fair share from the cached ratios, dropping the edges
		// the last round exhausted from the live list (order is kept).
		share := math.Inf(1)
		kept := live[:0]
		for _, eid := range live {
			st := &es[eid]
			if st.remCount <= 0 {
				continue
			}
			kept = append(kept, eid)
			if st.dirty {
				st.ratio = st.remCap / float64(st.remCount)
				st.dirty = false
			}
			if st.ratio < share {
				share = st.ratio
			}
		}
		live = kept
		if math.IsInf(share, 1) {
			break // no constrained aggregates left (cannot happen on a tree)
		}
		// Freeze the aggregates of every bottleneck edge at the fair share.
		// Freezing shifts other edges' ratios downward, so rescan until the
		// round closes — exactly the set the reference solver's in-round
		// mutating check freezes.
		thr := share * (1 + 1e-9)
		progressed := false
		for {
			found := false
			for _, eid := range live {
				st := &es[eid]
				if st.remCount <= 0 {
					continue
				}
				if st.dirty {
					st.ratio = st.remCap / float64(st.remCount)
					st.dirty = false
				}
				if st.ratio > thr {
					continue
				}
				for _, ent := range e.edgeAggs[eid] {
					a := ent.agg
					if a.frozenGen == gen {
						continue
					}
					a.frozenGen = gen
					a.rate = share
					unassigned--
					progressed, found = true, true
					w := a.weight
					for _, eid2 := range a.path {
						st2 := &es[eid2]
						// One subtraction per member flow, replaying the
						// reference solver's arithmetic bit-for-bit.
						for k := 0; k < w; k++ {
							st2.remCap -= share
						}
						st2.remCount -= int32(w)
						st2.dirty = true
					}
				}
			}
			if !found {
				break
			}
		}
		if !progressed {
			// Numerical safety valve: freeze everything at the share.
			for _, a := range e.aggs {
				if a.frozenGen == gen {
					continue
				}
				a.frozenGen = gen
				a.rate = share
				unassigned--
			}
		}
	}
	fs.live = live
	// Link rates sum the flow rates in activation order, as the reference
	// solver sums them, so the per-link byte counts agree bit for bit too.
	for _, f := range e.act {
		if len(f.path) == 0 {
			f.rate = selfRate(f.remain)
			continue
		}
		f.rate = f.agg.rate
		for _, eid := range f.path {
			e.linkRate[eid] += f.rate
		}
	}
}
