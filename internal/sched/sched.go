// Package sched is the control plane of the schedule daemon (aapcd): it
// compiles, caches and serves the contention-free AAPC schedules of
// Faraj & Yuan (IPPS 2005) over HTTP/JSON, keyed by
// (topology hash, machine count, algorithm).
//
// The paper's workflow is offline: measure the topology once, generate the
// customized routine, link it into the application. On a real cluster the
// topology is not static — machines join and leave, switches fail — and a
// 512-rank greedy compile takes tens of seconds, far too slow to sit on a
// job-launch path. The daemon closes that gap two ways:
//
//   - A sharded in-memory cache with singleflight compile deduplication:
//     concurrent requests for the same key cost one compile, and repeated
//     requests are a map hit. Everything derived from a cached schedule —
//     its pair-wise synchronization plan, the rendered JSON of a cache hit —
//     is derived once, kept on the cache entry and dropped with it; the
//     paper's generator runs once per topology, and so does the daemon's.
//   - Incremental rescheduling (schedule.Reschedule): a topology delta that
//     touches few machines patches every cached schedule of the previous
//     version — pinning the messages between survivors, re-placing only the
//     messages incident to the change — in milliseconds instead of
//     recompiling. Large deltas fall back to a full compile, with the
//     greedy path parallelized (schedule.BuildGreedyParallel).
//
// Topology versions are retained in a bounded history so that in-flight
// clients can still resolve the version their schedule was keyed to — the
// chaos suite leans on this to prove no torn reads under update storms.
package sched

import (
	"errors"
	"fmt"

	"github.com/aapc-sched/aapcsched/internal/gen"
)

// Sentinel request errors the HTTP layer maps to status codes.
var (
	// ErrUnknownHash: the request pinned a topology hash that is neither
	// current nor retained in the version history (404).
	ErrUnknownHash = errors.New("sched: no retained topology version with that hash")
	// ErrRingInfeasible: the ring schedule oversubscribes a link on this
	// topology — it is only servable when the inter-switch trunks are fast
	// enough to carry whole permutation phases (422).
	ErrRingInfeasible = errors.New("sched: ring schedule exceeds link capacity on this topology")
)

// MsizeClass buckets message sizes for the synchronization advice served
// with a schedule. The schedule itself is size-independent, so the class is
// not part of the cache key; the recommended synchronization mode is not
// (short messages amortize a barrier poorly; long ones hide the pair-wise
// control traffic), so each request is answered with the class and advice
// of its own msize.
type MsizeClass string

// Message-size classes and their boundaries.
const (
	// ClassSmall is msize < 32 KiB: barrier-synchronized phases.
	ClassSmall MsizeClass = "small"
	// ClassMedium is 32 KiB <= msize < 256 KiB: pair-wise synchronization.
	ClassMedium MsizeClass = "medium"
	// ClassLarge is msize >= 256 KiB: pair-wise synchronization.
	ClassLarge MsizeClass = "large"

	smallLimit  = 32 << 10
	mediumLimit = 256 << 10

	numClasses = 3
)

// ClassifyMsize buckets a message size in bytes.
func ClassifyMsize(msize int) MsizeClass {
	switch {
	case msize < smallLimit:
		return ClassSmall
	case msize < mediumLimit:
		return ClassMedium
	default:
		return ClassLarge
	}
}

// index numbers the classes 0..numClasses-1 (the per-class slots of a cache
// entry's rendered responses).
func (c MsizeClass) index() int {
	switch c {
	case ClassSmall:
		return 0
	case ClassMedium:
		return 1
	default:
		return 2
	}
}

// SyncModeFor returns the synchronization advice served with a schedule of
// the class: "barrier" for small messages, "pairwise" otherwise.
func (c MsizeClass) SyncModeFor() string {
	if c == ClassSmall {
		return "barrier"
	}
	return "pairwise"
}

// Algorithm names accepted by the schedule endpoint (see package gen, which
// builds and verifies each).
const (
	AlgOurs   = gen.AlgOurs
	AlgGreedy = gen.AlgGreedy
	AlgAuto   = gen.AlgAuto
	AlgRing   = gen.AlgRing
)

// Key identifies one cached schedule: everything a schedule depends on. The
// message size is not part of it — it selects only the class and sync advice
// echoed per request.
type Key struct {
	// TopoHash is topology.Graph.Hash() of the cluster the schedule was
	// compiled for.
	TopoHash string
	// N is the machine count (redundant with the hash, but it spreads the
	// shard distribution and makes keys self-describing in logs).
	N int
	// Alg is the algorithm name (AlgOurs, AlgGreedy, AlgAuto, AlgRing).
	Alg string
}

// String renders the key for logs and error messages.
func (k Key) String() string {
	return fmt.Sprintf("%s/n%d/%s", k.TopoHash, k.N, k.Alg)
}

// reschedulable reports whether entries of the algorithm may be patched
// incrementally after a topology delta. The optimal and greedy schedules
// stay valid under phase-pinning (tree paths between survivors are
// unchanged); auto and ring re-derive structure from the whole topology, so
// they recompile.
func reschedulable(alg string) bool { return alg == AlgOurs || alg == AlgGreedy }
