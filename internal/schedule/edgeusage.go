package schedule

import "math/bits"

// edgeUsage tracks which phases occupy each directed edge as one bitset per
// edge over the phase axis (edge-major, the transpose of the sequential
// reference builder's phase-major bitsets). First-fit probing becomes
// "first zero bit of the OR of the path's rows": word-wise with early exit,
// so probing P phases costs O(P/64 * |path|) instead of O(P * |path|).
//
// The invariant numPhases < stride*64 always holds, so a probe is
// guaranteed to find a free bit at numPhases (never set) without bounds
// checks: a probe result equal to numPhases means "open a new phase".
type edgeUsage struct {
	words     []uint64 // numEdges rows of stride words each
	stride    int
	numEdges  int
	numPhases int
}

// newEdgeUsage sizes the bitsets for numEdges directed edges and an
// expected phaseCap phases (grown on demand).
func newEdgeUsage(numEdges, phaseCap int) *edgeUsage {
	if phaseCap < 63 {
		phaseCap = 63
	}
	stride := phaseCap/64 + 1
	return &edgeUsage{
		words:    make([]uint64, numEdges*stride),
		stride:   stride,
		numEdges: numEdges,
	}
}

// set marks the phase as occupied on every edge of the path and extends
// numPhases to cover it, growing the bitsets when the invariant
// numPhases < stride*64 would break.
func (u *edgeUsage) set(path []int32, phase int) {
	if phase >= u.numPhases {
		u.numPhases = phase + 1
		if u.numPhases >= u.stride*64 {
			u.grow()
		}
	}
	w, bit := phase>>6, uint64(1)<<uint(phase&63)
	for _, e := range path {
		u.words[int(e)*u.stride+w] |= bit
	}
}

// grow doubles the per-edge stride, preserving contents.
func (u *edgeUsage) grow() {
	ns := u.stride * 2
	nw := make([]uint64, u.numEdges*ns)
	for e := 0; e < u.numEdges; e++ {
		copy(nw[e*ns:e*ns+u.stride], u.words[e*u.stride:(e+1)*u.stride])
	}
	u.words, u.stride = nw, ns
}

// firstFree returns the smallest phase >= from that is unoccupied on every
// edge of the path. The result is at most numPhases (a fresh phase).
//
//aapc:noalloc first-fit probe, the daemon's incremental-reschedule hot path
func (u *edgeUsage) firstFree(path []int32, from int) int {
	w := from >> 6
	// Mask out the bits below from in the first word so they read as
	// occupied.
	low := ^uint64(0) >> uint(64-from&63) // 0 mask when from%64 == 0
	for ; ; w++ {
		acc := low
		low = 0
		for _, e := range path {
			acc |= u.words[int(e)*u.stride+w]
		}
		if acc != ^uint64(0) {
			return w<<6 + bits.TrailingZeros64(^acc)
		}
	}
}
