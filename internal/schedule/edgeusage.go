package schedule

import "math/bits"

// edgeUsage tracks which phases occupy each directed edge as one bitset per
// edge over the phase axis, 64 phases per word. First-fit probing becomes
// "first zero bit of the OR of the path's rows": word-wise with early exit,
// so probing P phases costs O(P/64 * |path|) instead of O(P * |path|).
//
// The words are stored block-major: block w holds word w (phases
// 64w..64w+63) of every edge side by side. Marking a schedule phase by
// phase therefore writes within one small block at a time instead of
// striding across every edge's row, and a probe reads one block per 64
// phases.
//
// full[e] is the first word of edge e that still has a free phase. Every
// phase below 64*full[e] is occupied on e, so a probe starts at the
// largest full[e] along its path: a path through a saturated edge skips
// straight to the end instead of scanning every block.
//
// The invariant numPhases < stride*64 always holds, so a probe is
// guaranteed to find a free bit at numPhases (never set) without bounds
// checks: a probe result equal to numPhases means "open a new phase".
type edgeUsage struct {
	words     []uint64 // stride blocks of numEdges words each
	full      []int32  // per edge, the first word that is not all ones
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
		full:     make([]int32, numEdges),
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
		for u.numPhases >= u.stride*64 {
			u.grow()
		}
	}
	w, bit := phase>>6, uint64(1)<<uint(phase&63)
	block := u.words[w*u.numEdges : (w+1)*u.numEdges]
	for _, e := range path {
		x := block[e] | bit
		block[e] = x
		if x == ^uint64(0) && int(u.full[e]) == w {
			// The invariant keeps bit numPhases clear, so the scan stops
			// inside the bitsets.
			f := w + 1
			for u.words[f*u.numEdges+int(e)] == ^uint64(0) {
				f++
			}
			u.full[e] = int32(f)
		}
	}
}

// grow doubles the number of blocks; block-major storage keeps every
// existing word where it is.
func (u *edgeUsage) grow() {
	u.words = append(u.words, make([]uint64, u.numEdges*u.stride)...)
	u.stride *= 2
}

// firstFree returns the smallest phase >= from that is unoccupied on every
// edge of the path. The result is at most max(from, numPhases) (a fresh
// phase). It is the first-fit probe of the daemon's incremental reschedule
// and allocates nothing (TestFirstFreeNoAllocs).
func (u *edgeUsage) firstFree(path []int32, from int) int {
	if from >= u.numPhases {
		// Nothing is set at or past numPhases. The scan below would also
		// run past the bitsets when from>>6 reaches stride.
		return from
	}
	w := from >> 6
	// Mask out the bits below from in the first word so they read as
	// occupied.
	low := ^uint64(0) >> uint(64-from&63) // 0 mask when from%64 == 0
	for _, e := range path {
		if f := int(u.full[e]); f > w {
			w, low = f, 0
		}
	}
	for ; ; w++ {
		acc := low
		low = 0
		block := u.words[w*u.numEdges : (w+1)*u.numEdges]
		for _, e := range path {
			acc |= block[e]
		}
		if acc != ^uint64(0) {
			return w<<6 + bits.TrailingZeros64(^acc)
		}
	}
}
