//go:build race

package schedule

// raceEnabled reports whether the race detector is compiled in; the
// wall-clock bound of the incremental-reschedule latency test is only
// asserted without it (the race runtime slows CPU-bound bitset code 5-20x),
// and so is the allocation gate on firstFree.
const raceEnabled = true
