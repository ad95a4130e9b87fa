//go:build race

package simnet

// raceEnabled reports whether the race detector is active. Under race the
// runtime deliberately drops a fraction of sync.Pool puts, so allocation
// counts of code that pools its scratch are meaningless there.
const raceEnabled = true
