//go:build race

package tcp

// raceEnabled reports whether the race detector is active. Its runtime
// allocates on synchronization, so allocation gates are meaningless there.
const raceEnabled = true
