package schedule

import (
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// BuildGreedy constructs a contention-free phased schedule with a simple
// first-fit greedy heuristic: messages are considered in row-major order and
// each is placed into the earliest phase where its path shares no directed
// link with the messages already there.
//
// It is the sequential reference BuildGreedyParallel must reproduce byte
// for byte (incremental_test.go, quick_test.go); the shipped greedy
// ablation is BuildGreedyParallel.
//
// Link occupancy is tracked as one []uint64 bitset per phase over the dense
// directed-edge index: a message's path becomes a reusable mask and the
// first-fit scan is a word-wise AND with early exit, 64 links per compare,
// instead of a per-link bool probe.
func BuildGreedy(g *topology.Graph) *Schedule {
	n := g.NumMachines()
	s := &Schedule{NumRanks: n}
	if n < 2 {
		return s
	}
	idx := g.NewEdgeIndex()
	words := (idx.Len() + 63) / 64
	// usage[p] is the bitset of directed edges used by phase p.
	var usage [][]uint64
	// mask holds the current message's path in the same layout, rebuilt per
	// message in place.
	mask := make([]uint64, words)
	for src := 0; src < n; src++ {
		for off := 1; off < n; off++ {
			dst := (src + off) % n
			path := g.Path(g.MachineID(src), g.MachineID(dst))
			for i := range mask {
				mask[i] = 0
			}
			for _, e := range path {
				id := idx.ID(e)
				mask[id>>6] |= 1 << uint(id&63)
			}
			p := 0
		scan:
			for ; p < len(usage); p++ {
				for wi, w := range mask {
					if w&usage[p][wi] != 0 {
						continue scan
					}
				}
				break
			}
			if p == len(usage) {
				usage = append(usage, make([]uint64, words))
				s.Phases = append(s.Phases, nil)
			}
			for wi, w := range mask {
				usage[p][wi] |= w
			}
			s.Phases[p] = append(s.Phases[p], Message{Src: src, Dst: dst})
		}
	}
	s.normalize()
	return s
}
