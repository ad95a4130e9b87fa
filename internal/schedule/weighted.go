package schedule

import (
	"fmt"

	"github.com/aapc-sched/aapcsched/internal/topology"
)

// This file extends the paper's scheduler to clusters with heterogeneous
// link speeds (gigabit trunks over 100 Mbps machine links). The paper's
// construction minimizes the number of phases under the rule "one message
// per directed link per phase", which is optimal only when all links are
// equal: a 10x trunk can carry ten concurrent messages at full end-host
// rate, so on upgraded clusters the paper's schedule over-serializes.
//
// The generalization replaces contention-freedom by capacity-respect: a
// phase is valid when every directed link carries at most speed(link)
// concurrent messages. The phase duration is then governed by the slowest
// link relative to its population, and the cost of a schedule is the sum of
// per-phase durations in units of msize/B.

// VerifyCapacity checks a schedule against the capacity-respect rule: every
// message appears exactly once, and within each phase no directed link
// carries more messages than its speed multiplier. On uniform clusters this
// is exactly the paper's contention-freedom.
func VerifyCapacity(g *topology.Graph, s *Schedule) error {
	n := g.NumMachines()
	if s.NumRanks != n {
		return verifyErrf("schedule covers %d ranks, topology has %d machines", s.NumRanks, n)
	}
	seen := make(map[Message]bool)
	idx := g.NewEdgeIndex()
	counts := make([]int, idx.Len())
	var path []int32
	for pi, p := range s.Phases {
		for i := range counts {
			counts[i] = 0
		}
		for _, m := range p {
			if m.Src == m.Dst || m.Src < 0 || m.Src >= n || m.Dst < 0 || m.Dst >= n {
				return verifyErrf("phase %d: bad message %v", pi, m)
			}
			if seen[m] {
				return verifyErrf("message %v scheduled twice", m)
			}
			seen[m] = true
			path = g.AppendPathEdgeIDs(idx, g.MachineID(m.Src), g.MachineID(m.Dst), path[:0])
			for _, id := range path {
				counts[id]++
			}
		}
		for id, c := range counts {
			e := idx.Edge(id)
			if float64(c) > g.LinkSpeed(e) {
				return verifyErrf("phase %d: %d messages on link %s->%s exceed speed %g",
					pi, c, g.Node(e.U).Name, g.Node(e.V).Name, g.LinkSpeed(e))
			}
		}
	}
	if want := n * (n - 1); len(seen) != want {
		return verifyErrf("scheduled %d messages, want %d", len(seen), want)
	}
	return nil
}

// WeightedCost estimates the completion time of a schedule in units of
// msize/B: the sum over phases of the worst per-link relative load
// max_e count(e)/speed(e). For the paper's schedule on a uniform cluster
// this is exactly the phase count.
func WeightedCost(g *topology.Graph, s *Schedule) float64 {
	idx := g.NewEdgeIndex()
	counts := make([]int, idx.Len())
	total := 0.0
	var path []int32
	for _, p := range s.Phases {
		for i := range counts {
			counts[i] = 0
		}
		for _, m := range p {
			path = g.AppendPathEdgeIDs(idx, g.MachineID(m.Src), g.MachineID(m.Dst), path[:0])
			for _, id := range path {
				counts[id]++
			}
		}
		worst := 0.0
		for id, c := range counts {
			if c == 0 {
				continue
			}
			if r := float64(c) / g.LinkSpeed(idx.Edge(id)); r > worst {
				worst = r
			}
		}
		total += worst
	}
	return total
}

// BuildRing schedules AAPC as N-1 permutation phases (the Table 1 ring over
// all machines, ignoring switch structure). On clusters whose inter-switch
// links are fast enough, every permutation respects capacity and the ring
// is weighted-optimal: the N-1 phases are exactly the machine-link bound.
func BuildRing(g *topology.Graph) *Schedule {
	s := &Schedule{NumRanks: g.NumMachines(), Phases: Ring(g.NumMachines())}
	s.normalize()
	return s
}

// BuildAuto picks the better of the paper's construction and the ring
// schedule by weighted cost. On uniform clusters it always returns the
// paper's schedule (which is optimal there); on heterogeneous clusters it
// switches to the ring when the faster trunks make permutation phases
// capacity-valid and cheaper.
func BuildAuto(g *topology.Graph) (*Schedule, error) {
	paper, err := Build(g)
	if err != nil {
		return nil, err
	}
	if g.Uniform() || g.NumMachines() < 2 {
		return paper, nil
	}
	ring := BuildRing(g)
	if VerifyCapacity(g, ring) != nil {
		return paper, nil
	}
	if WeightedCost(g, ring) < WeightedCost(g, paper) {
		return ring, nil
	}
	return paper, nil
}

// WeightedBestCasePhases returns the lower bound on weighted cost for any
// capacity-respecting schedule: the weighted bottleneck ratio
// max_link load/speed (each link must carry its load at its speed).
func WeightedBestCasePhases(g *topology.Graph) (float64, error) {
	if g.NumMachines() < 2 {
		return 0, fmt.Errorf("schedule: need at least 2 machines")
	}
	_, ratio := g.WeightedBottleneck()
	return ratio, nil
}
