package schedule

import (
	"fmt"

	"github.com/aapc-sched/aapcsched/internal/topology"
)

// VerifyError describes a violated schedule property.
type VerifyError struct {
	Reason string
}

func (e *VerifyError) Error() string { return "schedule: " + e.Reason }

func verifyErrf(format string, args ...any) error {
	return &VerifyError{Reason: fmt.Sprintf(format, args...)}
}

// Verify checks the three conditions of the paper's Theorem against a
// schedule for the given cluster:
//
//  1. every AAPC message u -> v (u != v machines) appears exactly once;
//  2. no two messages within a phase share a directed link (contention
//     freedom);
//  3. the number of phases equals the AAPC load of the topology (so the
//     schedule achieves the peak aggregate throughput bound).
//
// Condition 3 is skipped when optimal is false, allowing verification of
// suboptimal but correct schedules (e.g. the greedy baseline).
func Verify(g *topology.Graph, s *Schedule, optimal bool) error {
	n := g.NumMachines()
	if s.NumRanks != n {
		return verifyErrf("schedule covers %d ranks, topology has %d machines",
			s.NumRanks, n)
	}
	// Condition 1: exact coverage.
	seen := make(map[Message]int)
	for pi, p := range s.Phases {
		for _, m := range p {
			if m.Src == m.Dst {
				return verifyErrf("phase %d: self message %v", pi, m)
			}
			if m.Src < 0 || m.Src >= n || m.Dst < 0 || m.Dst >= n {
				return verifyErrf("phase %d: message %v out of rank range", pi, m)
			}
			if prev, dup := seen[m]; dup {
				return verifyErrf("message %v in both phase %d and phase %d", m, prev, pi)
			}
			seen[m] = pi
		}
	}
	if want := n * (n - 1); len(seen) != want {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst {
					if _, ok := seen[Message{src, dst}]; !ok {
						return verifyErrf("message %d->%d never scheduled", src, dst)
					}
				}
			}
		}
		return verifyErrf("scheduled %d messages, want %d", len(seen), want)
	}
	// Condition 2: contention freedom per phase.
	idx := g.NewEdgeIndex()
	owner := make([]Message, idx.Len())
	used := make([]int, idx.Len()) // phase+1 of the last use, 0 = never
	var path []int32
	for pi, p := range s.Phases {
		for _, m := range p {
			path = g.AppendPathEdgeIDs(idx, g.MachineID(m.Src), g.MachineID(m.Dst), path[:0])
			for _, id := range path {
				if used[id] == pi+1 {
					e := idx.Edge(int(id))
					return verifyErrf("phase %d: messages %v and %v contend on edge %s->%s",
						pi, owner[id], m, g.Node(e.U).Name, g.Node(e.V).Name)
				}
				used[id] = pi + 1
				owner[id] = m
			}
		}
	}
	// Condition 3: optimal phase count.
	if optimal {
		if want := g.AAPCLoad(); len(s.Phases) != want {
			return verifyErrf("%d phases, want AAPC load %d", len(s.Phases), want)
		}
	}
	return nil
}
