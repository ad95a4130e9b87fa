// Package schedule implements the AAPC message scheduling algorithm of
// Faraj & Yuan (IPPS 2005, Section 4): the construction of contention-free
// phases that realize all-to-all personalized communication on a tree
// topology in the theoretically minimal number of phases.
//
// The algorithm has three components:
//
//  1. Root identification (provided by package topology, Section 4.1).
//  2. Global message scheduling: an extended ring schedule that allocates a
//     contiguous range of phases to the group of messages from subtree ti to
//     subtree tj (Section 4.2).
//  3. Global and local message assignment: the six-step algorithm of Fig. 4
//     that places each individual message into a phase using broadcast and
//     rotate patterns (Section 4.3).
//
// The result is a Schedule whose phase count equals the AAPC load of the
// topology, with no two messages of a phase sharing a directed link — the
// conditions that guarantee peak aggregate throughput.
package schedule

import (
	"fmt"
	"sort"
)

// Message is one AAPC point-to-point communication between machine ranks.
type Message struct {
	// Src is the sending machine rank.
	Src int `json:"src"`
	// Dst is the receiving machine rank.
	Dst int `json:"dst"`
}

// String renders the message as "src->dst".
func (m Message) String() string { return fmt.Sprintf("%d->%d", m.Src, m.Dst) }

// Phase is a set of messages intended to proceed concurrently without
// contention.
type Phase []Message

// Schedule is a phased realization of the AAPC pattern on NumRanks machines.
type Schedule struct {
	// NumRanks is the number of machines |M|.
	NumRanks int
	// Phases lists the contention-free phases in execution order. Within a
	// phase, messages are sorted by (Src, Dst) for determinism.
	Phases []Phase
}

// NumMessages returns the total number of messages across all phases.
func (s *Schedule) NumMessages() int {
	total := 0
	for _, p := range s.Phases {
		total += len(p)
	}
	return total
}

// PhaseOf returns a map from message to its phase index.
func (s *Schedule) PhaseOf() map[Message]int {
	out := make(map[Message]int, s.NumMessages())
	for i, p := range s.Phases {
		for _, m := range p {
			out[m] = i
		}
	}
	return out
}

// normalize sorts messages within each phase for deterministic output.
func (s *Schedule) normalize() {
	for _, p := range s.Phases {
		sort.Slice(p, func(i, j int) bool {
			if p[i].Src != p[j].Src {
				return p[i].Src < p[j].Src
			}
			return p[i].Dst < p[j].Dst
		})
	}
}

// String renders the schedule one phase per line.
func (s *Schedule) String() string {
	out := ""
	for i, p := range s.Phases {
		out += fmt.Sprintf("phase %d:", i)
		for _, m := range p {
			out += " " + m.String()
		}
		out += "\n"
	}
	return out
}

// mod returns a mod m with a non-negative result, as the scheduling formulas
// of the paper require (Go's % can be negative for negative a).
func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// gcd returns the greatest common divisor of two positive integers.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
