package syncplan

import (
	"fmt"
	"sort"

	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// buildAllPairs is the direct construction Build replaced, kept as the
// differential oracle: it inserts an edge for every ordered pair of a link's
// users into a map per message, counts the distinct edges as the conflict
// pairs, and reduces the result with memoised reachability bitsets. Build
// must return a plan and an error DeepEqual to this one on every schedule.
func buildAllPairs(g *topology.Graph, s *schedule.Schedule, allowSamePhase bool) (*Plan, error) {
	idx := g.NewEdgeIndex()

	// msgs enumerates scheduled messages with a dense index in phase order.
	type node struct {
		msg   schedule.Message
		phase int
	}
	var nodes []node
	id := make(map[schedule.Message]int)
	for pi, p := range s.Phases {
		for _, m := range p {
			if _, dup := id[m]; dup {
				return nil, fmt.Errorf("syncplan: message %v scheduled twice", m)
			}
			id[m] = len(nodes)
			nodes = append(nodes, node{msg: m, phase: pi})
		}
	}

	// usersOf[e] lists message indices crossing directed edge e, in phase
	// order (nodes are appended in phase order already).
	usersOf := make([][]int, idx.Len())
	for i, nd := range nodes {
		for _, e := range g.PathIDs(idx, g.MachineID(nd.msg.Src), g.MachineID(nd.msg.Dst)) {
			usersOf[e] = append(usersOf[e], i)
		}
	}

	// Dependence graph: adjacency via successor sets. An edge u -> v for
	// every pair of same-link users with phase(u) < phase(v).
	succ := make([]map[int]bool, len(nodes))
	for i := range succ {
		succ[i] = make(map[int]bool)
	}
	conflictPairs := 0
	for e := range usersOf {
		users := usersOf[e]
		for a := 0; a < len(users); a++ {
			for b := a + 1; b < len(users); b++ {
				u, v := users[a], users[b]
				if nodes[u].phase == nodes[v].phase {
					if allowSamePhase {
						continue
					}
					return nil, fmt.Errorf(
						"syncplan: schedule not contention-free: %v and %v share a link in phase %d",
						nodes[u].msg, nodes[v].msg, nodes[u].phase)
				}
				if !succ[u][v] {
					succ[u][v] = true
					conflictPairs++
				}
			}
		}
	}

	// Transitive reduction. Process candidates in decreasing phase gap so
	// that reachability via shorter dependencies is available; since the DAG
	// is leveled by phase, a DFS that avoids the candidate edge itself
	// decides redundancy. For efficiency, compute reachability per node with
	// memoized bitsets over the (phase-ordered) node indices.
	reach := make([][]uint64, len(nodes))
	words := (len(nodes) + 63) / 64
	var computeReach func(u int)
	computeReach = func(u int) {
		if reach[u] != nil {
			return
		}
		r := make([]uint64, words)
		// Mark direct successors, then fold in their reachability.
		// Keep only non-redundant edges: we compute on the reduced graph as
		// it is being built, which is valid because we reduce edges in
		// topological order from the last node backward.
		for v := range succ[u] {
			r[v/64] |= 1 << (v % 64)
			computeReach(v)
			for w := range r {
				r[w] |= reach[v][w]
			}
		}
		reach[u] = r
	}

	// Reduce: for each node u (backward), drop successors v reachable
	// through another successor.
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return nodes[order[a]].phase > nodes[order[b]].phase
	})
	plan := &Plan{ConflictPairs: conflictPairs}
	for _, u := range order {
		// Successors of u sorted by phase ascending; a successor v is
		// redundant if some other kept successor w (with earlier phase than
		// v) reaches v.
		vs := make([]int, 0, len(succ[u]))
		for v := range succ[u] {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(a, b int) bool {
			return nodes[vs[a]].phase < nodes[vs[b]].phase
		})
		kept := make([]int, 0, len(vs))
		for _, v := range vs {
			redundant := false
			for _, w := range kept {
				computeReach(w)
				if reach[w][v/64]&(1<<(v%64)) != 0 {
					redundant = true
					break
				}
			}
			if !redundant {
				kept = append(kept, v)
			}
		}
		// Replace successor set with the kept edges only, so reachability
		// computed later (for earlier nodes) uses the reduced graph —
		// reachability is unchanged by removing transitive edges.
		succ[u] = make(map[int]bool, len(kept))
		for _, v := range kept {
			succ[u][v] = true
			plan.Syncs = append(plan.Syncs, Sync{After: nodes[u].msg, Before: nodes[v].msg})
		}
	}

	sort.Slice(plan.Syncs, func(a, b int) bool {
		x, y := plan.Syncs[a], plan.Syncs[b]
		if x.After != y.After {
			if x.After.Src != y.After.Src {
				return x.After.Src < y.After.Src
			}
			return x.After.Dst < y.After.Dst
		}
		if x.Before.Src != y.Before.Src {
			return x.Before.Src < y.Before.Src
		}
		return x.Before.Dst < y.Before.Dst
	})
	return plan, nil
}
