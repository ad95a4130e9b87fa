// Package syncplan computes the pair-wise synchronizations that preserve a
// contention-free AAPC schedule at run time (Section 5 of Faraj & Yuan,
// IPPS 2005).
//
// Separating phases with barriers preserves the schedule but pays a full
// synchronization per phase. The paper instead synchronizes only where it
// matters: when message a->b in phase p and message c->d in a later phase q
// would contend on some directed link, node a sends a small synchronization
// message to node c after completing a->b, and c delays c->d until that
// message arrives. Synchronizations implied by others (transitively) are
// redundant and removed, minimizing the number of extra messages.
//
// The plan is the transitive reduction of the conflict DAG, computed without
// enumerating the conflicts. Contention freedom makes one directed link's
// users a total order by phase, so all ordered pairs of them are the
// transitive closure of the link's chain of consecutive users, and a DAG's
// transitive reduction depends only on its closure. Reducing the chains
// (M·L edges for M messages of path length at most L) gives the plan that
// reducing every conflicting pair would (about 115 000 pairs at 32 machines).
package syncplan

import (
	"fmt"
	"slices"

	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// Sync orders two data messages of the schedule: After (in an earlier phase)
// must complete before Before (in a later phase) may start. At run time the
// source of After sends a small control message to the source of Before.
type Sync struct {
	// After is the message that must finish first.
	After schedule.Message
	// Before is the message that must wait.
	Before schedule.Message
}

// MarshalJSON renders the sync as its two messages in the schedule's pair
// form, [after.src,after.dst,before.src,before.dst].
func (s Sync) MarshalJSON() ([]byte, error) {
	return schedule.Phase{s.After, s.Before}.MarshalJSON()
}

// UnmarshalJSON parses the form MarshalJSON renders; null leaves the sync
// as it is. It allocates nothing unless the input is malformed.
func (s *Sync) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var buf [2]schedule.Message
	ms, err := schedule.AppendMessagePairs(buf[:0], data)
	if err != nil {
		return err
	}
	if len(ms) != 2 {
		return fmt.Errorf("syncplan: a sync is two messages, got %d", len(ms))
	}
	s.After, s.Before = ms[0], ms[1]
	return nil
}

// Plan is the synchronization plan for one schedule: the minimal set of
// pair-wise orderings that prevents any two link-sharing messages from
// different phases from overlapping.
type Plan struct {
	// Syncs lists the required synchronizations, sorted by (After, Before).
	Syncs []Sync
	// ConflictPairs is the number of cross-phase conflicting message pairs
	// before redundancy elimination (the dependence-graph edge count the
	// naive all-pairs construction would synchronize). It is counted, not
	// enumerated: two paths in a tree share one contiguous subpath, so a pair
	// sharing k directed links shares the k-1 transitions between them, and
	// Σ over links of C(users, 2) minus Σ over transitions of C(users, 2)
	// counts every link-sharing pair once (same-phase pairs, legitimate only
	// on a fast link, are left out of both sums).
	ConflictPairs int
}

// NumSyncs returns the number of synchronization messages the plan inserts.
func (p *Plan) NumSyncs() int { return len(p.Syncs) }

// Build computes the synchronization plan for a schedule on a topology.
//
// Construction: every ordered pair of messages crossing one directed link in
// different phases is a conflict. Each message depends directly only on its
// successor in every link's phase chain, which has the same closure, hence
// the same (unique: phases order the DAG) transitive reduction. Messages are
// reduced backward in phase order, each keeping a chain successor as a
// synchronization unless a successor it kept before already reaches it.
//
// A phase may put as many messages on a directed link as the link's speed
// (schedule.VerifyCapacity's rule): one on a standard or slower link, which
// is the paper's contention freedom, and up to k on a k× link, whose
// same-phase users need no mutual ordering. A schedule that puts more on a
// link is rejected.
//
// Cost, for M messages with paths of at most L links: O(M·L) to walk the
// paths, index each link's users, count ConflictPairs and list the chains;
// O(M·L·M/64) word operations and M²/8 bytes of bitsets to reduce them.
func Build(g *topology.Graph, s *schedule.Schedule) (*Plan, error) {
	n, idx, numMsgs := g.NumMachines(), g.NewEdgeIndex(), s.NumMessages()

	// Messages get dense indices in phase order; message i crosses the links
	// path[bound[i]:bound[i+1]], in path order.
	msgs, phase, bound := make([]schedule.Message, 0, numMsgs), make([]int32, 0, numMsgs), make([]int32, 1, numMsgs+1)
	var path []int32
	seen := make([]bool, n*n)
	for pi, p := range s.Phases {
		for _, m := range p {
			path = g.AppendPathEdgeIDs(idx, g.MachineID(m.Src), g.MachineID(m.Dst), path)
			if seen[m.Src*n+m.Dst] {
				return nil, fmt.Errorf("syncplan: message %v scheduled twice", m)
			}
			seen[m.Src*n+m.Dst] = true
			msgs, phase, bound = append(msgs, m), append(phase, int32(pi)), append(bound, int32(len(path)))
		}
	}

	// users[off[e]:off[e+1]] are the messages crossing directed link e, in
	// phase order; next[k] is the link users[k] crosses after e (-1 at its
	// destination), and at[j] is where path[j] sits in users.
	numLinks := idx.Len()
	off := make([]int32, numLinks+1)
	for _, e := range path {
		off[e+1]++
	}
	for e := range numLinks {
		off[e+1] += off[e]
	}
	users, next, at := make([]int32, len(path)), make([]int32, len(path)), make([]int32, len(path))
	fill := slices.Clone(off)
	for i := range msgs {
		for j := bound[i]; j < bound[i+1]; j++ {
			k := fill[path[j]]
			fill[path[j]]++
			users[k], next[k], at[j] = int32(i), -1, k
			if j+1 < bound[i+1] {
				next[k] = path[j+1]
			}
		}
	}

	// Count ConflictPairs (see Plan): per link, the cross-phase pairs of its
	// users less those that continue on the same next link. cnt[x] counts the
	// link's users so far that continue on x, cnt[numLinks+x] those of them in
	// the current phase.
	pairs := 0
	cnt := make([]int32, 2*numLinks)
	for e := range numLinks {
		us, nx := users[off[e]:off[e+1]], next[off[e]:off[e+1]]
		group := 0 // first user of the current phase
		for i, u := range us {
			if i > 0 && phase[u] == phase[us[i-1]] {
				if sharing, speed := i-group+1, g.LinkSpeed(idx.Edge(e)); float64(sharing) > speed {
					if sharing == 2 {
						return nil, fmt.Errorf(
							"syncplan: schedule not contention-free: %v and %v share a link in phase %d",
							msgs[us[i-1]], msgs[u], phase[u])
					}
					return nil, fmt.Errorf(
						"syncplan: schedule exceeds link capacity: %v is message %d on a link of speed %g in phase %d",
						msgs[u], sharing, speed, phase[u])
				}
			} else if i > 0 {
				for _, x := range nx[group:i] {
					if x >= 0 {
						cnt[numLinks+int(x)] = 0
					}
				}
				group = i
			}
			pairs += group // the earlier users in earlier phases
			if x := nx[i]; x >= 0 {
				pairs -= int(cnt[x] - cnt[numLinks+int(x)])
				cnt[x]++
				cnt[numLinks+int(x)]++
			}
		}
		for _, x := range nx {
			if x >= 0 {
				cnt[x], cnt[numLinks+int(x)] = 0, 0
			}
		}
	}

	// Reduce backward in index order, so a successor's reach is final when it
	// is read; row u of reach is what u's kept successors reach. The chain
	// successors of u are, on each link of its path, the users of the next
	// phase after u's (one user on a standard link, up to its speed on a fast
	// one); sorted, they come in phase order. A kept sync is After<<32 | Before
	// over the keys Src*n+Dst, which sort as Plan.Syncs.
	words := (len(msgs) + 63) / 64
	reach := make([]uint64, len(msgs)*words)
	var succ []int32
	var kept []uint64
	key := func(m schedule.Message) uint64 { return uint64(m.Src*n + m.Dst) }
	for u := len(msgs) - 1; u >= 0; u-- {
		succ = succ[:0]
		for j := bound[u]; j < bound[u+1]; j++ {
			k, last := at[j]+1, off[path[j]+1]
			for k < last && phase[users[k]] == phase[u] {
				k++
			}
			for q := k; q < last && phase[users[q]] == phase[users[k]]; q++ {
				succ = append(succ, users[q])
			}
		}
		slices.Sort(succ)
		ru := reach[u*words : (u+1)*words]
		for _, v := range succ {
			if ru[v>>6]&(1<<(v&63)) != 0 {
				continue // a kept successor reaches v, or v was kept already
			}
			ru[v>>6] |= 1 << (v & 63)
			rv := reach[int(v)*words : (int(v)+1)*words]
			for w := v >> 6; w < int32(words); w++ {
				ru[w] |= rv[w]
			}
			kept = append(kept, key(msgs[u])<<32|key(msgs[v]))
		}
	}

	slices.Sort(kept)
	plan := &Plan{Syncs: slices.Grow([]Sync(nil), len(kept)), ConflictPairs: pairs}
	for _, k := range kept {
		a, b := int(k>>32), int(k&(1<<32-1))
		plan.Syncs = append(plan.Syncs, Sync{After: schedule.Message{Src: a / n, Dst: a % n}, Before: schedule.Message{Src: b / n, Dst: b % n}})
	}
	return plan, nil
}

// ByAfter groups the plan's synchronizations by their After message: the
// control messages a sender must emit when a given data message completes.
func (p *Plan) ByAfter() map[schedule.Message][]schedule.Message {
	out := make(map[schedule.Message][]schedule.Message)
	for _, s := range p.Syncs {
		out[s.After] = append(out[s.After], s.Before)
	}
	return out
}

// ByBefore groups the plan's synchronizations by their Before message: the
// control messages a sender must collect before starting a data message.
func (p *Plan) ByBefore() map[schedule.Message][]schedule.Message {
	out := make(map[schedule.Message][]schedule.Message)
	for _, s := range p.Syncs {
		out[s.Before] = append(out[s.Before], s.After)
	}
	return out
}
