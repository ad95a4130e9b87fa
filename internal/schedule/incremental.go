package schedule

import (
	"fmt"

	"github.com/aapc-sched/aapcsched/internal/topology"
)

// Reschedule patches an existing contention-free schedule after an
// incremental topology change instead of recompiling from scratch.
//
// The tree structure makes this sound: adding or removing a leaf (machine
// join/leave) or pruning a subtree (switch failure) never changes the
// unique path between any two surviving machines, so every message between
// survivors stays exactly where it was — its phase slot is pinned and the
// pinned set remains contention-free by assumption. Only the messages
// incident to the affected machines need placement:
//
//   - messages with a removed endpoint are dropped (phases left empty by
//     departures are compacted away);
//   - messages with an added endpoint are first-fit placed against the
//     pinned occupancy, in sorted (src, dst) order, opening new phases only
//     when no existing phase has the whole path free.
//
// The result is contention-free by construction but generally not
// phase-optimal; first-fit keeps it within the greedy bound (a re-placed
// message lands in a phase no later than its path-conflict count). At
// N=512 a single join or leave patches in milliseconds where the greedy
// fallback takes tens of seconds — the steady-state path of the schedule
// daemon.
//
// old must cover rd.NumOld ranks and newG must have rd.NumNew machines,
// with rd produced by topology.ApplyDelta for the old->new transition.
func Reschedule(old *Schedule, newG *topology.Graph, rd *topology.RankDelta) (*Schedule, error) {
	if old.NumRanks != rd.NumOld {
		return nil, fmt.Errorf("schedule: Reschedule: schedule covers %d ranks, delta expects %d",
			old.NumRanks, rd.NumOld)
	}
	if got := newG.NumMachines(); got != rd.NumNew {
		return nil, fmt.Errorf("schedule: Reschedule: topology has %d machines, delta expects %d",
			got, rd.NumNew)
	}
	n := rd.NumNew
	s := &Schedule{NumRanks: n}
	if n < 2 {
		return s, nil
	}

	added := make([]bool, n)
	for _, r := range rd.Added {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("schedule: Reschedule: added rank %d out of range", r)
		}
		added[r] = true
	}
	// Every (src, dst) pair with at least one added endpoint must be
	// placed, in sorted (src, dst) order; everything between survivors is
	// pinned.
	newMsgs := make([]Message, 0, 2*len(rd.Added)*n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst && (added[src] || added[dst]) {
				newMsgs = append(newMsgs, Message{Src: src, Dst: dst})
			}
		}
	}

	// Remap the survivors into one flat array, phase by phase: pinned[
	// start[p]:start[p+1]] are old phase p's surviving messages.
	start := make([]int, len(old.Phases)+1)
	pinned := make([]Message, 0, old.NumMessages())
	for pi, p := range old.Phases {
		start[pi] = len(pinned)
		for _, m := range p {
			if m.Src < 0 || m.Src >= rd.NumOld || m.Dst < 0 || m.Dst >= rd.NumOld {
				return nil, fmt.Errorf("schedule: Reschedule: message %v out of old rank range", m)
			}
			ns, nd := rd.OldToNew[m.Src], rd.OldToNew[m.Dst]
			if ns < 0 || nd < 0 {
				continue // an endpoint left the cluster
			}
			pinned = append(pinned, Message{Src: ns, Dst: nd})
		}
	}
	start[len(old.Phases)] = len(pinned)

	// First-fit place the messages incident to the added machines against
	// the pinned occupancy. Pinned paths are unchanged by the delta, so
	// that occupancy stays contention-free. A pure departure places
	// nothing and needs no occupancy at all.
	numPhases := len(old.Phases)
	placed := make([]int, len(newMsgs))
	if len(newMsgs) > 0 {
		idx := newG.NewEdgeIndex()
		u := newEdgeUsage(idx.Len(), len(old.Phases)+len(newMsgs)+1)
		var path []int32
		for pi := range old.Phases {
			for _, m := range pinned[start[pi]:start[pi+1]] {
				path = newG.AppendPathEdgeIDs(idx, newG.MachineID(m.Src), newG.MachineID(m.Dst), path[:0])
				u.set(path, pi)
			}
		}
		if u.numPhases < numPhases {
			u.numPhases = numPhases
		}
		for i, m := range newMsgs {
			path = newG.AppendPathEdgeIDs(idx, newG.MachineID(m.Src), newG.MachineID(m.Dst), path[:0])
			p := u.firstFree(path, 0)
			u.set(path, p)
			placed[i] = p
		}
		numPhases = u.numPhases
	}

	// Lay the phases out in one backing array: each phase is its pinned
	// survivors followed by its placed messages. Phases emptied by
	// departures are compacted away.
	extra := make([]int, numPhases+1)
	for _, p := range placed {
		extra[p+1]++
	}
	for p := 1; p <= numPhases; p++ {
		extra[p] += extra[p-1] // extra[p] is now the offset of phase p's placed run
	}
	byPhase := make([]Message, len(newMsgs))
	fill := append([]int(nil), extra[:numPhases]...)
	for i, p := range placed {
		byPhase[fill[p]] = newMsgs[i]
		fill[p]++
	}
	all := make([]Message, 0, len(pinned)+len(newMsgs))
	for p := 0; p < numPhases; p++ {
		lo := len(all)
		if p < len(old.Phases) {
			all = append(all, pinned[start[p]:start[p+1]]...)
		}
		all = append(all, byPhase[extra[p]:extra[p+1]]...)
		if len(all) > lo {
			s.Phases = append(s.Phases, Phase(all[lo:len(all):len(all)]))
		}
	}
	s.normalize()
	return s, nil
}
