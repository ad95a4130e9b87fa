package collect

import (
	"fmt"
	"sort"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// Critical-path extraction and per-phase straggler attribution over the
// merged span DAG.
//
// The DAG has two edge families:
//
//   - timeline edges: on one rank, each span depends on the span whose
//     effect completed most recently before its own (effEnd order, NOT post
//     order: a receive pre-posted early and drained late would otherwise
//     sit "before" work that ran long after it was posted, letting the walk
//     jump forward in time);
//   - message edges: a linked receive (LinkSeq != 0) depends on the send
//     span (Peer, LinkSeq) on the sender's rank.
//
// The critical path is recovered backward from the span whose effect lands
// last. At each step the binding predecessor is whichever dependency held
// the span up longest. For a linked receive the message edge is binding
// when the time the rank sat waiting for the payload after its own work
// finished exceeds the head start the sender had — not merely when the
// delivery postdates the local predecessor: a rendezvous that completes a
// microsecond after this rank finally posted the receive is bound by the
// rank's own lateness, not by a sender that had been ready all along.
// Walking message edges hops ranks, which is exactly how a chain of
// sends/waits spanning the cluster — the thing that bounds the makespan —
// becomes visible from purely rank-local logs.

// spanKey names a span by its causal identity.
type spanKey struct {
	rank int
	seq  uint64
}

// CritStep is one span on the critical path, in global time.
type CritStep struct {
	Rank  int       `json:"rank"`
	Seq   uint64    `json:"seq"`
	Kind  obsv.Kind `json:"kind"`
	Peer  int       `json:"peer"`
	Phase int       `json:"phase"`
	Start float64   `json:"start"`
	End   float64   `json:"end"`
	// ViaLink marks a receive whose binding predecessor was the cross-rank
	// message edge: the path enters this rank through the wire here.
	ViaLink bool `json:"via_link,omitempty"`
}

// CriticalPath extracts the chain of spans bounding the makespan, ordered
// forward in time. Empty input yields an empty path.
func CriticalPath(spans []Span) []CritStep {
	if len(spans) == 0 {
		return nil
	}
	index := make(map[spanKey]*Span, len(spans))
	// prev[key] is the same-rank timeline predecessor: the span whose
	// effect completed most recently before this one's (ties by Seq).
	prev := make(map[spanKey]*Span, len(spans))
	perRank := make(map[int][]*Span)
	for i := range spans {
		sp := &spans[i]
		index[spanKey{sp.Rank, sp.Seq}] = sp
		perRank[sp.Rank] = append(perRank[sp.Rank], sp)
	}
	for _, list := range perRank {
		sort.Slice(list, func(i, j int) bool {
			if list[i].effEnd() != list[j].effEnd() {
				return list[i].effEnd() < list[j].effEnd()
			}
			return list[i].Seq < list[j].Seq
		})
		for i := 1; i < len(list); i++ {
			prev[spanKey{list[i].Rank, list[i].Seq}] = list[i-1]
		}
	}

	// Start from the span whose EFFECT happens last on the common timebase
	// (effEnd, not GEnd: a request drained late at the end of the run would
	// otherwise win on an artifact of drain order).
	cur := &spans[0]
	for i := range spans {
		if spans[i].effEnd() > cur.effEnd() {
			cur = &spans[i]
		}
	}

	var path []CritStep
	visited := make(map[spanKey]bool)
	for steps := 0; cur != nil && steps <= len(spans); steps++ {
		key := spanKey{cur.Rank, cur.Seq}
		if visited[key] {
			break
		}
		visited[key] = true

		var msgPred *Span
		if cur.Kind == obsv.KindRecv && cur.LinkSeq != 0 {
			msgPred = index[spanKey{cur.Peer, cur.LinkSeq}]
		}
		localPred := prev[key]

		viaLink := false
		var next *Span
		switch {
		case msgPred != nil && localPred == nil:
			viaLink = true
			next = msgPred
		case msgPred != nil && cur.GDeliver > 0 &&
			cur.GDeliver-localPred.effEnd() > localPred.effEnd()-msgPred.GStart:
			// The rank waited on the payload longer than the sender's head
			// start: the wire (or the sender) was the binding constraint.
			// When the gap is dwarfed by how long the sender had already
			// been ready, the rank's own lateness binds instead.
			viaLink = true
			next = msgPred
		default:
			next = localPred
		}

		path = append(path, CritStep{
			Rank: cur.Rank, Seq: cur.Seq, Kind: cur.Kind, Peer: cur.Peer,
			Phase: cur.Phase, Start: cur.GStart, End: cur.effEnd(), ViaLink: viaLink,
		})
		cur = next
	}

	// Reverse into forward time order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// PhaseStat attributes one schedule phase's time: who entered late, who
// stayed longest, how much of the stall was synchronization versus
// transmission, and (with a topology) which link ran slowest. It is the
// repository's one phase analysis, for simulated and real runs alike.
type PhaseStat struct {
	Phase int `json:"phase"`
	// Ranks is how many ranks entered the phase (a rank with no sends in a
	// phase never enters it). Sends and Bytes count the phase's data sends
	// (control-sized sync messages excluded). The three are Go-side tallies
	// and stay out of the JSON report.
	Ranks int `json:"-"`
	Sends int `json:"-"`
	Bytes int `json:"-"`
	// EnterSkew is the spread between the first and last rank entering the
	// phase (MarkPhase spans).
	EnterSkew float64 `json:"enter_skew"`
	// FirstRank/LastRank entered earliest/latest.
	FirstRank int `json:"first_rank"`
	LastRank  int `json:"last_rank"`
	// SlowestRank spent the longest in the phase; Residence is its stay.
	SlowestRank int     `json:"slowest_rank"`
	Residence   float64 `json:"residence"`
	// SyncWait totals the ranks' recorded synchronization stalls in the
	// phase; Transmit totals the in-flight time (send start to delivery) of
	// the phase's data messages. Together they decompose where the phase's
	// waiting went.
	SyncWait float64 `json:"sync_wait"`
	Transmit float64 `json:"transmit"`
	// SlowestLink names the topology link whose crossing messages averaged
	// the highest latency ("u-v"); empty without a topology.
	SlowestLink        string  `json:"slowest_link,omitempty"`
	SlowestLinkLatency float64 `json:"slowest_link_latency,omitempty"`
}

// PhaseStats computes the per-phase attribution. A message belongs to the
// phase its SENDER recorded (receives are pre-posted before phases start,
// so the sender's phase is the schedule's truth). g may be nil.
func PhaseStats(spans []Span, g *topology.Graph) []PhaseStat {
	index := make(map[spanKey]*Span, len(spans))
	for i := range spans {
		sp := &spans[i]
		index[spanKey{sp.Rank, sp.Seq}] = sp
	}

	// entry[phase][rank] = global time the rank entered the phase.
	entry := make(map[int]map[int]float64)
	// exit[phase][rank] = entry into the rank's next phase, or its last
	// event end for the final phase.
	lastEnd := make(map[int]float64)
	rankPhases := make(map[int][]int) // phases in entry order per rank
	for i := range spans {
		sp := &spans[i]
		if sp.GEnd > lastEnd[sp.Rank] {
			lastEnd[sp.Rank] = sp.GEnd
		}
		if sp.Kind != obsv.KindPhase {
			continue
		}
		if entry[sp.Phase] == nil {
			entry[sp.Phase] = make(map[int]float64)
		}
		if _, dup := entry[sp.Phase][sp.Rank]; !dup {
			entry[sp.Phase][sp.Rank] = sp.GStart
			rankPhases[sp.Rank] = append(rankPhases[sp.Rank], sp.Phase)
		}
	}
	if len(entry) == 0 {
		return nil
	}

	type acc struct {
		sum   float64
		count int
	}
	syncWait := make(map[int]float64)
	transmit := make(map[int]float64)
	sends := make(map[int]int)
	sendBytes := make(map[int]int)
	linkLat := make(map[int]map[topology.Edge]*acc)
	for i := range spans {
		sp := &spans[i]
		switch sp.Kind {
		case obsv.KindSyncWait:
			syncWait[sp.Phase] += sp.GEnd - sp.GStart
		case obsv.KindSend:
			if sp.Bytes > mpi.ControlSizeMax {
				sends[sp.Phase]++
				sendBytes[sp.Phase] += sp.Bytes
			}
		case obsv.KindRecv:
			if sp.LinkSeq == 0 || sp.Bytes <= mpi.ControlSizeMax {
				continue
			}
			send := index[spanKey{sp.Peer, sp.LinkSeq}]
			if send == nil {
				continue
			}
			lat := sp.effEnd() - send.GStart
			transmit[send.Phase] += lat
			if g == nil || send.Rank == sp.Rank {
				continue
			}
			if linkLat[send.Phase] == nil {
				linkLat[send.Phase] = make(map[topology.Edge]*acc)
			}
			for _, e := range rankPath(g, send.Rank, sp.Rank) {
				// Canonicalize direction so both directions of a physical
				// link accumulate together.
				if e.U > e.V {
					e = e.Reverse()
				}
				a := linkLat[send.Phase][e]
				if a == nil {
					a = &acc{}
					linkLat[send.Phase][e] = a
				}
				a.sum += lat
				a.count++
			}
		}
	}

	phases := make([]int, 0, len(entry))
	for p := range entry {
		phases = append(phases, p)
	}
	sort.Ints(phases)

	out := make([]PhaseStat, 0, len(phases))
	for _, p := range phases {
		st := PhaseStat{Phase: p, Ranks: len(entry[p]), Sends: sends[p], Bytes: sendBytes[p],
			FirstRank: -1, LastRank: -1, SlowestRank: -1,
			SyncWait: syncWait[p], Transmit: transmit[p]}
		var minT, maxT float64
		for r, t := range entry[p] {
			if st.FirstRank == -1 || t < minT || (t == minT && r < st.FirstRank) {
				st.FirstRank, minT = r, t
			}
			if st.LastRank == -1 || t > maxT || (t == maxT && r < st.LastRank) {
				st.LastRank, maxT = r, t
			}
		}
		if st.FirstRank != -1 {
			st.EnterSkew = maxT - minT
		}
		// Residence: entry to next-phase entry (or last event) per rank.
		for r, t := range entry[p] {
			exit := lastEnd[r]
			seq := rankPhases[r]
			for i, ph := range seq {
				if ph == p && i+1 < len(seq) {
					exit = entry[seq[i+1]][r]
					break
				}
			}
			res := exit - t
			if st.SlowestRank == -1 || res > st.Residence || (res == st.Residence && r < st.SlowestRank) {
				st.SlowestRank, st.Residence = r, res
			}
		}
		// Slowest link by mean latency.
		var bestMean float64
		var bestEdge topology.Edge
		found := false
		// Deterministic edge order.
		edges := make([]topology.Edge, 0, len(linkLat[p]))
		for e := range linkLat[p] {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].U != edges[j].U {
				return edges[i].U < edges[j].U
			}
			return edges[i].V < edges[j].V
		})
		for _, e := range edges {
			a := linkLat[p][e]
			mean := a.sum / float64(a.count)
			if !found || mean > bestMean {
				found, bestMean, bestEdge = true, mean, e
			}
		}
		if found {
			st.SlowestLink = linkName(g, bestEdge)
			st.SlowestLinkLatency = bestMean
		}
		out = append(out, st)
	}
	return out
}

// linkName renders an edge with the topology's node names.
func linkName(g *topology.Graph, e topology.Edge) string {
	return fmt.Sprintf("%s-%s", g.Node(e.U).Name, g.Node(e.V).Name)
}
