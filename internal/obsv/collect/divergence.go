package collect

import (
	"fmt"
	"math"
	"sort"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// Sim-vs-real divergence: price the same schedule in the fluid simulator
// and flag the links whose measured message latencies exceed the
// contention-free prediction by more than the run's norm.
//
// The two time bases are incommensurable — wall microseconds on a loopback
// run versus simulated milliseconds at modeled link speeds — so raw ratios
// mean nothing. What is comparable is the SHAPE: in a healthy run every
// message's measured/predicted ratio sits near one common scale (the median
// ratio). A slow link bends its messages away from that scale, so flagging
// ratio > Factor × median localizes the anomaly without calibrating either
// clock. A link is named only when most of the data messages crossing it
// diverge (LinkFraction): a message through a healthy link behind one slow
// sender diverges too, but on the healthy link it is the minority.
//
// Both sides are recorded runs: the prediction is the simulator's run of
// the same schedule, instrumented like any transport. Control-sized
// messages (mpi.ControlSizeMax) are left out: their duration is dominated
// by per-message overheads the fluid model does not price.

// DivergenceOptions tunes the flagging thresholds.
type DivergenceOptions struct {
	// Factor flags a message when measured/predicted exceeds Factor times
	// the run's median ratio. <= 0 defaults to 3.
	Factor float64
	// LinkFraction flags a link when at least this fraction of the data
	// messages crossing it are flagged. <= 0 defaults to 0.75.
	LinkFraction float64
	// MinExcess gates flagging on the message's absolute excess over the
	// scaled prediction exceeding this fraction of the run's makespan.
	// Ratios alone cannot separate harm from noise: on a loopback run a
	// microsecond-scale message stretched to 300µs by a scheduler hiccup
	// shows an enormous ratio while costing the run nothing. <= 0 defaults
	// to 0.01 (1% of makespan).
	MinExcess float64
}

// MsgDivergence is one matched message's measured-vs-predicted comparison.
type MsgDivergence struct {
	Src       int     `json:"src"`
	Dst       int     `json:"dst"`
	Phase     int     `json:"phase"`
	Measured  float64 `json:"measured"`
	Predicted float64 `json:"predicted"`
	// Excess is measured minus the scaled prediction: the wall time this
	// message cost beyond what the model priced.
	Excess float64 `json:"excess"`
	// Ratio is measured/predicted normalized by the run scale; ~1 means
	// the message behaved like the run at large.
	Ratio   float64 `json:"ratio"`
	Flagged bool    `json:"flagged,omitempty"`
}

// LinkDivergence aggregates flagged messages per topology link.
type LinkDivergence struct {
	Link      string `json:"link"`
	U         int    `json:"u"`
	V         int    `json:"v"`
	Diverging int    `json:"diverging"`
	Crossing  int    `json:"crossing"`
	Flagged   bool   `json:"flagged,omitempty"`
}

// DivergenceReport compares one measured trace against a predicted one.
type DivergenceReport struct {
	// Scale is the median measured/predicted ratio — the factor relating
	// the two time bases for this run.
	Scale        float64          `json:"scale"`
	Factor       float64          `json:"factor"`
	LinkFraction float64          `json:"link_fraction"`
	Matched      int              `json:"matched"`
	Unmatched    int              `json:"unmatched"`
	Messages     []MsgDivergence  `json:"messages,omitempty"`
	Links        []LinkDivergence `json:"links,omitempty"`
}

// FlaggedLinks returns the names of the links the report flags.
func (d *DivergenceReport) FlaggedLinks() []string {
	var out []string
	for _, l := range d.Links {
		if l.Flagged {
			out = append(out, l.Link)
		}
	}
	return out
}

// Divergence matches the trace's data messages against the predicted
// run's (the same schedule recorded in the simulator) and flags diverging
// links. The k-th data message of each (src, dst) pair in the trace is
// matched with the pair's k-th predicted message, both in sender program
// order: MPI sends between a pair are non-overtaking. A measured message
// lasts from its send's start to its delivery; a predicted one from the
// rendezvous (the later of the send and receive posts) to its delivery. g
// may be nil (messages are still compared; no link attribution).
func Divergence(spans []Span, predicted []obsv.Event, g *topology.Graph, opt DivergenceOptions) *DivergenceReport {
	if opt.Factor <= 0 {
		opt.Factor = 3
	}
	if opt.LinkFraction <= 0 {
		opt.LinkFraction = 0.75
	}
	if opt.MinExcess <= 0 {
		opt.MinExcess = 0.01
	}
	rep := &DivergenceReport{Factor: opt.Factor, LinkFraction: opt.LinkFraction}

	meas := dataMessages(spans)
	pred := dataMessages(Merge([][]obsv.Event{predicted}, nil))

	// Match k-th with k-th, deterministically over pairs.
	pairs := make([]pair, 0, len(meas))
	for p := range meas {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].src != pairs[j].src {
			return pairs[i].src < pairs[j].src
		}
		return pairs[i].dst < pairs[j].dst
	})
	var ratios []float64
	for _, p := range pairs {
		ms, ps := meas[p], pred[p]
		n := min(len(ms), len(ps))
		rep.Unmatched += len(ms) - n
		for k := 0; k < n; k++ {
			measured := ms[k].recv.effEnd() - ms[k].send.GStart
			predicted := ps[k].recv.GDeliver - math.Max(ps[k].send.GStart, ps[k].recv.GStart)
			if predicted <= 0 || measured <= 0 {
				rep.Unmatched++
				continue
			}
			rep.Matched++
			rep.Messages = append(rep.Messages, MsgDivergence{
				Src: p.src, Dst: p.dst, Phase: ms[k].send.Phase,
				Measured: measured, Predicted: predicted,
				Ratio: measured / predicted,
			})
			ratios = append(ratios, measured/predicted)
		}
	}
	if len(ratios) == 0 {
		return rep
	}

	// Scale = median raw ratio; then normalize and flag.
	sorted := append([]float64(nil), ratios...)
	sort.Float64s(sorted)
	rep.Scale = sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		rep.Scale = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	span := makespan(spans) // for the absolute-excess gate
	for i := range rep.Messages {
		m := &rep.Messages[i]
		m.Ratio /= rep.Scale
		m.Excess = m.Measured - rep.Scale*m.Predicted
		m.Flagged = m.Ratio > opt.Factor && m.Excess >= opt.MinExcess*span
	}

	if g == nil {
		return rep
	}
	type linkAcc struct {
		crossing  int
		diverging int
	}
	// Divergence keeps edges DIRECTED (unlike the phase-stat latency
	// aggregation): Ethernet links are full duplex and a failing NIC or
	// queue slows one direction. Folding directions together would let a
	// slow uplink hide behind the healthy traffic flowing back down it.
	accs := make(map[topology.Edge]*linkAcc)
	for i := range rep.Messages {
		m := &rep.Messages[i]
		for _, e := range rankPath(g, m.Src, m.Dst) {
			a := accs[e]
			if a == nil {
				a = &linkAcc{}
				accs[e] = a
			}
			a.crossing++
			if m.Flagged {
				a.diverging++
			}
		}
	}
	edges := make([]topology.Edge, 0, len(accs))
	for e := range accs {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for _, e := range edges {
		a := accs[e]
		ld := LinkDivergence{
			Link: fmt.Sprintf("%s>%s", g.Node(e.U).Name, g.Node(e.V).Name), U: e.U, V: e.V,
			Diverging: a.diverging, Crossing: a.crossing,
			Flagged: a.crossing > 0 && float64(a.diverging) >= opt.LinkFraction*float64(a.crossing),
		}
		rep.Links = append(rep.Links, ld)
	}
	return rep
}

// pair is a directed (sender, receiver) rank pair.
type pair struct{ src, dst int }

// message is one linked data message: the sender's span and the
// receiver's.
type message struct {
	send, recv *Span
}

// dataMessages links every data-sized receive to its send and groups the
// messages by rank pair, each pair in sender program order. Control-sized
// messages, self-messages and unlinked receives are left out.
func dataMessages(spans []Span) map[pair][]message {
	index := make(map[spanKey]*Span, len(spans))
	for i := range spans {
		sp := &spans[i]
		index[spanKey{sp.Rank, sp.Seq}] = sp
	}
	out := make(map[pair][]message)
	for i := range spans {
		sp := &spans[i]
		if sp.Kind != obsv.KindRecv || sp.LinkSeq == 0 || sp.Bytes <= mpi.ControlSizeMax {
			continue
		}
		send := index[spanKey{sp.Peer, sp.LinkSeq}]
		if send == nil || send.Rank == sp.Rank {
			continue
		}
		p := pair{send.Rank, sp.Rank}
		out[p] = append(out[p], message{send: send, recv: sp})
	}
	for _, list := range out {
		sort.Slice(list, func(i, j int) bool { return list[i].send.Seq < list[j].send.Seq })
	}
	return out
}

// rankPath is the topology path between two ranks; nil when either is not
// a machine of g (a trace recorded on a larger cluster than the graph the
// collector holds).
func rankPath(g *topology.Graph, src, dst int) []topology.Edge {
	if n := g.NumMachines(); src < 0 || dst < 0 || src >= n || dst >= n {
		return nil
	}
	return g.PathBetweenRanks(src, dst)
}
