package collect

import (
	"fmt"
	"sort"
	"strings"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
)

// Flow statistics and Gantt charts: a run drawn from its send events, each
// rank's flows in flight from post to completion. A flow is one send; a
// control flow is a control-sized send (mpi.ControlSizeMax: the scheduled
// algorithm's 1-byte synchronization messages), so a run's control-flow
// count is its sync-message count. Receive, barrier, phase and syncwait
// events carry no flow of their own.

// FlowStats summarizes the flows of a run.
type FlowStats struct {
	// DataFlows and ControlFlows partition the sends by mpi.ControlSizeMax.
	DataFlows    int
	ControlFlows int
	// DataBytes is the payload volume moved by data flows.
	DataBytes int
	// MaxConcurrentData is the peak number of simultaneously active data
	// flows.
	MaxConcurrentData int
}

// Flows computes the flow statistics of a run's events.
func Flows(events []obsv.Event) FlowStats {
	var st FlowStats
	type edge struct {
		at    float64
		delta int
	}
	var edges []edge
	for _, e := range events {
		if e.Kind != obsv.KindSend {
			continue
		}
		if e.Bytes <= mpi.ControlSizeMax {
			st.ControlFlows++
			continue
		}
		st.DataFlows++
		st.DataBytes += e.Bytes
		edges = append(edges, edge{e.Start, 1}, edge{e.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // process ends before starts at ties
	})
	cur := 0
	for _, e := range edges {
		cur += e.delta
		st.MaxConcurrentData = max(st.MaxConcurrentData, cur)
	}
	return st
}

// Gantt renders a per-sender timeline of a run's data flows: one row per
// rank, time bucketed into width columns. Each cell shows the destination
// of the flow in flight ('0'-'9', 'a'-'z' beyond 9, '#' beyond 35, '*' when
// several overlap, '.' when idle). ranks, when larger than any rank the
// sends name, pins the world size so idle ranks keep their rows; a smaller
// (or zero) count is ignored in favor of the inferred one.
func Gantt(events []obsv.Event, ranks, width int) string {
	if width < 10 {
		width = 60
	}
	var end float64
	var sends []obsv.Event
	for _, e := range events {
		if e.Kind == obsv.KindSend && e.Rank >= 0 && e.Peer >= 0 {
			sends = append(sends, e)
			ranks = max(ranks, e.Rank+1, e.Peer+1)
			end = max(end, e.End)
		}
	}
	if end == 0 || ranks == 0 {
		return "(empty timeline)\n"
	}
	rows := make([][]byte, ranks)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	mark := func(dst int) byte {
		switch {
		case dst < 10:
			return byte('0' + dst)
		case dst < 36:
			return byte('a' + dst - 10)
		default:
			return '#'
		}
	}
	for _, e := range sends {
		if e.Bytes <= mpi.ControlSizeMax {
			continue
		}
		lo := max(int(e.Start/end*float64(width)), 0)
		hi := min(int(e.End/end*float64(width)), width-1)
		for x := lo; x <= hi; x++ {
			if rows[e.Rank][x] == '.' {
				rows[e.Rank][x] = mark(e.Peer)
			} else {
				rows[e.Rank][x] = '*'
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "sender timeline over %.3f ms (columns of %.3f ms; cells name the destination)\n",
		end*1e3, end/float64(width)*1e3)
	for rank, row := range rows {
		fmt.Fprintf(&sb, "rank %2d |%s|\n", rank, row)
	}
	return sb.String()
}
