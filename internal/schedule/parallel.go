package schedule

import (
	"runtime"
	"sync"

	"github.com/aapc-sched/aapcsched/internal/topology"
)

// BuildGreedyParallel constructs a contention-free phased schedule with a
// first-fit greedy heuristic: messages are considered in row-major order and
// each is placed into the earliest phase where its path shares no directed
// link with the messages already there.
//
// The greedy schedule satisfies conditions 1 and 2 of the Theorem (coverage
// and contention freedom) but generally needs more phases than the AAPC
// load; it serves as the ablation baseline that quantifies what the paper's
// construction buys.
//
// The phase-probe inner loop is fanned out across a worker pool; the output
// is byte-for-byte identical to the sequential first-fit builder kept in
// the tests as the reference (the equivalence is pinned by a testing/quick
// property).
//
// Messages are processed in row-major order, but in batches: the
// workers probe a batch's messages concurrently against the edge-usage
// bitsets as of the batch start (reads only), then the coordinator commits
// the batch in message order. Placements only ever add usage, so a
// message's true first-fit phase can never be *earlier* than its
// speculative probe — the commit just re-scans forward from the speculative
// phase, which is a no-op unless a batch-earlier message collided with it.
// That keeps the expensive probing parallel and the serial section to a
// handful of word operations per message, while the result stays exactly
// first-fit in the canonical order.
//
// The probe itself uses per-edge phase bitsets (see edgeUsage): first-fit
// is "first zero bit of the OR of the path's rows", 64 phases per word,
// which is also what makes the serial path here much faster than a
// phase-major scan at large N.
//
// workers <= 0 uses GOMAXPROCS; workers == 1 runs fully serial.
func BuildGreedyParallel(g *topology.Graph, workers int) *Schedule {
	n := g.NumMachines()
	s := &Schedule{NumRanks: n}
	if n < 2 {
		return s
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	idx := g.NewEdgeIndex()
	// Greedy lands within a few percent of the AAPC load on realistic
	// trees; leave headroom so growth is rare.
	u := newEdgeUsage(idx.Len(), g.AAPCLoad()*5/4+64)

	type msg struct {
		src, dst int
		path     []int32
		phase    int
	}
	// Row-major message order.
	msgs := make([]msg, 0, n*(n-1))
	for src := 0; src < n; src++ {
		for off := 1; off < n; off++ {
			msgs = append(msgs, msg{src: src, dst: (src + off) % n})
		}
	}

	const batchSize = 256
	if workers > batchSize {
		workers = batchSize
	}
	var wg sync.WaitGroup
	arena := make([]int32, 0, 64) // serial-path scratch
	for lo := 0; lo < len(msgs); lo += batchSize {
		hi := lo + batchSize
		if hi > len(msgs) {
			hi = len(msgs)
		}
		batch := msgs[lo:hi]
		if workers > 1 && u.numPhases >= 4096 {
			// Parallel speculative probe: worker w handles messages
			// w, w+workers, ... of the batch. Each result is keyed to
			// its message index and re-validated serially in message
			// order below, so worker interleaving cannot reach the
			// output.
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var buf []int32
					for i := w; i < len(batch); i += workers {
						m := &batch[i]
						buf = g.AppendPathEdgeIDs(idx, g.MachineID(m.src), g.MachineID(m.dst), buf[:0])
						m.path = append([]int32(nil), buf...)
						m.phase = u.firstFree(m.path, 0)
					}
				}(w)
			}
			wg.Wait()
		} else {
			for i := range batch {
				m := &batch[i]
				arena = g.AppendPathEdgeIDs(idx, g.MachineID(m.src), g.MachineID(m.dst), arena[:0])
				m.path = append([]int32(nil), arena...)
				m.phase = u.firstFree(m.path, 0)
			}
		}
		// Serial commit in message order. Re-scanning from the
		// speculative phase is exact: every phase below it was already
		// occupied at batch start and occupancy only grows.
		for i := range batch {
			m := &batch[i]
			p := u.firstFree(m.path, m.phase)
			u.set(m.path, p)
			m.phase = p
		}
	}

	for _, m := range msgs {
		for len(s.Phases) <= m.phase {
			s.Phases = append(s.Phases, nil)
		}
		s.Phases[m.phase] = append(s.Phases[m.phase], Message{Src: m.src, Dst: m.dst})
	}
	s.normalize()
	return s
}
