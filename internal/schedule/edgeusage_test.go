package schedule

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/aapc-sched/aapcsched/internal/topology"
)

// TestQuickEdgeUsageMatchesScan drives edgeUsage with random paths and
// phases against a plain per-edge occupancy table: every probe, from every
// start phase, must return the first phase the scan finds free. Runs of
// consecutive phases saturate single edges, so the per-edge skip past full
// words is exercised, and phases beyond the initial capacity force grow.
func TestQuickEdgeUsageMatchesScan(t *testing.T) {
	prop := func(seed int64, edges, phaseCap uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ne := int(edges%12) + 1
		u := newEdgeUsage(ne, int(phaseCap))
		used := make([][]bool, ne) // used[e][p]: phase p occupies edge e
		isUsed := func(e int32, p int) bool { return p < len(used[e]) && used[e][p] }
		randomPath := func() []int32 {
			var path []int32
			for e := 0; e < ne; e++ {
				if rng.Intn(3) == 0 {
					path = append(path, int32(e))
				}
			}
			if len(path) == 0 {
				path = append(path, int32(rng.Intn(ne)))
			}
			return path
		}
		scan := func(path []int32, from int) int {
			for p := from; ; p++ {
				free := true
				for _, e := range path {
					free = free && !isUsed(e, p)
				}
				if free {
					return p
				}
			}
		}
		mark := func(path []int32, p int) {
			u.set(path, p)
			for _, e := range path {
				for len(used[e]) <= p {
					used[e] = append(used[e], false)
				}
				used[e][p] = true
			}
		}
		for op := 0; op < 400; op++ {
			path := randomPath()
			from := rng.Intn(u.numPhases + 2)
			if want, got := scan(path, from), u.firstFree(path, from); got != want {
				t.Logf("op %d: firstFree(%v, %d) = %d, scan finds %d", op, path, from, got, want)
				return false
			}
			switch rng.Intn(4) {
			case 0: // saturate one edge over a run of phases
				e := []int32{int32(rng.Intn(ne))}
				for n, p := rng.Intn(150), 0; n > 0; n-- {
					p = scan(e, p)
					mark(e, p)
				}
			case 1: // a far phase, past the current capacity
				mark(path, u.numPhases+rng.Intn(200))
			default: // first fit
				mark(path, scan(path, 0))
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// rescheduleByScan is Reschedule written plainly: survivors keep their old
// phase, then each message incident to an added rank, in (src, dst) order,
// takes the first phase where no message shares a directed link with it,
// and empty phases are dropped.
func rescheduleByScan(old *Schedule, newG *topology.Graph, rd *topology.RankDelta) *Schedule {
	n := rd.NumNew
	idx := newG.NewEdgeIndex()
	phases := make([]Phase, len(old.Phases))
	busy := make([]map[int32]bool, len(old.Phases))
	for p := range busy {
		busy[p] = make(map[int32]bool)
	}
	add := func(p int, m Message) {
		if p == len(phases) {
			phases = append(phases, nil)
			busy = append(busy, make(map[int32]bool))
		}
		phases[p] = append(phases[p], m)
		for _, e := range newG.AppendPathEdgeIDs(idx, newG.MachineID(m.Src), newG.MachineID(m.Dst), nil) {
			busy[p][e] = true
		}
	}
	for pi, p := range old.Phases {
		for _, m := range p {
			if ns, nd := rd.OldToNew[m.Src], rd.OldToNew[m.Dst]; ns >= 0 && nd >= 0 {
				add(pi, Message{Src: ns, Dst: nd})
			}
		}
	}
	added := make(map[int]bool)
	for _, r := range rd.Added {
		added[r] = true
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || !(added[src] || added[dst]) {
				continue
			}
			path := newG.AppendPathEdgeIDs(idx, newG.MachineID(src), newG.MachineID(dst), nil)
			p := 0
			for ; p < len(phases); p++ {
				free := true
				for _, e := range path {
					free = free && !busy[p][e]
				}
				if free {
					break
				}
			}
			add(p, Message{Src: src, Dst: dst})
		}
	}
	s := &Schedule{NumRanks: n}
	for _, p := range phases {
		if len(p) > 0 {
			s.Phases = append(s.Phases, p)
		}
	}
	s.normalize()
	return s
}

// TestQuickRescheduleMatchesScan: for random clusters and random feasible
// deltas, Reschedule's bitset first fit yields exactly the schedule of the
// plain phase-by-phase scan.
func TestQuickRescheduleMatchesScan(t *testing.T) {
	prop := func(seed int64, switches, machines uint) bool {
		g, rng := randomClusterFor(seed, switches, machines)
		old := BuildGreedy(g)
		newG, rd := applyRandomDelta(t, g, rng)
		got, err := Reschedule(old, newG, rd)
		if err != nil {
			t.Logf("Reschedule: %v", err)
			return false
		}
		if want := rescheduleByScan(old, newG, rd); !reflect.DeepEqual(got, want) {
			t.Logf("cluster:\n%sscan:\n%sReschedule:\n%s", newG.Format(), want, got)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestFirstFreeNoAllocs: the first-fit probe, the inner loop of greedy
// construction and of the daemon's incremental reschedule, allocates
// nothing, whether it scans blocks or skips saturated words.
func TestFirstFreeNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only hold without the race detector")
	}
	u := newEdgeUsage(8, 300)
	for p := 0; p < 200; p++ {
		u.set([]int32{0}, p) // saturates edge 0's first words
		u.set([]int32{int32(1 + p%3)}, p)
	}
	paths := [][]int32{{0}, {0, 1}, {1, 2}, {2, 3, 5}}
	sum := 0
	allocs := testing.AllocsPerRun(100, func() {
		for from := 0; from < 260; from += 13 {
			for _, path := range paths {
				sum += u.firstFree(path, from)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("firstFree: %v allocs per probe sweep, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("probes found nothing")
	}
}

// TestFirstFreePastLastPhase: a probe from at or past numPhases returns
// from itself, also when from's word lies past the bitsets (64 here,
// with one block of 64 phases).
func TestFirstFreePastLastPhase(t *testing.T) {
	u := newEdgeUsage(1, 0)
	u.set([]int32{0}, 62)
	for _, from := range []int{63, 64, 200} {
		if got := u.firstFree([]int32{0}, from); got != from {
			t.Errorf("firstFree(from %d) = %d, want %d", from, got, from)
		}
	}
}
