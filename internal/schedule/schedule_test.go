package schedule

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/topology"
)

// fig1 reconstructs the example cluster of Fig. 1 (see topology tests for
// the wiring derivation). Machine ranks: n0..n5 = 0..5.
func fig1(t testing.TB) *topology.Graph {
	t.Helper()
	g, err := topology.ParseString(`
switches s0 s1 s2 s3
machines n0 n1 n2 n3 n4 n5
link s0 n0
link s0 n1
link s0 s2
link s2 n2
link s1 s0
link s1 s3
link s1 n5
link s3 n3
link s3 n4
`)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fig1Root(t testing.TB, g *topology.Graph) *topology.RootInfo {
	t.Helper()
	s1, ok := g.Lookup("s1")
	if !ok {
		t.Fatal("no s1")
	}
	ri, err := g.RootInfoAt(s1)
	if err != nil {
		t.Fatal(err)
	}
	return ri
}

// TestRingTable1 checks the ring schedule against Table 1 of the paper.
func TestRingTable1(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 8, 9, 24} {
		phases := Ring(k)
		if len(phases) != k-1 {
			t.Fatalf("k=%d: %d phases, want %d", k, len(phases), k-1)
		}
		// Table 1: phase d holds ti -> t(i+d+1 mod k) for every i.
		for d, p := range phases {
			if len(p) != k {
				t.Errorf("k=%d phase %d: %d messages, want %d", k, d, len(p), k)
			}
			for _, m := range p {
				if want := (m.Src + d + 1) % k; m.Dst != want {
					t.Errorf("k=%d phase %d: %v, want dst %d", k, d, m, want)
				}
			}
		}
		// Every pair exactly once; consistent with RingPhaseOf.
		seen := map[Message]bool{}
		for d, p := range phases {
			for _, m := range p {
				if seen[m] {
					t.Errorf("k=%d: duplicate %v", k, m)
				}
				seen[m] = true
				if got := RingPhaseOf(k, m.Src, m.Dst); got != d {
					t.Errorf("RingPhaseOf(%d, %d, %d) = %d, want %d", k, m.Src, m.Dst, got, d)
				}
			}
		}
		if len(seen) != k*(k-1) {
			t.Errorf("k=%d: %d messages, want %d", k, len(seen), k*(k-1))
		}
	}
}

// TestRotatePatternTable2 checks the rotate pattern against Table 2
// (|Mi| = 6, |Mj| = 4).
func TestRotatePatternTable2(t *testing.T) {
	got := RotatePattern(6, 4)
	want := []Pair{
		// phases 0-11: base sequence repeated twice, receivers cycling
		{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 0}, {5, 1},
		{0, 2}, {1, 3}, {2, 0}, {3, 1}, {4, 2}, {5, 3},
		// phases 12-23: rotated base sequence (1,2,3,4,5,0) repeated twice
		{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 0}, {0, 1},
		{1, 2}, {2, 3}, {3, 0}, {4, 1}, {5, 2}, {0, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RotatePattern(6, 4) mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestPatternsRealizeAllPairs checks that both schemes realize each of the
// mi*mj messages exactly once, for many size combinations.
func TestPatternsRealizeAllPairs(t *testing.T) {
	for mi := 1; mi <= 8; mi++ {
		for mj := 1; mj <= 8; mj++ {
			for name, pat := range map[string][]Pair{
				"broadcast": BroadcastPattern(mi, mj),
				"rotate":    RotatePattern(mi, mj),
			} {
				if len(pat) != mi*mj {
					t.Fatalf("%s(%d,%d): %d slots", name, mi, mj, len(pat))
				}
				seen := map[Pair]bool{}
				for _, pr := range pat {
					if seen[pr] {
						t.Errorf("%s(%d,%d): duplicate %v", name, mi, mj, pr)
					}
					seen[pr] = true
				}
			}
		}
	}
}

// TestLemma5Broadcast checks that each broadcast sender occupies |Mj|
// continuous phases.
func TestLemma5Broadcast(t *testing.T) {
	for mi := 1; mi <= 6; mi++ {
		for mj := 1; mj <= 6; mj++ {
			pat := BroadcastPattern(mi, mj)
			for q, pr := range pat {
				if want := q / mj; pr.SenderIdx != want {
					t.Errorf("broadcast(%d,%d) phase %d: sender %d, want %d",
						mi, mj, q, pr.SenderIdx, want)
				}
			}
		}
	}
}

// TestLemma6Rotate checks that in the rotate pattern each sender occurs once
// in every |Mi| phases and each receiver once in every |Mj| phases, counting
// from the first phase.
func TestLemma6Rotate(t *testing.T) {
	for mi := 1; mi <= 8; mi++ {
		for mj := 1; mj <= 8; mj++ {
			pat := RotatePattern(mi, mj)
			for w := 0; w+mi <= len(pat); w += mi {
				seen := map[int]bool{}
				for _, pr := range pat[w : w+mi] {
					seen[pr.SenderIdx] = true
				}
				if len(seen) != mi {
					t.Errorf("rotate(%d,%d): window at %d has %d distinct senders",
						mi, mj, w, len(seen))
				}
			}
			for w := 0; w+mj <= len(pat); w += mj {
				seen := map[int]bool{}
				for _, pr := range pat[w : w+mj] {
					seen[pr.RecvIdx] = true
				}
				if len(seen) != mj {
					t.Errorf("rotate(%d,%d): window at %d has %d distinct receivers",
						mi, mj, w, len(seen))
				}
			}
		}
	}
}

// TestGlobalScheduleFig3 checks the extended ring schedule for the Fig. 1
// example against the phase ranges shown in Fig. 3: |M0|=3, |M1|=2, |M2|=1.
func TestGlobalScheduleFig3(t *testing.T) {
	gs, err := NewGroupSchedule([]int{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if gs.Total != 9 {
		t.Fatalf("Total = %d, want 9", gs.Total)
	}
	ranges := map[[2]int][2]int{
		{0, 1}: {0, 6}, // t0->t1: phases 0-5
		{0, 2}: {6, 9}, // t0->t2: phases 6-8
		{1, 2}: {0, 2}, // t1->t2: phases 0-1
		{1, 0}: {3, 9}, // t1->t0: phases 3-8
		{2, 0}: {0, 3}, // t2->t0: phases 0-2
		{2, 1}: {7, 9}, // t2->t1: phases 7-8
	}
	for pair, want := range ranges {
		if got := gs.Start(pair[0], pair[1]); got != want[0] {
			t.Errorf("Start(%d,%d) = %d, want %d", pair[0], pair[1], got, want[0])
		}
		if got := gs.End(pair[0], pair[1]); got != want[1] {
			t.Errorf("End(%d,%d) = %d, want %d", pair[0], pair[1], got, want[1])
		}
	}
	// Fig. 3 also shows idle slots: t1 sends nothing at phase 2.
	if _, ok := gs.GroupAt(1, 2); ok {
		t.Error("t1 should be idle as a sender at phase 2")
	}
	if j, ok := gs.GroupAt(0, 7); !ok || j != 2 {
		t.Errorf("GroupAt(0, 7) = %d,%v, want 2,true", j, ok)
	}
	if i, ok := gs.SenderGroupInto(1, 8); !ok || i != 2 {
		t.Errorf("SenderGroupInto(1, 8) = %d,%v, want 2,true", i, ok)
	}
	if _, ok := gs.SenderGroupInto(2, 3); ok {
		t.Error("no group should send into t2 at phase 3")
	}
}

// TestLemma2GlobalSchedule checks, over many random size vectors, that the
// extended ring schedule produces |M0|*(|M|-|M0|) phases in which every
// subtree sends at most one group and receives at most one group (no
// contention on the links connecting subtrees to the root).
func TestLemma2GlobalSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(6)
		sizes := make([]int, k)
		total := 0
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(6)
			total += sizes[i]
		}
		// Sort non-increasing and enforce |M0| <= |M|/2 by capping.
		for {
			sortDesc(sizes)
			if sizes[0] <= (total-sizes[0]) || len(sizes) == 2 && sizes[0] == sizes[1] {
				break
			}
			sizes[0]--
			total--
			if sizes[0] == 0 {
				t.Skip("degenerate")
			}
		}
		gs, err := NewGroupSchedule(sizes)
		if err != nil {
			t.Fatalf("sizes %v: %v", sizes, err)
		}
		if want := sizes[0] * (total - sizes[0]); gs.Total != want {
			t.Fatalf("sizes %v: total %d, want %d", sizes, gs.Total, want)
		}
		// Range bounds and per-phase group contention.
		for p := 0; p < gs.Total; p++ {
			sendBusy := make([]int, k)
			recvBusy := make([]int, k)
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if i == j {
						continue
					}
					s, e := gs.Start(i, j), gs.End(i, j)
					if s < 0 || e > gs.Total {
						t.Fatalf("sizes %v: range (%d,%d) = [%d,%d) out of [0,%d)",
							sizes, i, j, s, e, gs.Total)
					}
					if s <= p && p < e {
						sendBusy[i]++
						recvBusy[j]++
					}
				}
			}
			for x := 0; x < k; x++ {
				if sendBusy[x] > 1 {
					t.Fatalf("sizes %v phase %d: subtree %d sends %d groups",
						sizes, p, x, sendBusy[x])
				}
				if recvBusy[x] > 1 {
					t.Fatalf("sizes %v phase %d: subtree %d receives %d groups",
						sizes, p, x, recvBusy[x])
				}
			}
		}
	}
}

func sortDesc(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] > s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestGroupScheduleErrors(t *testing.T) {
	if _, err := NewGroupSchedule([]int{3}); err == nil {
		t.Error("want error for single subtree")
	}
	if _, err := NewGroupSchedule([]int{2, 3}); err == nil {
		t.Error("want error for unsorted sizes")
	}
	if _, err := NewGroupSchedule([]int{2, 0}); err == nil {
		t.Error("want error for zero size")
	}
}

// table4 is the full result of the global and local message assignment for
// the Fig. 1 example, as published in Table 4 of the paper (with the
// t2->t1 group at phases 7-8 per the Fig. 3 global schedule and the
// designated-receiver alignment; machine ranks t0 = {0,1,2}, t1 = {3,4},
// t2 = {5}).
var table4 = []Phase{
	{{0, 4}, {3, 5}, {5, 1}, {1, 0}}, // phase 0
	{{1, 3}, {4, 5}, {5, 2}, {2, 1}}, // phase 1
	{{2, 4}, {5, 0}, {0, 2}},         // phase 2
	{{0, 3}, {3, 2}, {2, 0}},         // phase 3
	{{1, 4}, {3, 0}, {0, 1}, {4, 3}}, // phase 4
	{{2, 3}, {3, 1}, {1, 2}},         // phase 5
	{{0, 5}, {4, 0}},                 // phase 6
	{{1, 5}, {4, 1}, {5, 3}, {3, 4}}, // phase 7
	{{2, 5}, {4, 2}, {5, 4}},         // phase 8
}

// TestAssignmentTable4 checks the six-step assignment against Table 4.
func TestAssignmentTable4(t *testing.T) {
	g := fig1(t)
	ri := fig1Root(t, g)
	s, err := BuildWithRoot(g, ri)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != len(table4) {
		t.Fatalf("%d phases, want %d\n%s", len(s.Phases), len(table4), s)
	}
	want := &Schedule{NumRanks: 6, Phases: table4}
	want.normalize()
	for i := range want.Phases {
		if !reflect.DeepEqual(s.Phases[i], want.Phases[i]) {
			t.Errorf("phase %d:\n got %v\nwant %v", i, s.Phases[i], want.Phases[i])
		}
	}
	if err := Verify(g, s, true); err != nil {
		t.Errorf("Table 4 schedule fails verification: %v", err)
	}
}

// TestStep2MappingTable3 checks the Table 3 sender/receiver mapping through
// the Fig. 1 example: in round r, the ti->t0 receiver paired with t0 sender
// t0,s must be t0,(s+r+1 mod |M0|).
func TestStep2MappingTable3(t *testing.T) {
	g := fig1(t)
	ri := fig1Root(t, g)
	s, err := BuildWithRoot(g, ri)
	if err != nil {
		t.Fatal(err)
	}
	// Rank sets: t0 = {0,1,2}; rounds of |M0| = 3 phases.
	inT0 := func(r int) bool { return r <= 2 }
	for p, phase := range s.Phases {
		round := p / 3
		var sender, recv = -1, -1
		for _, m := range phase {
			if inT0(m.Src) && !inT0(m.Dst) {
				sender = m.Src
			}
			if !inT0(m.Src) && inT0(m.Dst) {
				recv = m.Dst
			}
		}
		if sender < 0 {
			t.Fatalf("phase %d: t0 has no global sender", p)
		}
		if recv < 0 {
			t.Fatalf("phase %d: t0 has no global receiver", p)
		}
		if want := (sender + round%3 + 1) % 3; recv != want {
			t.Errorf("phase %d (round %d): sender t0,%d paired with receiver t0,%d, want t0,%d",
				p, round, sender, recv, want)
		}
	}
}

// TestTheoremFig1 checks all three Theorem conditions on the example.
func TestTheoremFig1(t *testing.T) {
	g := fig1(t)
	s, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, s, true); err != nil {
		t.Error(err)
	}
	if got, want := s.NumMessages(), 30; got != want {
		t.Errorf("NumMessages = %d, want %d", got, want)
	}
}

// TestTheoremRandomClusters is the property test for the paper's Theorem:
// for random tree topologies, the constructed schedule realizes every
// message exactly once, is contention-free in every phase, and uses exactly
// AAPCLoad(g) phases.
func TestTheoremRandomClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		g := topology.RandomCluster(topology.RandomOptions{
			Switches: 1 + rng.Intn(8),
			Machines: 3 + rng.Intn(29),
			Rand:     rng,
		})
		s, err := Build(g)
		if err != nil {
			t.Fatalf("trial %d: Build: %v\n%s", trial, err, g.Format())
		}
		if err := Verify(g, s, true); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, g.Format())
		}
	}
}

// TestTheoremStarClusters checks single-switch clusters of every size up to
// 33: the schedule must degenerate to N-1 permutation phases.
func TestTheoremStarClusters(t *testing.T) {
	for n := 2; n <= 33; n++ {
		g := star(t, n)
		s, err := Build(g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := Verify(g, s, true); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(s.Phases) != n-1 {
			t.Errorf("n=%d: %d phases, want %d", n, len(s.Phases), n-1)
		}
		for pi, p := range s.Phases {
			if len(p) != n {
				t.Errorf("n=%d phase %d: %d messages, want %d (permutation)", n, pi, len(p), n)
			}
		}
	}
}

func star(t testing.TB, n int) *topology.Graph {
	t.Helper()
	g := topology.New()
	s := g.MustAddSwitch("sw")
	for i := 0; i < n; i++ {
		m, err := g.AddMachine(machineName(i))
		if err != nil {
			t.Fatal(err)
		}
		g.MustConnect(s, m)
	}
	return g.MustValidate()
}

func machineName(i int) string {
	const digits = "0123456789"
	if i < 10 {
		return "n" + digits[i:i+1]
	}
	return "n" + digits[i/10:i/10+1] + digits[i%10:i%10+1]
}

// TestBuildTwoMachines checks the |M| = 2 degenerate case.
func TestBuildTwoMachines(t *testing.T) {
	g := star(t, 2)
	s, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != 1 || len(s.Phases[0]) != 2 {
		t.Fatalf("want 1 phase with both messages, got %s", s)
	}
	if err := Verify(g, s, true); err != nil {
		t.Error(err)
	}
}

// TestGreedyCorrectButNotOptimal checks the greedy baseline: always correct,
// never fewer phases than the optimum, and strictly worse somewhere.
func TestGreedyCorrectButNotOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sawWorse := false
	for trial := 0; trial < 100; trial++ {
		g := topology.RandomCluster(topology.RandomOptions{
			Switches: 1 + rng.Intn(6),
			Machines: 3 + rng.Intn(20),
			Rand:     rng,
		})
		s := BuildGreedy(g)
		if err := Verify(g, s, false); err != nil {
			t.Fatalf("trial %d: greedy: %v\n%s", trial, err, g.Format())
		}
		if len(s.Phases) < g.AAPCLoad() {
			t.Fatalf("trial %d: greedy beat the load bound: %d < %d",
				trial, len(s.Phases), g.AAPCLoad())
		}
		if len(s.Phases) > g.AAPCLoad() {
			sawWorse = true
		}
	}
	if !sawWorse {
		t.Error("greedy matched the optimum on every trial; baseline is not informative")
	}
}

// TestVerifyCatchesBadSchedules exercises each verifier failure mode.
func TestVerifyCatchesBadSchedules(t *testing.T) {
	g := fig1(t)
	good, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *Schedule {
		c := &Schedule{NumRanks: good.NumRanks, Phases: make([]Phase, len(good.Phases))}
		for i, p := range good.Phases {
			c.Phases[i] = append(Phase(nil), p...)
		}
		return c
	}

	t.Run("wrong ranks", func(t *testing.T) {
		c := clone()
		c.NumRanks = 5
		if Verify(g, c, true) == nil {
			t.Error("want error")
		}
	})
	t.Run("missing message", func(t *testing.T) {
		c := clone()
		c.Phases[0] = c.Phases[0][1:]
		if Verify(g, c, true) == nil {
			t.Error("want error")
		}
	})
	t.Run("duplicate message", func(t *testing.T) {
		c := clone()
		c.Phases[1] = append(c.Phases[1], c.Phases[0][0])
		if Verify(g, c, true) == nil {
			t.Error("want error")
		}
	})
	t.Run("self message", func(t *testing.T) {
		c := clone()
		c.Phases[0] = append(c.Phases[0], Message{1, 1})
		if Verify(g, c, true) == nil {
			t.Error("want error")
		}
	})
	t.Run("contention", func(t *testing.T) {
		// One phase with two messages sharing n0's uplink.
		c := &Schedule{NumRanks: 6, Phases: []Phase{{{0, 1}, {0, 2}}}}
		err := Verify(g, c, false)
		if err == nil {
			t.Fatal("want contention error")
		}
		var ve *VerifyError
		if !asVerifyError(err, &ve) {
			t.Errorf("want *VerifyError, got %T", err)
		}
	})
	t.Run("too many phases", func(t *testing.T) {
		c := clone()
		c.Phases = append(c.Phases, Phase{})
		if Verify(g, c, true) == nil {
			t.Error("want error for non-optimal phase count")
		}
		// But acceptable when optimality is not demanded... except the
		// duplicate coverage check still passes with an empty extra phase.
		if err := Verify(g, c, false); err != nil {
			t.Errorf("non-optimal verify should pass: %v", err)
		}
	})
}

func asVerifyError(err error, target **VerifyError) bool {
	ve, ok := err.(*VerifyError)
	if ok {
		*target = ve
	}
	return ok
}

// TestSchedulePhaseOfAndString covers the small helpers.
func TestSchedulePhaseOfAndString(t *testing.T) {
	g := fig1(t)
	s, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	po := s.PhaseOf()
	if len(po) != 30 {
		t.Fatalf("PhaseOf has %d entries, want 30", len(po))
	}
	for i, p := range s.Phases {
		for _, m := range p {
			if po[m] != i {
				t.Errorf("PhaseOf[%v] = %d, want %d", m, po[m], i)
			}
		}
	}
	if s.String() == "" || (Message{1, 2}).String() != "1->2" {
		t.Error("String helpers broken")
	}
}

func TestModGcd(t *testing.T) {
	if mod(-9, 2) != 1 || mod(-1, 3) != 2 || mod(5, 3) != 2 || mod(0, 7) != 0 {
		t.Error("mod broken")
	}
	if gcd(6, 4) != 2 || gcd(7, 3) != 1 || gcd(12, 12) != 12 {
		t.Error("gcd broken")
	}
}

// TestCaterpillarTopology schedules a chain of switches with one machine
// each — the shape that maximizes root-walk depth and exercises Step 5's
// subtree chaining with many equal-size subtrees.
func TestCaterpillarTopology(t *testing.T) {
	for _, nsw := range []int{3, 5, 9, 12} {
		g := topology.New()
		prev := -1
		for i := 0; i < nsw; i++ {
			sw := g.MustAddSwitch(machineName(i) + "s")
			if prev >= 0 {
				g.MustConnect(prev, sw)
			}
			prev = sw
			m := g.MustAddMachine(machineName(i))
			g.MustConnect(sw, m)
		}
		g.MustValidate()
		s, err := Build(g)
		if err != nil {
			t.Fatalf("nsw=%d: %v", nsw, err)
		}
		if err := Verify(g, s, true); err != nil {
			t.Fatalf("nsw=%d: %v\n%s", nsw, err, g.Format())
		}
	}
}

// TestEqualHalvesTopology covers k=2 with |M0| = |M1|: the dominant-subtree
// tie, where every phase must carry cross traffic in both directions.
func TestEqualHalvesTopology(t *testing.T) {
	for _, half := range []int{1, 2, 3, 5, 8} {
		g := topology.New()
		s0 := g.MustAddSwitch("L")
		s1 := g.MustAddSwitch("R")
		g.MustConnect(s0, s1)
		for i := 0; i < half; i++ {
			g.MustConnect(s0, g.MustAddMachine("l"+machineName(i)))
			g.MustConnect(s1, g.MustAddMachine("r"+machineName(i)))
		}
		g.MustValidate()
		s, err := Build(g)
		if err != nil {
			t.Fatalf("half=%d: %v", half, err)
		}
		if err := Verify(g, s, true); err != nil {
			t.Fatalf("half=%d: %v", half, err)
		}
		if want := half * half; len(s.Phases) != want {
			t.Errorf("half=%d: %d phases, want %d", half, len(s.Phases), want)
		}
	}
}

func TestVerifyErrorAndStartPanics(t *testing.T) {
	err := Verify(fig1(t), &Schedule{NumRanks: 5}, true)
	var ve *VerifyError
	if !asVerifyError(err, &ve) || ve.Error() == "" {
		t.Errorf("want VerifyError with message, got %v", err)
	}
	gs, err2 := NewGroupSchedule([]int{2, 1})
	if err2 != nil {
		t.Fatal(err2)
	}
	defer func() {
		if recover() == nil {
			t.Error("Start(i, i) should panic")
		}
	}()
	gs.Start(1, 1)
}
