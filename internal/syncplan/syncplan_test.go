package syncplan

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

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

// conflicts enumerates every ordered cross-phase pair of messages that share
// a directed link (the pairs the plan must order).
func conflicts(g *topology.Graph, s *schedule.Schedule) []Sync {
	idx := g.NewEdgeIndex()
	phaseOf := s.PhaseOf()
	var all []schedule.Message
	for _, p := range s.Phases {
		all = append(all, p...)
	}
	paths := make(map[schedule.Message]map[int]bool)
	for _, m := range all {
		es := make(map[int]bool)
		for _, e := range g.PathIDs(idx, g.MachineID(m.Src), g.MachineID(m.Dst)) {
			es[e] = true
		}
		paths[m] = es
	}
	var out []Sync
	for _, a := range all {
		for _, b := range all {
			if phaseOf[a] >= phaseOf[b] {
				continue
			}
			shared := false
			for e := range paths[a] {
				if paths[b][e] {
					shared = true
					break
				}
			}
			if shared {
				out = append(out, Sync{After: a, Before: b})
			}
		}
	}
	return out
}

// covers reports whether the plan's sync DAG implies After-before-Before for
// the given pair, via transitive closure over the plan edges.
func covers(plan *Plan, pair Sync) bool {
	adj := plan.ByAfter()
	seen := map[schedule.Message]bool{pair.After: true}
	stack := []schedule.Message{pair.After}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nxt := range adj[m] {
			if nxt == pair.Before {
				return true
			}
			if !seen[nxt] {
				seen[nxt] = true
				stack = append(stack, nxt)
			}
		}
	}
	return false
}

func checkPlan(t *testing.T, g *topology.Graph, s *schedule.Schedule) *Plan {
	t.Helper()
	plan, err := Build(g, s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	confl := conflicts(g, s)
	if plan.ConflictPairs != len(confl) {
		t.Errorf("ConflictPairs = %d, want %d", plan.ConflictPairs, len(confl))
	}
	// Soundness: every conflicting pair ordered (possibly transitively).
	for _, c := range confl {
		if !covers(plan, c) {
			t.Errorf("conflict %v -> %v not covered by plan", c.After, c.Before)
		}
	}
	// Every plan edge must be a real conflict (no spurious syncs).
	conflSet := make(map[Sync]bool, len(confl))
	for _, c := range confl {
		conflSet[c] = true
	}
	for _, sy := range plan.Syncs {
		if !conflSet[sy] {
			t.Errorf("plan sync %v -> %v is not a conflict", sy.After, sy.Before)
		}
	}
	// Minimality: removing any single sync must break coverage of itself
	// (transitive reduction keeps only edges not implied by others).
	for drop := range plan.Syncs {
		reduced := &Plan{Syncs: append([]Sync(nil), plan.Syncs...)}
		reduced.Syncs = append(reduced.Syncs[:drop], reduced.Syncs[drop+1:]...)
		if covers(reduced, plan.Syncs[drop]) {
			t.Errorf("sync %v -> %v is redundant (implied without itself)",
				plan.Syncs[drop].After, plan.Syncs[drop].Before)
		}
	}
	return plan
}

func TestPlanFig1(t *testing.T) {
	g := fig1(t)
	s, err := schedule.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	plan := checkPlan(t, g, s)
	if plan.NumSyncs() == 0 {
		t.Error("Fig. 1 schedule should require synchronizations")
	}
	if plan.NumSyncs() >= plan.ConflictPairs {
		t.Errorf("redundancy elimination removed nothing: %d syncs for %d conflicts",
			plan.NumSyncs(), plan.ConflictPairs)
	}
}

func TestPlanStar(t *testing.T) {
	g := topology.New()
	sw := g.MustAddSwitch("sw")
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		m := g.MustAddMachine(n)
		g.MustConnect(sw, m)
	}
	g.MustValidate()
	s, err := schedule.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	plan := checkPlan(t, g, s)
	// On a star each machine link is used once per phase in each direction;
	// conflicts chain along phases per machine.
	if plan.NumSyncs() == 0 {
		t.Error("star schedule should require synchronizations")
	}
}

func TestPlanRandomClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		g := topology.RandomCluster(topology.RandomOptions{
			Switches: 1 + rng.Intn(4),
			Machines: 3 + rng.Intn(7),
			Rand:     rng,
		})
		s, err := schedule.Build(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkPlan(t, g, s)
		if t.Failed() {
			t.Fatalf("trial %d topology:\n%s", trial, g.Format())
		}
	}
}

func TestPlanGreedyScheduleToo(t *testing.T) {
	// The plan builder must work for any contention-free schedule, not just
	// the paper's construction.
	g := fig1(t)
	s := schedule.BuildGreedyParallel(g, 1)
	checkPlan(t, g, s)
}

func TestBuildRejectsContention(t *testing.T) {
	g := fig1(t)
	bad := &schedule.Schedule{
		NumRanks: 6,
		Phases: []schedule.Phase{
			{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}, // both use n0's uplink
		},
	}
	if _, err := Build(g, bad); err == nil {
		t.Error("want error for contending schedule")
	}
}

func TestBuildRejectsDuplicates(t *testing.T) {
	g := fig1(t)
	bad := &schedule.Schedule{
		NumRanks: 6,
		Phases: []schedule.Phase{
			{{Src: 0, Dst: 1}},
			{{Src: 0, Dst: 1}},
		},
	}
	if _, err := Build(g, bad); err == nil {
		t.Error("want error for duplicated message")
	}
}

func TestByAfterByBefore(t *testing.T) {
	g := fig1(t)
	s, err := schedule.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(g, s)
	if err != nil {
		t.Fatal(err)
	}
	na, nb := 0, 0
	for _, v := range plan.ByAfter() {
		na += len(v)
	}
	for _, v := range plan.ByBefore() {
		nb += len(v)
	}
	if na != plan.NumSyncs() || nb != plan.NumSyncs() {
		t.Errorf("grouping lost syncs: %d/%d, want %d", na, nb, plan.NumSyncs())
	}
}

// TestPaperRedundancyExample reproduces the Section 5 example: m1 conflicts
// with m2 and m3, m2 conflicts with m3 — the m1->m3 synchronization must be
// removed as redundant.
func TestPaperRedundancyExample(t *testing.T) {
	// Chain topology: two machines under one switch; messages a->b in three
	// phases all crossing the same links do not exist in AAPC, so craft a
	// schedule over a 2-machine star with three phases is impossible.
	// Instead use a 3-machine star and three messages into machine 0:
	// 1->0 (phase 0), 2->0 (phase 1), 1->0 impossible again — so use the
	// link (sw, n0) shared by 1->0, 2->0 and the reverse direction is not
	// shared. Three messages sharing one link in three phases:
	g := topology.New()
	sw := g.MustAddSwitch("sw")
	for _, n := range []string{"a", "b", "c", "d"} {
		g.MustConnect(sw, g.MustAddMachine(n))
	}
	g.MustValidate()
	s := &schedule.Schedule{
		NumRanks: 4,
		Phases: []schedule.Phase{
			{{Src: 1, Dst: 0}}, // m1
			{{Src: 2, Dst: 0}}, // m2, conflicts with m1 on (sw, a)
			{{Src: 3, Dst: 0}}, // m3, conflicts with m1 and m2 on (sw, a)
		},
	}
	plan, err := Build(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ConflictPairs != 3 {
		t.Errorf("ConflictPairs = %d, want 3", plan.ConflictPairs)
	}
	want := []Sync{
		{After: schedule.Message{Src: 1, Dst: 0}, Before: schedule.Message{Src: 2, Dst: 0}},
		{After: schedule.Message{Src: 2, Dst: 0}, Before: schedule.Message{Src: 3, Dst: 0}},
	}
	if len(plan.Syncs) != len(want) {
		t.Fatalf("Syncs = %v, want %v", plan.Syncs, want)
	}
	for i := range want {
		if plan.Syncs[i] != want[i] {
			t.Errorf("sync %d = %v, want %v", i, plan.Syncs[i], want[i])
		}
	}
}

// randomPlanInput is a seeded RandomCluster of n machines under four
// switches and its paper schedule: the shape of the compile benchmark.
func randomPlanInput(tb testing.TB, n int) (*topology.Graph, *schedule.Schedule) {
	tb.Helper()
	g := topology.RandomCluster(topology.RandomOptions{Switches: 4, Machines: n, Rand: rand.New(rand.NewSource(int64(n)))})
	s, err := schedule.Build(g)
	if err != nil {
		tb.Fatal(err)
	}
	return g, s
}

// TestBuildAllocationBound is the gate against a return to enumerating
// conflict pairs: a strict plan for 64 machines under four switches fits in
// 8 MB of allocation (about 2.8 MB, 2 MB of it the reach arena), where the
// all-pairs construction allocates well over 100 MB.
func TestBuildAllocationBound(t *testing.T) {
	g, s := randomPlanInput(t, 64)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plan, err := Build(g, s)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	t.Logf("N=64: %d syncs of %d conflict pairs, %.2f MB allocated", plan.NumSyncs(), plan.ConflictPairs, mb)
	if mb >= 8 {
		t.Errorf("Build allocated %.2f MB at N=64, budget 8 MB", mb)
	}
}

// BenchmarkBuild times the strict plan of the paper's schedule on random
// four-switch clusters.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			g, s := randomPlanInput(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildAllowsSamePhaseUpToLinkSpeed: a phase may put as many messages on
// a link as its speed. Two messages sharing n0's uplink and the trunks to s3
// in one phase are planned when those links have speed 2, with only the
// cross-phase pairs ordered; on fig1's standard links they are contention,
// and a third message on a speed-2 link overloads it.
func TestBuildAllowsSamePhaseUpToLinkSpeed(t *testing.T) {
	g, err := topology.ParseString(`
switches s0 s1 s2 s3
machines n0 n1 n2 n3 n4 n5
link s0 n0 2
link s0 n1
link s0 s2
link s2 n2
link s1 s0 2
link s1 s3 2
link s1 n5
link s3 n3
link s3 n4
`)
	if err != nil {
		t.Fatal(err)
	}
	s := &schedule.Schedule{
		NumRanks: 6,
		Phases: []schedule.Phase{
			{{Src: 0, Dst: 4}, {Src: 0, Dst: 3}}, // share n0->s0, s0->s1 and s1->s3
			{{Src: 1, Dst: 4}},
		},
	}
	plan, err := Build(g, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, sy := range plan.Syncs {
		if sy.After.Src == 0 && sy.Before.Src == 0 {
			t.Errorf("same-phase pair synchronized: %v", sy)
		}
	}
	if plan.NumSyncs() == 0 {
		t.Error("cross-phase conflicts should need syncs")
	}

	_, err = Build(fig1(t), s)
	if want := "syncplan: schedule not contention-free: 0->4 and 0->3 share a link in phase 0"; err == nil || err.Error() != want {
		t.Errorf("standard links: error %v, want %q", err, want)
	}

	over := &schedule.Schedule{NumRanks: 6, Phases: []schedule.Phase{{{Src: 0, Dst: 4}, {Src: 0, Dst: 3}, {Src: 0, Dst: 5}}}}
	if _, err := Build(g, over); err == nil || !strings.Contains(err.Error(), "exceeds link capacity") {
		t.Errorf("three messages on a speed-2 link: error %v, want one naming the capacity", err)
	}
}
