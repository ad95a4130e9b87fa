package topology

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// fig1 builds the example cluster of Fig. 1 in the paper:
//
//	s0 — n0, n1, s2;  s2 — n2;  s1 (root) — s0, s3, n5;  s3 — n3, n4
//
// This wiring is the unique one consistent with the paper's
// path(n0, n3) = {(n0,s0), (s0,s1), (s1,s3), (s3,n3)} and with the subtree
// decomposition t0 = t_s0 = {n0,n1,n2}, t1 = t_s3 = {n3,n4}, t2 = t_n5 = {n5}.
func fig1(t testing.TB) *Graph {
	t.Helper()
	g := New()
	s0 := g.MustAddSwitch("s0")
	s1 := g.MustAddSwitch("s1")
	s2 := g.MustAddSwitch("s2")
	s3 := g.MustAddSwitch("s3")
	n := make([]int, 6)
	for i := range n {
		n[i] = g.MustAddMachine("n" + string(rune('0'+i)))
	}
	g.MustConnect(s0, n[0])
	g.MustConnect(s0, n[1])
	g.MustConnect(s0, s2)
	g.MustConnect(s2, n[2])
	g.MustConnect(s1, s0)
	g.MustConnect(s1, s3)
	g.MustConnect(s1, n[5])
	g.MustConnect(s3, n[3])
	g.MustConnect(s3, n[4])
	if err := g.Validate(); err != nil {
		t.Fatalf("fig1 validate: %v", err)
	}
	return g
}

func TestFig1Basics(t *testing.T) {
	g := fig1(t)
	if got, want := g.NumMachines(), 6; got != want {
		t.Errorf("NumMachines = %d, want %d", got, want)
	}
	if got, want := g.NumSwitches(), 4; got != want {
		t.Errorf("NumSwitches = %d, want %d", got, want)
	}
	if got, want := g.NumLinks(), 9; got != want {
		t.Errorf("NumLinks = %d, want %d", got, want)
	}
}

func TestFig1PathN0N3(t *testing.T) {
	g := fig1(t)
	n0, _ := g.Lookup("n0")
	n3, _ := g.Lookup("n3")
	s0, _ := g.Lookup("s0")
	s1, _ := g.Lookup("s1")
	s3, _ := g.Lookup("s3")
	want := []Edge{{n0, s0}, {s0, s1}, {s1, s3}, {s3, n3}}
	got := g.Path(n0, n3)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Path(n0, n3) = %v, want %v", got, want)
	}
	// Reverse path is the edge-reversed mirror.
	rev := g.Path(n3, n0)
	if len(rev) != len(want) {
		t.Fatalf("Path(n3, n0) length %d, want %d", len(rev), len(want))
	}
	for i, e := range rev {
		if e != want[len(want)-1-i].Reverse() {
			t.Errorf("reverse path edge %d = %v", i, e)
		}
	}
}

func TestPathSelfEmpty(t *testing.T) {
	g := fig1(t)
	n0, _ := g.Lookup("n0")
	if p := g.Path(n0, n0); len(p) != 0 {
		t.Errorf("Path(n0, n0) = %v, want empty", p)
	}
}

func TestFig1Loads(t *testing.T) {
	g := fig1(t)
	if got, want := g.AAPCLoad(), 9; got != want {
		t.Errorf("AAPCLoad = %d, want %d", got, want)
	}
	bl := g.BottleneckLinks()
	if len(bl) != 1 {
		t.Fatalf("BottleneckLinks = %v, want exactly one", bl)
	}
	s0, _ := g.Lookup("s0")
	s1, _ := g.Lookup("s1")
	l := bl[0].Link
	if !(l == (Edge{s0, s1}) || l == (Edge{s1, s0})) {
		t.Errorf("bottleneck link = %v, want s0-s1", l)
	}
	// Loads by link: s0-s1: 3*3=9; s1-s3: 2*4=8; s0-s2, s1-n5: 1*5=5;
	// machine links: 5.
	for _, ll := range g.LinkLoads() {
		mu, mv := ll.MachinesU, ll.MachinesV
		if mu*mv != ll.Load {
			t.Errorf("link %v: load %d != |Mu|*|Mv| = %d*%d", ll.Link, ll.Load, mu, mv)
		}
		if mu+mv != g.NumMachines() {
			t.Errorf("link %v: machine split %d+%d != %d", ll.Link, mu, mv, g.NumMachines())
		}
	}
}

func TestFig1PeakThroughput(t *testing.T) {
	g := fig1(t)
	// |M|(|M|-1)B/load = 6*5*100/9.
	got := g.PeakAggregateThroughput(100)
	want := 6.0 * 5 * 100 / 9
	if got != want {
		t.Errorf("PeakAggregateThroughput = %v, want %v", got, want)
	}
	// Best case time: 9 * msize / B.
	if got, want := g.BestCaseTime(1000, 100), 90.0; got != want {
		t.Errorf("BestCaseTime = %v, want %v", got, want)
	}
}

func TestFig1RootInfoAtS1(t *testing.T) {
	g := fig1(t)
	s1, _ := g.Lookup("s1")
	ri, err := g.RootInfoAt(s1)
	if err != nil {
		t.Fatal(err)
	}
	wantSizes := []int{3, 2, 1}
	if len(ri.Subtrees) != 3 {
		t.Fatalf("subtrees = %d, want 3", len(ri.Subtrees))
	}
	for i, w := range wantSizes {
		if got := len(ri.Subtrees[i].Machines); got != w {
			t.Errorf("|M%d| = %d, want %d", i, got, w)
		}
	}
	if got := ri.Subtrees[0].Machines; !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("t0 machines = %v, want [0 1 2]", got)
	}
	if got := ri.Subtrees[1].Machines; !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("t1 machines = %v, want [3 4]", got)
	}
	if got := ri.Subtrees[2].Machines; !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("t2 machines = %v, want [5]", got)
	}
	if got, want := ri.NumPhases(), 9; got != want {
		t.Errorf("NumPhases = %d, want %d", got, want)
	}
	if st, pos := ri.SubtreeOf(4); st != 1 || pos != 1 {
		t.Errorf("SubtreeOf(4) = (%d, %d), want (1, 1)", st, pos)
	}
	if st, pos := ri.SubtreeOf(99); st != -1 || pos != -1 {
		t.Errorf("SubtreeOf(99) = (%d, %d), want (-1, -1)", st, pos)
	}
}

// checkRootLemma1 asserts the two root conditions of Section 4.1 plus
// Lemma 1: the root is a switch adjacent to a bottleneck link, and every
// subtree holds at most |M|/2 machines.
func checkRootLemma1(t *testing.T, g *Graph, ri *RootInfo) {
	t.Helper()
	if g.Node(ri.Root).Kind != Switch {
		t.Errorf("root %s is not a switch", g.Node(ri.Root).Name)
	}
	half := g.NumMachines() / 2
	total := 0
	for i, st := range ri.Subtrees {
		if len(st.Machines) > half {
			t.Errorf("subtree %d has %d machines > |M|/2 = %d", i, len(st.Machines), half)
		}
		if i > 0 && len(st.Machines) > len(ri.Subtrees[i-1].Machines) {
			t.Errorf("subtrees not sorted by size: %d after %d",
				len(st.Machines), len(ri.Subtrees[i-1].Machines))
		}
		total += len(st.Machines)
	}
	if total != g.NumMachines() {
		t.Errorf("subtrees cover %d machines, want %d", total, g.NumMachines())
	}
	// The root must be adjacent to a bottleneck link.
	adjacent := false
	for _, bl := range g.BottleneckLinks() {
		if bl.Link.U == ri.Root || bl.Link.V == ri.Root {
			adjacent = true
		}
	}
	if !adjacent {
		t.Errorf("root %s is not adjacent to any bottleneck link", g.Node(ri.Root).Name)
	}
	// NumPhases must equal the AAPC load (the optimality target).
	if got, want := ri.NumPhases(), g.AAPCLoad(); got != want {
		t.Errorf("NumPhases = %d, want AAPC load %d", got, want)
	}
}

func TestFig1FindRoot(t *testing.T) {
	g := fig1(t)
	ri, err := g.FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	checkRootLemma1(t, g, ri)
	// Either s0 or s1 satisfies the root conditions (the bottleneck split is
	// a 3/3 tie); the paper picks s1.
	name := g.Node(ri.Root).Name
	if name != "s0" && name != "s1" {
		t.Errorf("root = %s, want s0 or s1", name)
	}
}

func TestFindRootSingleSwitch(t *testing.T) {
	g := New()
	s := g.MustAddSwitch("s0")
	for i := 0; i < 5; i++ {
		m := g.MustAddMachine("n" + string(rune('0'+i)))
		g.MustConnect(s, m)
	}
	g.MustValidate()
	ri, err := g.FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	if ri.Root != s {
		t.Errorf("root = %d, want the single switch %d", ri.Root, s)
	}
	if len(ri.Subtrees) != 5 {
		t.Errorf("subtrees = %d, want 5", len(ri.Subtrees))
	}
	if got, want := ri.NumPhases(), 4; got != want {
		t.Errorf("NumPhases = %d, want %d (= N-1 for a star)", got, want)
	}
	checkRootLemma1(t, g, ri)
}

func TestFindRootChainOfSwitches(t *testing.T) {
	// s0 - s1 - s2 - s3 with 2 machines on each end pair: the walk must
	// cross intermediate degree-2 switches.
	g := New()
	var sw [4]int
	for i := range sw {
		sw[i] = g.MustAddSwitch("s" + string(rune('0'+i)))
		if i > 0 {
			g.MustConnect(sw[i-1], sw[i])
		}
	}
	for i := 0; i < 3; i++ {
		m := g.MustAddMachine("a" + string(rune('0'+i)))
		g.MustConnect(sw[0], m)
	}
	for i := 0; i < 3; i++ {
		m := g.MustAddMachine("b" + string(rune('0'+i)))
		g.MustConnect(sw[3], m)
	}
	g.MustValidate()
	ri, err := g.FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	checkRootLemma1(t, g, ri)
	// All three inter-switch links are bottlenecks (3*3); the root must be a
	// switch with more than one machine-bearing branch: s0 or s3.
	name := g.Node(ri.Root).Name
	if name != "s0" && name != "s3" {
		t.Errorf("root = %s, want s0 or s3", name)
	}
}

func TestFindRootTwoMachines(t *testing.T) {
	g := New()
	s := g.MustAddSwitch("s0")
	a := g.MustAddMachine("a")
	b := g.MustAddMachine("b")
	g.MustConnect(s, a)
	g.MustConnect(s, b)
	g.MustValidate()
	ri, err := g.FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	if ri.Root != s {
		t.Errorf("root = %v, want %v", ri.Root, s)
	}
}

func TestFindRootLemma1Random(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		g := RandomCluster(RandomOptions{
			Switches: 1 + rng.Intn(8),
			Machines: 3 + rng.Intn(30),
			Rand:     rng,
		})
		ri, err := g.FindRoot()
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, g.Format())
		}
		checkRootLemma1(t, g, ri)
		if t.Failed() {
			t.Fatalf("trial %d topology:\n%s", trial, g.Format())
		}
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if err := New().Validate(); err == nil {
			t.Error("want error for empty graph")
		}
	})
	t.Run("no machines", func(t *testing.T) {
		g := New()
		g.MustAddSwitch("s0")
		if err := g.Validate(); err == nil {
			t.Error("want error for machine-less graph")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		g := New()
		a := g.MustAddSwitch("a")
		b := g.MustAddSwitch("b")
		c := g.MustAddSwitch("c")
		m := g.MustAddMachine("m")
		n := g.MustAddMachine("n")
		g.MustConnect(a, b)
		g.MustConnect(b, c)
		g.MustConnect(c, a)
		g.MustConnect(a, m)
		g.MustConnect(b, n)
		if err := g.Validate(); err == nil {
			t.Error("want error for cyclic graph")
		}
	})
	t.Run("disconnected", func(t *testing.T) {
		g := New()
		g.MustAddSwitch("a")
		g.MustAddSwitch("b")
		m := g.MustAddMachine("m")
		n := g.MustAddMachine("n")
		g.MustConnect(m, n)
		if err := g.Validate(); err == nil {
			t.Error("want error for disconnected graph")
		}
	})
	t.Run("machine not leaf", func(t *testing.T) {
		g := New()
		m := g.MustAddMachine("m")
		a := g.MustAddSwitch("a")
		b := g.MustAddSwitch("b")
		n := g.MustAddMachine("n")
		g.MustConnect(a, m)
		g.MustConnect(m, b)
		g.MustConnect(b, n)
		if err := g.Validate(); err == nil {
			t.Error("want error for non-leaf machine")
		}
	})
	t.Run("duplicate name", func(t *testing.T) {
		g := New()
		g.MustAddSwitch("x")
		if _, err := g.AddMachine("x"); err == nil {
			t.Error("want error for duplicate name")
		}
	})
	t.Run("self link", func(t *testing.T) {
		g := New()
		s := g.MustAddSwitch("s")
		if err := g.Connect(s, s); err == nil {
			t.Error("want error for self link")
		}
	})
	t.Run("duplicate link", func(t *testing.T) {
		g := New()
		a := g.MustAddSwitch("a")
		b := g.MustAddSwitch("b")
		g.MustConnect(a, b)
		if err := g.Connect(b, a); err == nil {
			t.Error("want error for duplicate link")
		}
	})
}

func TestParseRoundTrip(t *testing.T) {
	src := `
# Fig. 1 of the paper
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
`
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumMachines() != 6 || g.NumSwitches() != 4 {
		t.Fatalf("parsed %s", g)
	}
	if g.AAPCLoad() != 9 {
		t.Errorf("AAPCLoad = %d, want 9", g.AAPCLoad())
	}
	// Round trip.
	text := g.Format()
	g2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if g2.Format() != text {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", text, g2.Format())
	}
	if g2.NumMachines() != g.NumMachines() || g2.AAPCLoad() != g.AAPCLoad() {
		t.Errorf("round trip changed analysis")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown keyword": "frobnicate s0",
		"unknown node":    "switch s0\nlink s0 s1",
		"bad link arity":  "switch s0 s1\nlink s0",
		"dup name":        "switch s0 s0",
		"not a tree":      "switch s0 s1\nmachine m0 m1\nlink s0 m0\nlink s1 m1",
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: want parse error for %q", name, src)
		}
	}
}

func TestEdgeIndex(t *testing.T) {
	g := fig1(t)
	idx := g.NewEdgeIndex()
	if got, want := idx.Len(), 2*g.NumLinks(); got != want {
		t.Fatalf("EdgeIndex.Len = %d, want %d", got, want)
	}
	seen := map[int]bool{}
	for _, l := range g.Links() {
		for _, e := range []Edge{l, l.Reverse()} {
			id := idx.ID(e)
			if seen[id] {
				t.Errorf("duplicate edge id %d", id)
			}
			seen[id] = true
			if idx.Edge(id) != e {
				t.Errorf("Edge(ID(%v)) = %v", e, idx.Edge(id))
			}
		}
	}
	n0, _ := g.Lookup("n0")
	n3, _ := g.Lookup("n3")
	ids := g.PathIDs(idx, n0, n3)
	if len(ids) != 4 {
		t.Errorf("PathIDs length = %d, want 4", len(ids))
	}
}

// TestAppendPathEdgeIDsInPathOrder: the allocation-free walk yields exactly
// Path's directed edges in Path's order, for every ordered pair of nodes
// (switches included) of random trees, appended after what dst held.
func TestAppendPathEdgeIDsInPathOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		g := RandomCluster(RandomOptions{Switches: 1 + rng.Intn(8), Machines: 2 + rng.Intn(12), Rand: rng})
		idx := g.NewEdgeIndex()
		buf := []int32{-7}
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				buf = g.AppendPathEdgeIDs(idx, u, v, buf[:1])
				path := g.Path(u, v)
				ids := g.PathIDs(idx, u, v)
				if buf[0] != -7 || len(buf)-1 != len(path) || len(ids) != len(path) {
					t.Fatalf("trial %d: %d->%d: appended %v, PathIDs %v, Path %v", trial, u, v, buf, ids, path)
				}
				for i, e := range path {
					if idx.Edge(int(buf[i+1])) != e || idx.Edge(ids[i]) != e {
						t.Fatalf("trial %d: %d->%d: edge %d is %v / %v, Path has %v",
							trial, u, v, i, idx.Edge(int(buf[i+1])), idx.Edge(ids[i]), e)
					}
				}
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if Switch.String() != "switch" || Machine.String() != "machine" {
		t.Error("Kind.String mismatch")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should include numeric value")
	}
}

func TestRandomClusterValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		g := RandomCluster(RandomOptions{
			Switches: 1 + rng.Intn(10),
			Machines: 2 + rng.Intn(40),
			Rand:     rng,
		})
		if err := g.Validate(); err != nil {
			t.Fatalf("random cluster invalid: %v", err)
		}
		// Every pair of machines must have a path whose first edge leaves
		// the source and last edge enters the destination.
		m := g.NumMachines()
		src := rng.Intn(m)
		dst := rng.Intn(m)
		if src != dst {
			p := g.PathBetweenRanks(src, dst)
			if p[0].U != g.MachineID(src) || p[len(p)-1].V != g.MachineID(dst) {
				t.Fatalf("path endpoints wrong: %v", p)
			}
		}
	}
}

func TestValidateRejectsMachineToMachineLink(t *testing.T) {
	g := New()
	a := g.MustAddMachine("a")
	b := g.MustAddMachine("b")
	g.MustConnect(a, b)
	if err := g.Validate(); err == nil {
		t.Error("want error for machine-machine link (no switch)")
	}
}
