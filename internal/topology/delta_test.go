package topology

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// deltaTestCluster is two switches with two machines each.
func deltaTestCluster(t *testing.T) *Graph {
	t.Helper()
	g, err := ParseString(`
switches s0 s1
machines n0 n1 n2 n3
link s0 s1
link s0 n0
link s0 n1
link s1 n2
link s1 n3
`)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHashStableAndSensitive(t *testing.T) {
	g := deltaTestCluster(t)
	h := g.Hash()
	if len(h) != 16 {
		t.Fatalf("Hash() = %q, want 16 hex chars", h)
	}
	if g.Hash() != h || g.Clone().Hash() != h {
		t.Fatal("hash not stable across calls and Clone")
	}
	g2, _, err := g.ApplyDelta(Delta{Op: OpJoin, Node: "n4", Attach: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Hash() == h {
		t.Fatal("hash unchanged after join")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := deltaTestCluster(t)
	c := g.Clone()
	if c.Format() != g.Format() {
		t.Fatalf("clone differs:\n%s\nvs\n%s", c.Format(), g.Format())
	}
	c.MustAddMachine("extra")
	if c.Format() == g.Format() {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestApplyDeltaJoin(t *testing.T) {
	g := deltaTestCluster(t)
	g2, rd, err := g.ApplyDelta(Delta{Op: OpJoin, Node: "n4", Attach: "s1", Speed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumMachines() != 5 || rd.NumOld != 4 || rd.NumNew != 5 {
		t.Fatalf("join: machines=%d rd=%+v", g2.NumMachines(), rd)
	}
	if len(rd.Added) != 1 || rd.Added[0] != 4 || len(rd.Removed) != 0 {
		t.Fatalf("join rank delta: %+v", rd)
	}
	for r, nr := range rd.OldToNew {
		if r != nr {
			t.Fatalf("join must not renumber survivors: %v", rd.OldToNew)
		}
	}
	id, _ := g2.Lookup("n4")
	sw, _ := g2.Lookup("s1")
	if s := g2.LinkSpeed(Edge{U: min(id, sw), V: max(id, sw)}); s != 2 {
		t.Fatalf("join link speed = %g, want 2", s)
	}
	// The original graph is untouched.
	if g.NumMachines() != 4 {
		t.Fatal("ApplyDelta mutated the receiver")
	}
}

func TestApplyDeltaLeave(t *testing.T) {
	g := deltaTestCluster(t)
	g2, rd, err := g.ApplyDelta(Delta{Op: OpLeave, Node: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumMachines() != 3 {
		t.Fatalf("machines = %d, want 3", g2.NumMachines())
	}
	want := []int{0, -1, 1, 2}
	for r, nr := range rd.OldToNew {
		if nr != want[r] {
			t.Fatalf("OldToNew = %v, want %v", rd.OldToNew, want)
		}
	}
	if len(rd.Removed) != 1 || rd.Removed[0] != 1 {
		t.Fatalf("Removed = %v", rd.Removed)
	}
	// Rank order of survivors is preserved by name.
	for i, name := range []string{"n0", "n2", "n3"} {
		if got := g2.Node(g2.MachineID(i)).Name; got != name {
			t.Fatalf("rank %d = %s, want %s", i, got, name)
		}
	}
}

func TestApplyDeltaSwitchFail(t *testing.T) {
	g := deltaTestCluster(t)
	g2, rd, err := g.ApplyDelta(Delta{Op: OpSwitchFail, Node: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	// s1 and its machines n2, n3 drop; s0 keeps n0, n1.
	if g2.NumMachines() != 2 || g2.NumSwitches() != 1 {
		t.Fatalf("after failswitch: %s", g2)
	}
	if len(rd.Removed) != 2 || rd.Removed[0] != 2 || rd.Removed[1] != 3 {
		t.Fatalf("Removed = %v", rd.Removed)
	}
}

func TestApplyDeltaSwitchJoin(t *testing.T) {
	g := deltaTestCluster(t)
	g2, rd, err := g.ApplyDelta(Delta{Op: OpSwitchJoin, Node: "s2", Attach: "s0"})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumSwitches() != 3 || !rd.Identity() {
		t.Fatalf("switchjoin: switches=%d rd=%+v", g2.NumSwitches(), rd)
	}
	// Machines can then join the new switch.
	if _, _, err := g2.ApplyDelta(Delta{Op: OpJoin, Node: "n4", Attach: "s2"}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	g := deltaTestCluster(t)
	bad := []Delta{
		{Op: OpJoin, Node: "n0", Attach: "s0"},       // duplicate name
		{Op: OpJoin, Node: "n9", Attach: "nope"},     // unknown switch
		{Op: OpJoin, Node: "n9", Attach: "n0"},       // attach to machine
		{Op: OpLeave, Node: "s0"},                    // leave a switch
		{Op: OpLeave, Node: "ghost"},                 // unknown machine
		{Op: OpSwitchFail, Node: "n0"},               // fail a machine
		{Op: OpSwitchJoin, Node: "s0", Attach: "s1"}, // duplicate switch
	}
	for _, d := range bad {
		if _, _, err := g.ApplyDelta(d); err == nil {
			t.Errorf("ApplyDelta(%v): want error", d)
		}
	}
	// The only switch of a star cannot fail, and the last machine cannot
	// leave.
	star, err := ParseString("switch s\nmachines a b\nlink s a\nlink s b\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := star.ApplyDelta(Delta{Op: OpSwitchFail, Node: "s"}); err == nil {
		t.Error("failing the only switch must error")
	}
	one, _, err := star.ApplyDelta(Delta{Op: OpLeave, Node: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := one.ApplyDelta(Delta{Op: OpLeave, Node: "b"}); err == nil {
		t.Error("removing the last machine must error")
	}
}

func TestParseDeltaRoundTrip(t *testing.T) {
	lines := []string{
		"join n9 s2",
		"join n9 s2 2.5",
		"leave n3",
		"failswitch s1",
		"joinswitch s9 s2",
	}
	for _, line := range lines {
		d, err := ParseDelta(line)
		if err != nil {
			t.Fatalf("ParseDelta(%q): %v", line, err)
		}
		if d.Format() != line {
			t.Errorf("round trip %q -> %q", line, d.Format())
		}
	}
	for _, bad := range []string{"", "# comment only", "join", "join a", "leave", "explode n0", "join a b -1"} {
		if _, err := ParseDelta(bad); err == nil {
			t.Errorf("ParseDelta(%q): want error", bad)
		}
	}
	ds, err := ParseDeltas(strings.NewReader("# storm\njoin a s0\n\nleave b # trailing\n"))
	if err != nil || len(ds) != 2 {
		t.Fatalf("ParseDeltas = %v, %v", ds, err)
	}
}

// TestQuickDeltaChainsStayValid applies random delta chains to random
// clusters: every accepted delta must yield a validating cluster with a
// consistent rank mapping.
func TestQuickDeltaChainsStayValid(t *testing.T) {
	prop := func(seed int64, steps uint) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomCluster(RandomOptions{Switches: 1 + rng.Intn(4), Machines: 2 + rng.Intn(8), Rand: rng})
		for step := 0; step < int(steps%12)+1; step++ {
			d := randomDelta(rng, g, step)
			g2, rd, err := g.ApplyDelta(d)
			if err != nil {
				continue // infeasible deltas must fail cleanly, not panic
			}
			if err := g2.Validate(); err != nil {
				t.Logf("delta %v produced invalid graph: %v", d, err)
				return false
			}
			if !rankDeltaConsistent(g, g2, rd) {
				t.Logf("inconsistent rank delta %+v for %v", rd, d)
				return false
			}
			g = g2
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func randomDelta(rng *rand.Rand, g *Graph, step int) Delta {
	switchName := func() string {
		var names []string
		for id := 0; id < g.NumNodes(); id++ {
			if g.Node(id).Kind == Switch {
				names = append(names, g.Node(id).Name)
			}
		}
		return names[rng.Intn(len(names))]
	}
	switch rng.Intn(4) {
	case 0:
		return Delta{Op: OpJoin, Node: nameFor("q", step, rng), Attach: switchName()}
	case 1:
		return Delta{Op: OpLeave, Node: g.Node(g.MachineID(rng.Intn(g.NumMachines()))).Name}
	case 2:
		return Delta{Op: OpSwitchFail, Node: switchName()}
	default:
		return Delta{Op: OpSwitchJoin, Node: nameFor("w", step, rng), Attach: switchName()}
	}
}

func nameFor(prefix string, step int, rng *rand.Rand) string {
	return prefix + string(rune('a'+rng.Intn(26))) + string(rune('0'+step%10))
}

// rankDeltaConsistent cross-checks the mapping against machine names.
func rankDeltaConsistent(oldG, newG *Graph, rd *RankDelta) bool {
	if rd.NumOld != oldG.NumMachines() || rd.NumNew != newG.NumMachines() {
		return false
	}
	if len(rd.OldToNew) != rd.NumOld {
		return false
	}
	removed := 0
	for r, nr := range rd.OldToNew {
		name := oldG.Node(oldG.MachineID(r)).Name
		if nr < 0 {
			removed++
			if _, ok := newG.Lookup(name); ok {
				return false // mapped to -1 but still present
			}
			continue
		}
		if nr >= rd.NumNew || newG.Node(newG.MachineID(nr)).Name != name {
			return false
		}
	}
	if removed != len(rd.Removed) {
		return false
	}
	for _, nr := range rd.Added {
		name := newG.Node(newG.MachineID(nr)).Name
		if _, ok := oldG.Lookup(name); ok {
			return false // "added" machine already existed
		}
	}
	return rd.NumNew == rd.NumOld-len(rd.Removed)+len(rd.Added)
}

// FuzzTopologyDelta throws arbitrary text at the delta parser and applies
// whatever it accepts to a small cluster: the parser must never panic,
// accepted deltas must round-trip through Format, and successful
// applications must produce validating clusters with consistent rank
// mappings.
func FuzzTopologyDelta(f *testing.F) {
	f.Add("join n9 s0")
	f.Add("join n9 s1 2.5")
	f.Add("leave n2")
	f.Add("failswitch s1")
	f.Add("joinswitch s7 s0")
	f.Add("leave   n0   # comment")
	f.Add("join \xff s0")
	f.Fuzz(func(t *testing.T, line string) {
		d, err := ParseDelta(line)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		d2, err := ParseDelta(d.Format())
		if err != nil || d2 != d {
			t.Fatalf("delta round trip: %+v -> %q -> %+v, %v", d, d.Format(), d2, err)
		}
		g, perr := ParseString(`
switches s0 s1
machines n0 n1 n2 n3
link s0 s1
link s0 n0
link s0 n1
link s1 n2
link s1 n3
`)
		if perr != nil {
			t.Fatal(perr)
		}
		g2, rd, err := g.ApplyDelta(d)
		if err != nil {
			return // infeasible against this cluster; clean rejection
		}
		if err := g2.Validate(); err != nil {
			t.Fatalf("accepted delta %v produced invalid cluster: %v", d, err)
		}
		if !rankDeltaConsistent(g, g2, rd) {
			t.Fatalf("inconsistent rank delta %+v for %v", rd, d)
		}
	})
}
