package schedule

import (
	"math/rand"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/topology"
)

// gigaStar builds 2 switches with a 10x trunk and 3 machines each.
func gigaStar(t testing.TB) *topology.Graph {
	t.Helper()
	g := topology.New()
	s0 := g.MustAddSwitch("s0")
	s1 := g.MustAddSwitch("s1")
	g.MustConnectSpeed(s0, s1, 10)
	for i, sw := range []int{s0, s0, s0, s1, s1, s1} {
		m := g.MustAddMachine("n" + string(rune('0'+i)))
		g.MustConnect(sw, m)
	}
	return g.MustValidate()
}

func TestVerifyCapacityUniformEqualsStrict(t *testing.T) {
	// On a uniform cluster, VerifyCapacity accepts exactly the schedules the
	// strict verifier accepts.
	g := fig1(t)
	s, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCapacity(g, s); err != nil {
		t.Errorf("paper schedule rejected: %v", err)
	}
	// The full ring is invalid on fig1 (trunk carries several messages).
	if err := VerifyCapacity(g, BuildRing(g)); err == nil {
		t.Error("ring schedule should violate capacity on a uniform cluster")
	}
}

func TestVerifyCapacityAcceptsRingOnGiga(t *testing.T) {
	g := gigaStar(t)
	ring := BuildRing(g)
	if err := VerifyCapacity(g, ring); err != nil {
		t.Errorf("ring rejected on 10x trunk cluster: %v", err)
	}
	if len(ring.Phases) != 5 {
		t.Errorf("ring phases = %d, want N-1 = 5", len(ring.Phases))
	}
}

// TestVerifyCapacitySlowLinkCarriesOne: a link slower than standard carries
// one message per phase, slowly, so the paper's schedule of a cluster with a
// half-speed machine link is valid; two messages on that link are not.
func TestVerifyCapacitySlowLinkCarriesOne(t *testing.T) {
	g := topology.New()
	sw := g.MustAddSwitch("s0")
	g.MustConnectSpeed(sw, g.MustAddMachine("n0"), 0.5)
	for _, name := range []string{"n1", "n2"} {
		g.MustConnect(sw, g.MustAddMachine(name))
	}
	g.MustValidate()
	s, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCapacity(g, s); err != nil {
		t.Errorf("paper schedule rejected: %v", err)
	}
	into := &Schedule{NumRanks: 3, Phases: []Phase{{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}}, {{Src: 0, Dst: 1}}, {{Src: 0, Dst: 2}}, {{Src: 1, Dst: 2}, {Src: 2, Dst: 1}}}}
	if err := VerifyCapacity(g, into); err == nil {
		t.Error("two messages on the half-speed link accepted")
	}
}

func TestVerifyCapacityCatchesDuplicates(t *testing.T) {
	g := gigaStar(t)
	s := BuildRing(g)
	s.Phases[0] = append(s.Phases[0], s.Phases[1][0])
	if err := VerifyCapacity(g, s); err == nil {
		t.Error("want duplicate-message error")
	}
}

func TestWeightedCostValues(t *testing.T) {
	g := gigaStar(t)
	// Paper schedule: one message per link per phase -> cost = phase count.
	paper, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := WeightedCost(g, paper), float64(len(paper.Phases)); got != want {
		t.Errorf("paper weighted cost = %v, want %v", got, want)
	}
	// Ring: each permutation phase is machine-link bound (3 trunk crossings
	// over speed 10 < 1).
	ring := BuildRing(g)
	if got, want := WeightedCost(g, ring), 5.0; got != want {
		t.Errorf("ring weighted cost = %v, want %v", got, want)
	}
}

func TestBuildAutoPicksRingOnGiga(t *testing.T) {
	g := gigaStar(t)
	s, err := BuildAuto(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != 5 {
		t.Errorf("auto picked %d phases, want the 5-phase ring", len(s.Phases))
	}
	bound, err := WeightedBestCasePhases(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := WeightedCost(g, s); got != bound {
		t.Errorf("auto cost %v, want the weighted bound %v", got, bound)
	}
}

func TestBuildAutoKeepsPaperOnUniform(t *testing.T) {
	g := fig1(t)
	s, err := BuildAuto(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != 9 {
		t.Errorf("auto on uniform cluster: %d phases, want the paper's 9", len(s.Phases))
	}
	if err := Verify(g, s, true); err != nil {
		t.Error(err)
	}
}

func TestBuildAutoKeepsPaperWhenRingInvalid(t *testing.T) {
	// A modest 2x trunk cannot absorb the ring's crossings; auto must stay
	// with the paper's schedule.
	g := topology.New()
	s0 := g.MustAddSwitch("s0")
	s1 := g.MustAddSwitch("s1")
	g.MustConnectSpeed(s0, s1, 2)
	for i, sw := range []int{s0, s0, s0, s1, s1, s1} {
		m := g.MustAddMachine("n" + string(rune('0'+i)))
		g.MustConnect(sw, m)
	}
	g.MustValidate()
	s, err := BuildAuto(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != g.AAPCLoad() {
		t.Errorf("auto: %d phases, want paper's %d", len(s.Phases), g.AAPCLoad())
	}
}

func TestBuildAutoRandomHeterogeneous(t *testing.T) {
	// Whatever auto picks must always pass capacity verification and never
	// cost more than the paper's schedule.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		g := topology.New()
		nsw := 2 + rng.Intn(3)
		sws := make([]int, nsw)
		for i := range sws {
			sws[i] = g.MustAddSwitch(machineName(i) + "sw")
			if i > 0 {
				speed := []float64{1, 2, 10}[rng.Intn(3)]
				g.MustConnectSpeed(sws[i-1], sws[i], speed)
			}
		}
		nm := 3 + rng.Intn(9)
		for i := 0; i < nm; i++ {
			m := g.MustAddMachine(machineName(i))
			g.MustConnect(sws[rng.Intn(nsw)], m)
		}
		g.MustValidate()
		auto, err := BuildAuto(g)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, g.Format())
		}
		if err := VerifyCapacity(g, auto); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, g.Format())
		}
		paper, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		if WeightedCost(g, auto) > WeightedCost(g, paper) {
			t.Errorf("trial %d: auto cost %v exceeds paper cost %v",
				trial, WeightedCost(g, auto), WeightedCost(g, paper))
		}
	}
}
