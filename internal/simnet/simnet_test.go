package simnet

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// starGraph builds n machines on one switch.
func starGraph(t testing.TB, n int) *topology.Graph {
	t.Helper()
	g := topology.New()
	sw := g.MustAddSwitch("sw")
	for i := 0; i < n; i++ {
		m := g.MustAddMachine(fmt.Sprintf("n%d", i))
		g.MustConnect(sw, m)
	}
	return g.MustValidate()
}

// near asserts a relative tolerance of 1e-6.
func near(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %.9g, want %.9g", name, got, want)
	}
}

const (
	testBW    = 1e6  // 1 MB/s for easy arithmetic
	testAlpha = 1e-3 // 1 ms startup
)

func newTestWorld(t *testing.T, g *topology.Graph, minEff float64) *World {
	t.Helper()
	w, err := NewWorld(Config{
		Graph:          g,
		LinkBandwidth:  testBW,
		StartupLatency: testAlpha,
		MinEfficiency:  minEff,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSingleMessageTiming(t *testing.T) {
	g := starGraph(t, 2)
	w := newTestWorld(t, g, 1)
	const size = 50000
	err := w.Run(func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return mpi.Send(c, make([]byte, size), 1, 0)
		}
		return mpi.Recv(c, make([]byte, size), 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "elapsed", w.Elapsed(), testAlpha+size/testBW)
}

func TestDataIntegrity(t *testing.T) {
	g := starGraph(t, 2)
	w := newTestWorld(t, g, 1)
	payload := []byte("the quick brown fox jumps over the lazy dog")
	got := make([]byte, len(payload))
	err := w.Run(func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return mpi.Send(c, payload, 1, 5)
		}
		return mpi.Recv(c, got, 0, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload corrupted: %q", got)
	}
}

func TestFullDuplexNoContention(t *testing.T) {
	// Opposite directions of a link are independent channels: a<->b swap
	// takes the same time as a single message.
	g := starGraph(t, 2)
	w := newTestWorld(t, g, 0.6)
	const size = 30000
	err := w.Run(func(c mpi.Comm) error {
		peer := 1 - c.Rank()
		return mpi.Sendrecv(c, make([]byte, size), peer, 0, make([]byte, size), peer, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "elapsed", w.Elapsed(), testAlpha+size/testBW)
}

func TestSharedLinkFairSharing(t *testing.T) {
	// Two equal flows into the same machine share its downlink. With ideal
	// efficiency each gets B/2.
	g := starGraph(t, 3)
	w := newTestWorld(t, g, 1)
	const size = 40000
	err := w.Run(func(c mpi.Comm) error {
		switch c.Rank() {
		case 0:
			return mpi.Send(c, make([]byte, size), 2, 0)
		case 1:
			return mpi.Send(c, make([]byte, size), 2, 0)
		default:
			r0 := mpi.Irecv(c, make([]byte, size), 0, 0)
			r1 := mpi.Irecv(c, make([]byte, size), 1, 0)
			return mpi.WaitAll([]mpi.Request{r0, r1})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "elapsed", w.Elapsed(), testAlpha+2*size/testBW)
}

func TestCongestionPenalty(t *testing.T) {
	// Same scenario with MinEfficiency = 0.6: the shared link runs at
	// eff(2) = 0.8 of capacity, so each flow gets 0.4 B.
	g := starGraph(t, 3)
	w := newTestWorld(t, g, 0.6)
	const size = 40000
	err := w.Run(func(c mpi.Comm) error {
		switch c.Rank() {
		case 0, 1:
			return mpi.Send(c, make([]byte, size), 2, 0)
		default:
			r0 := mpi.Irecv(c, make([]byte, size), 0, 0)
			r1 := mpi.Irecv(c, make([]byte, size), 1, 0)
			return mpi.WaitAll([]mpi.Request{r0, r1})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "elapsed", w.Elapsed(), testAlpha+size/(0.4*testBW))
}

func TestMaxMinRecomputeAfterCompletion(t *testing.T) {
	// Unequal flows: 10000 and 30000 bytes share a link (ideal fluid). Both
	// run at B/2 until the short one finishes (t1 = 20000/B); the long one
	// then gets full bandwidth for its remaining 20000 bytes.
	g := starGraph(t, 3)
	w := newTestWorld(t, g, 1)
	err := w.Run(func(c mpi.Comm) error {
		switch c.Rank() {
		case 0:
			return mpi.Send(c, make([]byte, 10000), 2, 0)
		case 1:
			return mpi.Send(c, make([]byte, 30000), 2, 0)
		default:
			r0 := mpi.Irecv(c, make([]byte, 10000), 0, 0)
			r1 := mpi.Irecv(c, make([]byte, 30000), 1, 0)
			return mpi.WaitAll([]mpi.Request{r0, r1})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "elapsed", w.Elapsed(), testAlpha+20000/testBW+20000/testBW)
}

func TestInterSwitchBottleneck(t *testing.T) {
	// Two switches with two machines each; two flows crossing the trunk
	// share it (ideal fluid -> B/2 each), while their machine links are
	// uncontended.
	g := topology.New()
	s0 := g.MustAddSwitch("s0")
	s1 := g.MustAddSwitch("s1")
	g.MustConnect(s0, s1)
	var m [4]int
	for i := range m {
		m[i] = g.MustAddMachine(fmt.Sprintf("n%d", i))
	}
	g.MustConnect(s0, m[0])
	g.MustConnect(s0, m[1])
	g.MustConnect(s1, m[2])
	g.MustConnect(s1, m[3])
	g.MustValidate()
	w := newTestWorld(t, g, 1)
	const size = 25000
	err := w.Run(func(c mpi.Comm) error {
		switch c.Rank() {
		case 0:
			return mpi.Send(c, make([]byte, size), 2, 0)
		case 1:
			return mpi.Send(c, make([]byte, size), 3, 0)
		case 2:
			return mpi.Recv(c, make([]byte, size), 0, 0)
		default:
			return mpi.Recv(c, make([]byte, size), 1, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "elapsed", w.Elapsed(), testAlpha+2*size/testBW)
}

func TestStartupLatencySerializesPhases(t *testing.T) {
	// Two back-to-back messages on the same path pay alpha twice.
	g := starGraph(t, 2)
	w := newTestWorld(t, g, 1)
	const size = 10000
	err := w.Run(func(c mpi.Comm) error {
		for round := 0; round < 2; round++ {
			if c.Rank() == 0 {
				if err := mpi.Send(c, make([]byte, size), 1, round); err != nil {
					return err
				}
			} else {
				if err := mpi.Recv(c, make([]byte, size), 0, round); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "elapsed", w.Elapsed(), 2*(testAlpha+size/testBW))
}

func TestSelfMessage(t *testing.T) {
	g := starGraph(t, 2)
	w := newTestWorld(t, g, 1)
	data := []byte("self")
	got := make([]byte, 4)
	err := w.Run(func(c mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		r := mpi.Irecv(c, got, 0, 0)
		if err := mpi.Send(c, data, 0, 0); err != nil {
			return err
		}
		return mpi.Wait(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "self" {
		t.Errorf("self message corrupted: %q", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	g := starGraph(t, 2)
	w := newTestWorld(t, g, 1)
	err := w.Run(func(c mpi.Comm) error {
		if c.Rank() == 0 {
			// Receive that will never be matched.
			return mpi.Recv(c, make([]byte, 1), 1, 42)
		}
		return nil
	})
	if err == nil {
		t.Fatal("want deadlock error, got success")
	}
}

func TestBarrierCost(t *testing.T) {
	g := starGraph(t, 4)
	w, err := NewWorld(Config{
		Graph:          g,
		LinkBandwidth:  testBW,
		StartupLatency: testAlpha,
		MinEfficiency:  1,
		BarrierLatency: 7e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c mpi.Comm) error { return c.Barrier() }); err != nil {
		t.Fatal(err)
	}
	near(t, "elapsed", w.Elapsed(), 7e-3)
}

func TestBarrierSeparatesRounds(t *testing.T) {
	g := starGraph(t, 2)
	w, err := NewWorld(Config{
		Graph:          g,
		LinkBandwidth:  testBW,
		StartupLatency: testAlpha,
		MinEfficiency:  1,
		BarrierLatency: 2e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const size = 10000
	err = w.Run(func(c mpi.Comm) error {
		if c.Rank() == 0 {
			if err := mpi.Send(c, make([]byte, size), 1, 0); err != nil {
				return err
			}
		} else if err := mpi.Recv(c, make([]byte, size), 0, 0); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			return mpi.Send(c, make([]byte, size), 0, 1)
		}
		return mpi.Recv(c, make([]byte, size), 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "elapsed", w.Elapsed(), (testAlpha+size/testBW)+2e-3+(testAlpha+size/testBW))
}

// TestDeterminism replays each program several times and requires
// bit-identical output: the elapsed virtual time, every rank's
// instrumented event stream and every rank's error. The rank goroutines
// interleave differently on every run; none of that may reach the output.
// The cases are a fully concurrent exchange, the paper's scheduled routine
// on topology (b) with jittered startup latencies, a program that
// deadlocks after partial progress, with one rank already gone, rounds
// separated by barriers under jitter, an exchange contending on links of
// two speeds, and an exchange in which one receive is truncated.
func TestDeterminism(t *testing.T) {
	cases := []struct {
		name    string
		cfg     func(t *testing.T) Config
		prog    func(t *testing.T) func(c mpi.Comm) error
		failing []int // the ranks whose program returns an error
	}{
		{
			name: "star-exchange",
			cfg: func(t *testing.T) Config {
				return Config{Graph: starGraph(t, 8), LinkBandwidth: testBW, StartupLatency: testAlpha, MinEfficiency: 0.6}
			},
			prog: func(*testing.T) func(c mpi.Comm) error { return postAllAAPC(20000) },
		},
		{
			name: "scheduled-b-jitter",
			cfg:  func(*testing.T) Config { return benchConfig(topologyB(), 0.5) },
			prog: func(t *testing.T) func(c mpi.Comm) error {
				g := topologyB()
				s, err := schedule.Build(g)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := syncplan.Build(g, s)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := alltoall.NewScheduled(s, plan, alltoall.PairwiseSync)
				if err != nil {
					t.Fatal(err)
				}
				const msize = 4096
				return func(c mpi.Comm) error {
					return sc.Fn()(c, alltoall.NewContig(c.Size(), msize), msize)
				}
			},
		},
		{
			name: "deadlock-after-progress",
			cfg: func(t *testing.T) Config {
				return Config{Graph: starGraph(t, 6), LinkBandwidth: testBW, StartupLatency: testAlpha, MinEfficiency: 0.6}
			},
			prog:    func(*testing.T) func(c mpi.Comm) error { return deadlockAfterRing },
			failing: []int{1, 2, 3, 4, 5},
		},
		{
			name: "barrier-rounds-jitter",
			cfg: func(t *testing.T) Config {
				return Config{Graph: starGraph(t, 8), LinkBandwidth: testBW, StartupLatency: testAlpha, MinEfficiency: 0.6, JitterFrac: 0.3, JitterSeed: 2}
			},
			prog: func(*testing.T) func(c mpi.Comm) error { return shiftsWithBarriers },
		},
		{
			name: "uneven-trunk-contention",
			cfg: func(t *testing.T) Config {
				return Config{Graph: unevenTrunk(), LinkBandwidth: testBW, StartupLatency: testAlpha, MinEfficiency: 0.6}
			},
			prog: func(*testing.T) func(c mpi.Comm) error { return postAllAAPC(7000) },
		},
		{
			name: "truncated-recv",
			cfg: func(t *testing.T) Config {
				return Config{Graph: starGraph(t, 4), LinkBandwidth: testBW, StartupLatency: testAlpha, MinEfficiency: 0.6}
			},
			prog:    func(*testing.T) func(c mpi.Comm) error { return truncatedRing },
			failing: []int{0, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, prog := tc.cfg(t), tc.prog(t)
			want := replay(t, cfg, prog)
			for r, e := range want.errs {
				if failing := slices.Contains(tc.failing, r); failing != (e != "") {
					t.Fatalf("rank %d error %q, want failing=%v", r, e, failing)
				}
			}
			for i := 0; i < 5; i++ {
				got := replay(t, cfg, prog)
				if got.elapsed != want.elapsed {
					t.Fatalf("replay %d: elapsed %.12g, first run %.12g", i, got.elapsed, want.elapsed)
				}
				for r := range want.errs {
					if got.errs[r] != want.errs[r] {
						t.Fatalf("replay %d: rank %d error %q, first run %q", i, r, got.errs[r], want.errs[r])
					}
					if !reflect.DeepEqual(got.events[r], want.events[r]) {
						t.Fatalf("replay %d: rank %d event stream differs:\n%+v\nfirst run:\n%+v", i, r, got.events[r], want.events[r])
					}
				}
			}
		})
	}
}

// replayed is what one run of a program shows: elapsed virtual time and,
// per rank, the instrumented events and the error text.
type replayed struct {
	elapsed float64
	events  [][]obsv.Event
	errs    []string
}

// replay runs prog once on a fresh world built from cfg, every rank
// instrumented.
func replay(t *testing.T, cfg Config, prog func(c mpi.Comm) error) replayed {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Graph.NumMachines()
	recs := make([]*obsv.Recorder, n)
	for i := range recs {
		recs[i] = obsv.NewRecorder(i)
	}
	out := replayed{events: make([][]obsv.Event, n), errs: make([]string, n)}
	// A rank's error is recorded, not returned, so Run fails only on a panic.
	if err := w.Run(func(c mpi.Comm) error {
		if err := prog(obsv.Instrument(c, recs[c.Rank()])); err != nil {
			out.errs[c.Rank()] = err.Error()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	out.elapsed = w.Elapsed()
	for i, r := range recs {
		out.events[i] = r.Events()
	}
	return out
}

// deadlockAfterRing completes one ring exchange, then rank 0 returns and
// every other rank posts a send and a receive that nothing matches: rank r
// sends tag 1 to r+1 and receives tag 2 from r-1. The run deadlocks with
// sends and receives pending toward several peers.
func deadlockAfterRing(c mpi.Comm) error {
	n, me := c.Size(), c.Rank()
	next, prev := (me+1)%n, (me+n-1)%n
	if err := mpi.WaitAll([]mpi.Request{
		mpi.Irecv(c, make([]byte, 3000), prev, 0),
		mpi.Isend(c, make([]byte, 3000), next, 0),
	}); err != nil {
		return err
	}
	if me == 0 {
		return nil
	}
	return mpi.WaitAll([]mpi.Request{
		mpi.Isend(c, make([]byte, 1000), next, 1),
		mpi.Irecv(c, make([]byte, 1000), prev, 2),
	})
}

// shiftsWithBarriers runs three ring shifts of different distance and size,
// each separated from the next by a barrier, so barrier release and the
// jittered startups of every round decide the timing.
func shiftsWithBarriers(c mpi.Comm) error {
	n, me := c.Size(), c.Rank()
	for round, shift := range []int{1, 3, 5} {
		size := 1000 * (round + 1) * shift
		if err := mpi.WaitAll([]mpi.Request{
			mpi.Irecv(c, make([]byte, size), (me+n-shift)%n, round),
			mpi.Isend(c, make([]byte, size), (me+shift)%n, round),
		}); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// truncatedRing is one ring exchange in which rank 1 posts a receive
// buffer too small for rank 0's message: ranks 0 and 1 end with the
// truncation error and every other rank completes.
func truncatedRing(c mpi.Comm) error {
	n, me := c.Size(), c.Rank()
	recv := 5000
	if me == 1 {
		recv = 500
	}
	return mpi.WaitAll([]mpi.Request{
		mpi.Irecv(c, make([]byte, recv), (me+n-1)%n, 0),
		mpi.Isend(c, make([]byte, 5000), (me+1)%n, 0),
	})
}

// unevenTrunk is two switches of four machines each joined by a trunk of
// twice machine-link speed: an all-to-all contends on the trunk and on the
// machine links at once, at two different capacities.
func unevenTrunk() *topology.Graph {
	g := topology.New()
	s0, s1 := g.MustAddSwitch("s0"), g.MustAddSwitch("s1")
	g.MustConnectSpeed(s0, s1, 2)
	for i := 0; i < 8; i++ {
		g.MustConnect([]int{s0, s1}[i/4], g.MustAddMachine(fmt.Sprintf("h%d", i)))
	}
	return g.MustValidate()
}

// topologyB is Fig. 5(b): 32 machines, 8 per switch, with switches s1, s2
// and s3 each connected to s0.
func topologyB() *topology.Graph {
	return fourSwitches32(func(g *topology.Graph, s [4]int) {
		for i := 1; i < 4; i++ {
			g.MustConnect(s[0], s[i])
		}
	})
}

// topologyC is Fig. 5(c): the same 32 machines on switches chained
// s0-s1-s2-s3.
func topologyC() *topology.Graph {
	return fourSwitches32(func(g *topology.Graph, s [4]int) {
		for i := 1; i < 4; i++ {
			g.MustConnect(s[i-1], s[i])
		}
	})
}

// fourSwitches32 puts 32 machines on four switches, 8 each in rank order,
// with the switches wired by connect.
func fourSwitches32(connect func(g *topology.Graph, s [4]int)) *topology.Graph {
	g := topology.New()
	var s [4]int
	for i := range s {
		s[i] = g.MustAddSwitch(fmt.Sprintf("s%d", i))
	}
	connect(g, s)
	for i := 0; i < 32; i++ {
		g.MustConnect(s[i/8], g.MustAddMachine(fmt.Sprintf("n%d", i)))
	}
	return g.MustValidate()
}

func TestLinkStatsAccounting(t *testing.T) {
	g := starGraph(t, 2)
	w := newTestWorld(t, g, 1)
	const size = 12345
	err := w.Run(func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return mpi.Send(c, make([]byte, size), 1, 0)
		}
		return mpi.Recv(c, make([]byte, size), 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, ls := range w.LinkStats() {
		total += ls.Bytes
	}
	// The message crosses two directed links (n0->sw, sw->n1).
	near(t, "total link bytes", total, 2*size)
	if w.FlowCount() != 1 {
		t.Errorf("FlowCount = %d, want 1", w.FlowCount())
	}
}

func TestTruncationDetected(t *testing.T) {
	g := starGraph(t, 2)
	w := newTestWorld(t, g, 1)
	err := w.Run(func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return mpi.Send(c, make([]byte, 100), 1, 0)
		}
		return mpi.Recv(c, make([]byte, 10), 0, 0)
	})
	if err == nil {
		t.Fatal("want truncation error")
	}
}

func TestConfigValidation(t *testing.T) {
	g := starGraph(t, 2)
	cases := []Config{
		{},
		{Graph: g, LinkBandwidth: -1},
		{Graph: g, StartupLatency: -1},
		{Graph: g, MinEfficiency: 1.5},
		{Graph: g, MinEfficiency: -0.1},
	}
	for i, cfg := range cases {
		if _, err := NewWorld(cfg); err == nil {
			t.Errorf("case %d: want config error", i)
		}
	}
	// Defaults fill in.
	w, err := NewWorld(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if w.cfg.LinkBandwidth != DefaultLinkBandwidth ||
		w.cfg.StartupLatency != DefaultStartupLatency ||
		w.cfg.MinEfficiency != DefaultMinEfficiency ||
		w.cfg.BarrierLatency <= 0 {
		t.Errorf("defaults not applied: %+v", w.cfg)
	}
}

func TestManyRanksAllToAllFinishes(t *testing.T) {
	// Smoke test at the paper's scale: 24 ranks, naive all-to-all.
	g := starGraph(t, 24)
	w := newTestWorld(t, g, 0.6)
	const size = 8192
	err := w.Run(func(c mpi.Comm) error {
		n := c.Size()
		var reqs []mpi.Request
		for off := 1; off < n; off++ {
			p := (c.Rank() + off) % n
			reqs = append(reqs, mpi.Irecv(c, make([]byte, size), p, 0))
			reqs = append(reqs, mpi.Isend(c, make([]byte, size), p, 0))
		}
		return mpi.WaitAll(reqs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Elapsed() <= 0 {
		t.Error("no virtual time elapsed")
	}
	// Lower bound: a machine link must carry 23 messages.
	if lb := 23 * size / testBW; w.Elapsed() < lb {
		t.Errorf("elapsed %.6g below physical lower bound %.6g", w.Elapsed(), lb)
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	run := func(frac float64, seed uint64) float64 {
		g := starGraph(t, 6)
		w, err := NewWorld(Config{
			Graph:          g,
			LinkBandwidth:  testBW,
			StartupLatency: testAlpha,
			MinEfficiency:  1,
			JitterFrac:     frac,
			JitterSeed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c mpi.Comm) error {
			n := c.Size()
			var reqs []mpi.Request
			for p := 0; p < n; p++ {
				if p == c.Rank() {
					continue
				}
				reqs = append(reqs, mpi.Irecv(c, make([]byte, 5000), p, 0))
				reqs = append(reqs, mpi.Isend(c, make([]byte, 5000), p, 0))
			}
			return mpi.WaitAll(reqs)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Elapsed()
	}
	base := run(0, 1)
	j1a := run(0.5, 1)
	j1b := run(0.5, 1)
	j2 := run(0.5, 2)
	if j1a != j1b {
		t.Errorf("same seed gave different times: %v vs %v", j1a, j1b)
	}
	if j1a == j2 {
		t.Errorf("different seeds gave identical times: %v", j1a)
	}
	if j1a < base {
		t.Errorf("jitter %v should not beat the jitter-free run %v", j1a, base)
	}
	// Jitter adds at most JitterFrac * alpha per message on the critical
	// path; with everything concurrent that is one extra alpha at most.
	if j1a > base+0.5*testAlpha+1e-9 {
		t.Errorf("jitter overhead too large: %v vs %v", j1a, base)
	}
}

func TestJitterValidation(t *testing.T) {
	g := starGraph(t, 2)
	if _, err := NewWorld(Config{Graph: g, JitterFrac: -0.5}); err == nil {
		t.Error("want error for negative jitter")
	}
}

func TestHeterogeneousLinkSpeeds(t *testing.T) {
	// Two flows crossing a 10x trunk both run at full machine-link rate:
	// the trunk has capacity to spare, so elapsed time matches a single
	// uncontended transfer.
	g := topology.New()
	s0 := g.MustAddSwitch("s0")
	s1 := g.MustAddSwitch("s1")
	g.MustConnectSpeed(s0, s1, 10)
	var m [4]int
	for i := range m {
		m[i] = g.MustAddMachine(fmt.Sprintf("h%d", i))
	}
	g.MustConnect(s0, m[0])
	g.MustConnect(s0, m[1])
	g.MustConnect(s1, m[2])
	g.MustConnect(s1, m[3])
	g.MustValidate()
	w := newTestWorld(t, g, 1)
	const size = 20000
	err := w.Run(func(c mpi.Comm) error {
		switch c.Rank() {
		case 0:
			return mpi.Send(c, make([]byte, size), 2, 0)
		case 1:
			return mpi.Send(c, make([]byte, size), 3, 0)
		case 2:
			return mpi.Recv(c, make([]byte, size), 0, 0)
		default:
			return mpi.Recv(c, make([]byte, size), 1, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "elapsed", w.Elapsed(), testAlpha+size/testBW)
}

func TestControlLatency(t *testing.T) {
	// A 32-byte message pays the control latency; a large one pays the full
	// startup latency.
	run := func(size int, control float64) float64 {
		g := starGraph(t, 2)
		w, err := NewWorld(Config{
			Graph:          g,
			LinkBandwidth:  testBW,
			StartupLatency: testAlpha,
			MinEfficiency:  1,
			ControlLatency: control,
		})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c mpi.Comm) error {
			if c.Rank() == 0 {
				return mpi.Send(c, make([]byte, size), 1, 0)
			}
			return mpi.Recv(c, make([]byte, size), 0, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Elapsed()
	}
	const ctl = 1e-4
	near(t, "small with control latency", run(32, ctl), ctl+32/testBW)
	near(t, "large unaffected", run(10000, ctl), testAlpha+10000/testBW)
	near(t, "small without knob", run(32, 0), testAlpha+32/testBW)
	if _, err := NewWorld(Config{Graph: starGraph(t, 2), ControlLatency: -1}); err == nil {
		t.Error("want error for negative control latency")
	}
}

// TestCommNowAndEvents checks virtual time through Comm.Now and the
// simulator's trace output: an instrumented send/receive pair records one
// event each, posted at 0, linked by the send's context, both stamped with
// the virtual time the last byte arrived.
func TestCommNowAndEvents(t *testing.T) {
	if !obsv.Enabled {
		t.Skip("instrumentation compiled out (obsv_off)")
	}
	g := starGraph(t, 2)
	w := newTestWorld(t, g, 1)
	recs := []*obsv.Recorder{obsv.NewRecorder(0), obsv.NewRecorder(1)}
	var mid float64
	err := w.Run(func(raw mpi.Comm) error {
		c := obsv.Instrument(raw, recs[raw.Rank()])
		if c.Rank() == 0 {
			if err := mpi.Send(c, make([]byte, 5000), 1, 3); err != nil {
				return err
			}
			mid = c.Now()
			return nil
		}
		return mpi.Recv(c, make([]byte, 5000), 0, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if mid <= 0 {
		t.Error("Now did not advance with virtual time")
	}
	sends, recvs := recs[0].Events(), recs[1].Events()
	if len(sends) != 1 || len(recvs) != 1 {
		t.Fatalf("recorded %d send and %d recv events, want 1 each", len(sends), len(recvs))
	}
	s, r := sends[0], recvs[0]
	if s.Kind != obsv.KindSend || s.Peer != 1 || s.Tag != 3 || s.Bytes != 5000 {
		t.Errorf("send event = %+v", s)
	}
	if r.Kind != obsv.KindRecv || r.Peer != 0 || r.Tag != 3 || r.LinkSeq != s.Seq {
		t.Errorf("recv event = %+v, want linked to send seq %d", r, s.Seq)
	}
	finish := testAlpha + 5000/testBW
	if s.Start != 0 || r.Start != 0 {
		t.Errorf("posted at %v/%v, want 0", s.Start, r.Start)
	}
	near(t, "send deliver", s.Deliver, finish)
	near(t, "recv deliver", r.Deliver, finish)
	near(t, "send end", s.End, finish)
	near(t, "Now after send", mid, finish)
}

func TestPostAfterDeadlockErrors(t *testing.T) {
	g := starGraph(t, 2)
	w := newTestWorld(t, g, 1)
	if err := w.Run(postAfterDeadlock); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierAfterDeadlockFails has two ranks enter a barrier after the
// world deadlocked while the third leaves without it. Once the third is
// gone (it lingers in wall time so that it leaves last), the barrier can
// never complete and must fail rather than spin holding the engine lock.
func TestBarrierAfterDeadlockFails(t *testing.T) {
	w := newTestWorld(t, starGraph(t, 3), 1)
	errs := make([]error, 3)
	err := w.Run(func(c mpi.Comm) error {
		me := c.Rank()
		if err := mpi.Recv(c, make([]byte, 1), (me+1)%3, 9); err == nil {
			return fmt.Errorf("rank %d: deadlocked recv returned nil", me)
		}
		if me == 2 {
			time.Sleep(20 * time.Millisecond)
			return nil
		}
		errs[me] = c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range errs[:2] {
		if err == nil {
			t.Errorf("rank %d: barrier after deadlock returned nil", r)
		}
	}
}

// postAfterDeadlock has rank 0 deadlock on a receive nothing matches; a
// second op posted after the failure must error immediately.
func postAfterDeadlock(c mpi.Comm) error {
	if c.Rank() != 0 {
		return nil
	}
	if e := mpi.Recv(c, make([]byte, 1), 1, 9); e == nil {
		return fmt.Errorf("deadlocked recv returned nil")
	}
	if r := mpi.Isend(c, make([]byte, 1), 1, 10); mpi.Wait(r) == nil {
		return fmt.Errorf("post-deadlock send returned nil")
	}
	return nil
}
