package simnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// solvers names the two max-min solvers for subtests.
var solvers = []struct {
	name  string
	dense bool
}{{"fast", false}, {"reference", true}}

// ratesTestEngine builds a bare engine (no running ranks) for solver-only
// tests; dense selects the reference solver.
func ratesTestEngine(t testing.TB, g *topology.Graph, dense bool) *engine {
	t.Helper()
	base := Config{Graph: g, dense: dense}
	cfg, err := base.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(cfg)
}

// injectFlow activates a synthetic flow directly in the engine, bypassing
// the message-matching machinery, exactly as advance does on an activation
// event.
func injectFlow(e *engine, src, dst int, size float64) {
	f := &flow{
		src:    src,
		dst:    dst,
		path:   e.pathOf(src, dst),
		size:   size,
		remain: size,
	}
	f.actIdx = len(e.act)
	e.act = append(e.act, f)
	if !e.dense {
		e.attachFlow(f)
	}
}

// popFlow deactivates the most recently injected flow, as a completion does.
func popFlow(e *engine) {
	last := len(e.act) - 1
	f := e.act[last]
	e.act[last] = nil
	e.act = e.act[:last]
	if !e.dense {
		e.detachFlow(f)
	}
}

// within1e9 is the equivalence bound: 1e-9 relative error (absolute below
// one byte/second).
func within1e9(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// randomFlowSet draws a random multiset of (src, dst) demands on n ranks;
// duplicates are frequent by construction, exercising aggregation weights.
func randomFlowSet(rng *rand.Rand, n int) [][2]int {
	nf := 1 + rng.Intn(4*n)
	set := make([][2]int, 0, nf)
	for i := 0; i < nf; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if rng.Intn(3) == 0 && len(set) > 0 {
			// Reuse an existing pair to force aggregate weights > 1.
			set = append(set, set[rng.Intn(len(set))])
			continue
		}
		set = append(set, [2]int{src, dst})
	}
	return set
}

// TestRateEnginesAgreeQuick is the equivalence property test: on random
// trees with random flow multisets, the aggregated solver must reproduce
// the dense reference solver's max-min rates within 1e-9 relative error
// (they agree bit-for-bit in practice; the epsilon only covers degenerate
// share tie-breaks). Each quick iteration also removes a random suffix of
// flows and re-solves, exercising the incremental detach path.
func TestRateEnginesAgreeQuick(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.RandomCluster(topology.RandomOptions{
			Switches: 1 + rng.Intn(6),
			Machines: 2 + rng.Intn(24),
			Rand:     rng,
		})
		n := g.NumMachines()
		fast := ratesTestEngine(t, g, false)
		dense := ratesTestEngine(t, g, true)
		for round := 0; round < 3; round++ {
			for _, p := range randomFlowSet(rng, n) {
				size := float64(1+rng.Intn(1<<20)) * (1 + rng.Float64())
				injectFlow(fast, p[0], p[1], size)
				injectFlow(dense, p[0], p[1], size)
			}
			fast.assignRates()
			dense.assignRates()
			if len(fast.act) != len(dense.act) {
				t.Fatalf("seed %d: flow count mismatch", seed)
			}
			for i, ff := range fast.act {
				df := dense.act[i]
				if !within1e9(ff.rate, df.rate) {
					t.Logf("seed %d round %d: flow %d (%d->%d) fast rate %g, dense rate %g",
						seed, round, i, ff.src, ff.dst, ff.rate, df.rate)
					return false
				}
			}
			for eid := range fast.linkRate {
				fr, dr := fast.linkRate[eid], dense.linkRate[eid]
				if !within1e9(fr, dr) {
					t.Logf("seed %d round %d: edge %d fast link rate %g, dense %g",
						seed, round, eid, fr, dr)
					return false
				}
			}
			// Complete a random suffix before the next wave of demands.
			drop := rng.Intn(len(fast.act) + 1)
			for i := 0; i < drop; i++ {
				popFlow(fast)
				popFlow(dense)
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRateEngineEndToEndIdentical runs full AAPC programs under both
// solvers, every rank instrumented, and requires bit-identical results: the
// same Elapsed, the same event stream on every rank — every Start, End and
// Deliver — and the same LinkStats. The programs are a jittered and an
// unjittered post-all exchange on a switch chain, the benchmark's own
// Fig. 7 and Fig. 8 cells (Ours, LAM and MPICH at 64 KiB on topologies (b)
// and (c) under the default cost model), and barrier-separated rounds, in
// which every link goes idle during each barrier and busy again after it,
// so a stale rate left on an idle link would show in LinkStats. This is
// the regression gate that keeps the fast engine a drop-in replacement
// rather than an approximation.
func TestRateEngineEndToEndIdentical(t *testing.T) {
	if !obsv.Enabled {
		t.Skip("instrumentation compiled out (obsv_off)")
	}
	const msize = 64 << 10
	fig := func(fn alltoall.Func) func(c mpi.Comm) error {
		return func(c mpi.Comm) error { return fn(c, alltoall.NewShared(msize), msize) }
	}
	chain := benchCluster(24)
	b, c := topologyB(), topologyC()
	cases := []struct {
		name string
		cfg  Config
		prog func(c mpi.Comm) error
		// delivered is the number of events that must carry a delivery
		// time (both sides of every message); 0 skips the count.
		delivered int
	}{
		{"jitter=0", benchConfig(chain, 0), postAllAAPC(4 << 10), 2 * 24 * 23},
		{"jitter=0.3", benchConfig(chain, 0.3), postAllAAPC(4 << 10), 2 * 24 * 23},
		{"b/ours", Config{Graph: b}, fig(oursFn(t, b)), 0},
		{"b/lam", Config{Graph: b}, fig(alltoall.Simple), 0},
		{"b/mpich", Config{Graph: b}, fig(alltoall.MPICH), 0},
		{"c/ours", Config{Graph: c}, fig(oursFn(t, c)), 0},
		{"c/lam", Config{Graph: c}, fig(alltoall.Simple), 0},
		{"c/mpich", Config{Graph: c}, fig(alltoall.MPICH), 0},
		{"barrier-rounds", benchConfig(benchCluster(20), 0.3), shiftsWithBarriers, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.cfg.Graph.NumMachines()
			run := func(dense bool) (float64, [][]obsv.Event, []LinkStats) {
				cfg := tc.cfg
				cfg.dense = dense
				w, err := NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				recs := make([]*obsv.Recorder, n)
				for i := range recs {
					recs[i] = obsv.NewRecorder(i)
				}
				if err := w.Run(func(c mpi.Comm) error {
					return tc.prog(obsv.Instrument(c, recs[c.Rank()]))
				}); err != nil {
					t.Fatal(err)
				}
				evs := make([][]obsv.Event, n)
				for i, r := range recs {
					evs[i] = r.Events()
				}
				return w.Elapsed(), evs, w.LinkStats()
			}
			fastEl, fastEv, fastLinks := run(false)
			refEl, refEv, refLinks := run(true)
			if fastEl != refEl {
				t.Errorf("Elapsed: fast %v, reference %v", fastEl, refEl)
			}
			for i, fl := range fastLinks {
				if fl != refLinks[i] {
					t.Errorf("LinkStats[%d]: fast %+v, reference %+v", i, fl, refLinks[i])
				}
			}
			delivered := 0
			for r := range fastEv {
				if len(fastEv[r]) != len(refEv[r]) {
					t.Fatalf("rank %d: %d events fast, %d reference", r, len(fastEv[r]), len(refEv[r]))
				}
				for i, fe := range fastEv[r] {
					if fe != refEv[r][i] {
						t.Fatalf("rank %d event %d differs:\nfast:      %+v\nreference: %+v",
							r, i, fe, refEv[r][i])
					}
					if fe.Deliver > 0 {
						delivered++
					}
				}
			}
			if tc.delivered > 0 && delivered != tc.delivered {
				t.Errorf("%d events carry a delivery time, want %d", delivered, tc.delivered)
			}
		})
	}
}

// TestAssignRatesNoSteadyStateAllocs pins the zero-allocation claim for both
// solvers: once scratch buffers are warm and the aggregate pool is
// populated, re-solving (including flow churn through attach/detach on the
// fast path) must not allocate.
func TestAssignRatesNoSteadyStateAllocs(t *testing.T) {
	g := benchCluster(32)
	for _, solver := range solvers {
		t.Run(solver.name, func(t *testing.T) {
			e := ratesTestEngine(t, g, solver.dense)
			rng := rand.New(rand.NewSource(7))
			for _, p := range randomFlowSet(rng, 32) {
				injectFlow(e, p[0], p[1], 1<<16)
			}
			e.assignRates() // warm scratch
			popFlow(e)      // and the aggregate pool
			e.assignRates()
			// One churn cycle with a reusable flow object: activate, solve,
			// complete, solve. The simulator reuses nothing else per event.
			f := &flow{
				src: 3, dst: 17, path: e.pathOf(3, 17),
				size: 1 << 16, remain: 1 << 16,
			}
			churn := func() {
				f.actIdx = len(e.act)
				e.act = append(e.act, f)
				if !e.dense {
					e.attachFlow(f)
				}
				e.assignRates()
				e.act = e.act[:len(e.act)-1]
				if !e.dense {
					e.detachFlow(f)
				}
				e.assignRates()
			}
			churn() // populate the (3,17) aggregate pool slot
			allocs := testing.AllocsPerRun(20, churn)
			if allocs > 0 {
				t.Errorf("%s engine: %v allocs per steady-state churn cycle, want 0", solver.name, allocs)
			}
		})
	}
}
