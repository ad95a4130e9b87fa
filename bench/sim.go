package main

import (
	"fmt"
	"math"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

const (
	simMsize     = 64 << 10
	simPeakMsize = 256 << 10
)

// simExpected are the simulated completion times, in virtual seconds, of
// one all-to-all on topology (b) under the default cost model — the 64 KB
// and 256 KB rows of EXPERIMENTS.md Fig. 7 at full precision. The simulator
// is deterministic, so any other value means the schedule, the
// synchronization plan, the compiled routine or the engine changed what it
// computes; the benchmark then reports the ops as failed.
var simExpected = map[string]map[int]float64{
	"ours":  {simMsize: 1.234150760, simPeakMsize: 4.254049760},
	"lam":   {simMsize: 1.672416335, simPeakMsize: 6.688165340},
	"mpich": {simMsize: 1.600866252, simPeakMsize: 6.356965009},
}

// simCell is the outcome of one simulated all-to-all.
type simCell struct {
	seconds       float64 // virtual completion time
	events        int64
	flows         int
	bottleneckUse float64 // highest mean utilization of any directed link
}

// simulate runs one all-to-all of fn on a fresh simulated world of g.
func simulate(g *topology.Graph, fn alltoall.Func, msize int, sp spanRef) (simCell, error) {
	c := sp.child("simnet.NewWorld")
	w, err := simnet.NewWorld(simnet.Config{Graph: g})
	c.end()
	if err != nil {
		return simCell{}, err
	}
	c = sp.child("simnet.World.Run")
	err = w.Run(func(c mpi.Comm) error { return fn(c, alltoall.NewShared(msize), msize) })
	c.end()
	if err != nil {
		return simCell{}, err
	}
	cell := simCell{seconds: w.Elapsed(), events: w.Events(), flows: w.FlowCount()}
	for _, l := range w.LinkStats() {
		cell.bottleneckUse = max(cell.bottleneckUse, l.BusySeconds/cell.seconds)
	}
	return cell, nil
}

// checkSim compares a simulated time with its expected value.
func checkSim(alg string, msize int, got float64) error {
	want := simExpected[alg][msize]
	if math.Abs(got-want) > 1e-8*want {
		return fmt.Errorf("simulated %s all-to-all at %d B took %.9f s, expected %.9f s", alg, msize, got, want)
	}
	return nil
}

// simWorkload reproduces the paper's headline, Fig. 7: the compiled routine
// against LAM and MPICH on topology (b) in the fluid simulator. Wall time
// measures the simulation engine; the virtual-time results are exact.
type simWorkload struct {
	e    *env
	g    *topology.Graph
	rt   *routine
	fns  []alltoall.Func
	last [3]simCell // most recent 64 KiB cell of each algorithm
	peak [3]simCell // 256 KiB cells, simulated once per pass
}

var simAlgs = []string{"ours", "lam", "mpich"}

func (w *simWorkload) spec() spec {
	// The ratio is of simulated completion times, the paper's claim, not of
	// the wall time of simulating them: the two cells load the engine so
	// differently that their wall times do not drift together.
	return spec{name: "sim_fig7", algs: simAlgs, block: 4, rounds: 17, clients: 1, ratio: [2]string{"virtual.ours", "virtual.lam"},
		yard: func() (yardstick, error) { return eventYard{ranks: 32, steps: 400}, nil }, yardBlock: 2, yardRefMs: 19.5}
}

func (w *simWorkload) setup(e *env, sp spanRef) (pass, error) {
	w.e = e
	w.g = harness.TopologyB()
	rt, err := compileRoutine(w.g, sp)
	if err != nil {
		return nil, err
	}
	w.rt = rt
	w.fns = []alltoall.Func{rt.sc.Fn(), alltoall.Simple, alltoall.MPICH}
	for i, alg := range simAlgs {
		cell, err := simulate(w.g, w.fns[i], simPeakMsize, sp)
		if err != nil {
			return nil, err
		}
		if err := checkSim(alg, simPeakMsize, cell.seconds); err != nil {
			return nil, err
		}
		w.peak[i] = cell
	}
	return w, nil
}

func (w *simWorkload) before(alg, round int)      {}
func (w *simWorkload) after(alg, round int) error { return nil }
func (w *simWorkload) close() error               { return nil }

func (w *simWorkload) op(alg, _, _ int, sp spanRef) (time.Duration, error) {
	t0 := time.Now()
	cell, err := simulate(w.g, w.fns[alg], simMsize, sp)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	w.last[alg] = cell
	w.e.sample("virtual."+simAlgs[alg], time.Duration(cell.seconds*float64(time.Second)))
	return d, checkSim(simAlgs[alg], simMsize, cell.seconds)
}

// peakFrac is the aggregate throughput of one simulated all-to-all as a
// share of the topology's analytic peak.
func peakFrac(g *topology.Graph, msize int, seconds float64) float64 {
	n := float64(g.NumMachines())
	return n * (n - 1) * float64(msize) / seconds / g.PeakAggregateThroughput(simnet.DefaultLinkBandwidth)
}

func (w *simWorkload) finish(e *env) error {
	spans := e.tr.snapshot()
	setStageMetrics(e, spans)
	setRoutineMetrics(e, w.rt)
	ours := w.last[0]
	e.set("simnet.events_per_op", float64(ours.events))
	e.set("simnet.flows_per_op", float64(ours.flows))
	e.set("simnet.events_per_s", ratio(float64(ours.events), median(e.samples("ours"))/1e3))
	e.set("simnet.allocs_per_op", e.allocsPerOp) // the engine is all that allocates in an op
	e.set("simnet.lam_cell_ms", median(e.samples("lam")))
	e.set("simnet.mpich_cell_ms", median(e.samples("mpich")))
	e.set("simnet.ours_sim_s", ours.seconds)
	e.set("simnet.lam_sim_s", w.last[1].seconds)
	e.set("simnet.mpich_sim_s", w.last[2].seconds)
	e.set("simnet.ours_vs_lam_sim", ratio(ours.seconds, w.last[1].seconds))
	e.set("simnet.peak_frac", peakFrac(w.g, simPeakMsize, w.peak[0].seconds))
	e.set("simnet.bottleneck_util", w.peak[0].bottleneckUse)

	// The same headline on topology (c), Fig. 8, once.
	gc := harness.TopologyC()
	sp := e.tr.root("probe.topology_c", -1)
	defer sp.end()
	rt, err := compileRoutine(gc, sp)
	if err != nil {
		return err
	}
	cell, err := simulate(gc, rt.sc.Fn(), simPeakMsize, sp)
	if err != nil {
		return err
	}
	e.set("simnet.peak_frac_c", peakFrac(gc, simPeakMsize, cell.seconds))
	return nil
}
