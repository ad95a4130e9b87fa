package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/gen"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// Algorithm is a named MPI_Alltoall implementation that may be customized to
// a topology (the paper's generated routines are; the baselines ignore it).
type Algorithm struct {
	// Name labels the algorithm in reports ("LAM", "MPICH", "Ours").
	Name string
	// Make builds the algorithm function for a cluster.
	Make func(g *topology.Graph) (alltoall.Func, error)
}

// LAM is the original LAM/MPI all-to-all (the paper's first baseline).
func LAM() Algorithm {
	return Algorithm{Name: "LAM", Make: func(*topology.Graph) (alltoall.Func, error) {
		return alltoall.Simple, nil
	}}
}

// MPICHAlg is the improved MPICH all-to-all (the paper's second baseline).
func MPICHAlg() Algorithm {
	return Algorithm{Name: "MPICH", Make: func(*topology.Graph) (alltoall.Func, error) {
		return alltoall.MPICH, nil
	}}
}

// Ours is the paper's contribution: the automatically generated routine with
// the given synchronization mode (PairwiseSync is the published scheme).
func Ours(mode alltoall.SyncMode) Algorithm {
	name := "Ours"
	if mode != alltoall.PairwiseSync {
		name = "Ours/" + mode.String()
	}
	return generated(name, gen.AlgOurs, mode)
}

// OursGreedy schedules with the greedy first-fit baseline instead of the
// paper's construction — the ablation that isolates the value of the
// load-optimal phase count.
func OursGreedy() Algorithm { return generated("Ours/greedy", gen.AlgGreedy, alltoall.PairwiseSync) }

// OursWeighted is the heterogeneous-bandwidth extension: schedule selection
// by weighted cost (schedule.BuildAuto), with pair-wise synchronizations that
// let a phase share a fast link. On uniform clusters it is identical to Ours.
func OursWeighted() Algorithm { return generated("Ours/weighted", gen.AlgAuto, alltoall.PairwiseSync) }

// generated is the routine package gen generates with the algorithm, run in
// the given synchronization mode.
func generated(name, alg string, mode alltoall.SyncMode) Algorithm {
	return Algorithm{Name: name, Make: func(g *topology.Graph) (alltoall.Func, error) {
		sc, err := compile(g, alg, mode)
		if err != nil {
			return nil, err
		}
		return sc.Fn(), nil
	}}
}

// CompileRoutine runs the full generation pipeline for a topology — the
// paper's schedule construction, verification and synchronization planning
// (gen.Generate, as cmd/aapcgen does) — and compiles the result into a
// runnable routine with the given synchronization mode.
func CompileRoutine(g *topology.Graph, mode alltoall.SyncMode) (*alltoall.Scheduled, error) {
	return compile(g, gen.AlgOurs, mode)
}

// compile generates the algorithm's routine for g and compiles it.
func compile(g *topology.Graph, alg string, mode alltoall.SyncMode) (*alltoall.Scheduled, error) {
	r, err := gen.Generate(g, alg)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return alltoall.NewScheduled(r.Schedule, r.Plan, mode)
}

// Result is one measured cell of an evaluation table.
type Result struct {
	Algorithm string
	Msize     int
	// Seconds is the simulated completion time of one MPI_Alltoall.
	Seconds float64
	// ThroughputMbps is the aggregate throughput
	// |M| * (|M|-1) * msize / Seconds, in megabits per second.
	ThroughputMbps float64
}

// Experiment is one evaluation sweep: a set of algorithms across message
// sizes on one topology, like each of Figs. 6-8.
type Experiment struct {
	Name       string
	Graph      *topology.Graph
	Msizes     []int
	Algorithms []Algorithm
	// Net overrides the simulator cost model; zero fields take simnet
	// defaults. Net.Graph is set by Run.
	Net simnet.Config
	// Iterations invokes the routine this many times back to back and
	// reports the mean per-invocation time, mirroring the paper's
	// measurement procedure (10 iterations per execution). Consecutive
	// invocations may pipeline, exactly as on the real cluster. Default 1.
	Iterations int
	// Parallel caps how many (algorithm, msize) cells are simulated
	// concurrently. Each cell runs on its own World, and every World is
	// deterministic in isolation, so the report is identical for any
	// setting. 0 uses GOMAXPROCS; 1 restores fully serial measurement.
	Parallel int
}

// PaperMsizes are the message sizes of the paper's tables: 8 KB to 256 KB.
var PaperMsizes = []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}

// Report is the outcome of an experiment.
type Report struct {
	Name string
	// Machines is |M|.
	Machines int
	// Load is the AAPC load of the topology.
	Load int
	// PeakMbps is the analytic peak aggregate throughput (the "Peak" line
	// of the paper's throughput figures).
	PeakMbps float64
	// Msizes and Algorithms give the table axes in order.
	Msizes     []int
	Algorithms []string
	// Rows holds one Result per (algorithm, msize).
	Rows []Result
}

// Run measures every (algorithm, msize) cell on a fresh simulated world.
// Simulation is deterministic, so a single invocation per cell is exact —
// where the paper averages 10 iterations over 3 executions to tame real-
// machine noise, the simulator has none.
//
// Cells are independent simulations, so they fan out over a worker pool of
// Parallel goroutines. Routine generation stays serial (it is cheap and its
// errors should surface deterministically), and rows are assembled in the
// same (algorithm, msize) order as serial measurement, so reports are
// byte-identical for every Parallel setting.
func (e *Experiment) Run() (*Report, error) {
	if len(e.Msizes) == 0 {
		e.Msizes = PaperMsizes
	}
	if len(e.Algorithms) == 0 {
		e.Algorithms = []Algorithm{LAM(), MPICHAlg(), Ours(alltoall.PairwiseSync)}
	}
	if err := e.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	net := e.Net
	net.Graph = e.Graph
	bw := net.LinkBandwidth
	if bw == 0 {
		bw = simnet.DefaultLinkBandwidth
	}
	m := e.Graph.NumMachines()
	rep := &Report{
		Name:     e.Name,
		Machines: m,
		Load:     e.Graph.AAPCLoad(),
		PeakMbps: e.Graph.PeakAggregateThroughput(bw) * 8 / 1e6,
		Msizes:   e.Msizes,
	}
	fns := make([]alltoall.Func, len(e.Algorithms))
	for i, alg := range e.Algorithms {
		rep.Algorithms = append(rep.Algorithms, alg.Name)
		fn, err := alg.Make(e.Graph)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", alg.Name, err)
		}
		fns[i] = fn
	}
	if m >= 2 {
		// Populate the graph's lazy rooted-view cache before worlds are
		// built concurrently; afterwards workers only read it.
		e.Graph.PathBetweenRanks(0, 1)
	}
	type cell struct {
		alg   int
		msize int
	}
	jobs := make([]cell, 0, len(e.Algorithms)*len(e.Msizes))
	for ai := range e.Algorithms {
		for _, msize := range e.Msizes {
			jobs = append(jobs, cell{alg: ai, msize: msize})
		}
	}
	workers := e.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	rows := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//aapc:allow determinism results land in rows[j]/errs[j] keyed by job index, so worker interleaving is invisible
		go func() {
			defer wg.Done()
			for {
				j := int(atomic.AddInt64(&next, 1)) - 1
				if j >= len(jobs) {
					return
				}
				alg, msize := e.Algorithms[jobs[j].alg], jobs[j].msize
				secs, err := MeasureIterations(net, fns[jobs[j].alg], msize, e.Iterations)
				if err != nil {
					errs[j] = fmt.Errorf("harness: %s msize %d: %w", alg.Name, msize, err)
					continue
				}
				rows[j] = Result{
					Algorithm:      alg.Name,
					Msize:          msize,
					Seconds:        secs,
					ThroughputMbps: float64(m) * float64(m-1) * float64(msize) * 8 / secs / 1e6,
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err // first failure in serial cell order
		}
	}
	rep.Rows = rows
	return rep, nil
}

// Measure runs one all-to-all invocation of fn on a fresh simulated world
// and returns the virtual completion time in seconds.
func Measure(net simnet.Config, fn alltoall.Func, msize int) (float64, error) {
	return MeasureIterations(net, fn, msize, 1)
}

// MeasureIterations invokes fn iterations times back to back on one world
// and returns the mean per-invocation virtual time. iterations < 1 is
// treated as 1.
func MeasureIterations(net simnet.Config, fn alltoall.Func, msize, iterations int) (float64, error) {
	if iterations < 1 {
		iterations = 1
	}
	w, err := simnet.NewWorld(net)
	if err != nil {
		return 0, err
	}
	err = w.Run(func(c mpi.Comm) error {
		b := alltoall.NewShared(msize)
		for i := 0; i < iterations; i++ {
			if err := fn(c, b, msize); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return w.Elapsed() / float64(iterations), nil
}

// Cell returns the result for an algorithm and message size.
func (r *Report) Cell(alg string, msize int) (Result, bool) {
	for _, row := range r.Rows {
		if row.Algorithm == alg && row.Msize == msize {
			return row, true
		}
	}
	return Result{}, false
}

// MeasureObserved is the traced simulation: Measure with every rank run
// through obsv.Instrument, exactly as a traced run on a real transport. It
// returns the finished world (Elapsed, LinkStats) and the per-rank
// recorders, whose merged events feed the collect package (flow statistics,
// Gantt charts, phase attribution, the divergence prediction) and JSONL
// traces (obsv.WriteRecorders). Under -tags obsv_off the recorders come
// back empty, as on every transport, and the measurement is unchanged.
func MeasureObserved(net simnet.Config, fn alltoall.Func, msize int) (*simnet.World, []*obsv.Recorder, error) {
	w, err := simnet.NewWorld(net)
	if err != nil {
		return nil, nil, err
	}
	recs := make([]*obsv.Recorder, net.Graph.NumMachines())
	for i := range recs {
		recs[i] = obsv.NewRecorder(i)
	}
	err = w.Run(func(c mpi.Comm) error {
		ic := obsv.Instrument(c, recs[c.Rank()])
		return fn(ic, alltoall.NewShared(msize), msize)
	})
	if err != nil {
		return nil, nil, err
	}
	return w, recs, nil
}
