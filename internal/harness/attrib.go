package harness

import (
	"fmt"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/obsv/collect"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// End-to-end attribution: run a compiled schedule on a real transport with
// tracing on, price the same schedule in the simulator, and let the
// collector name the straggling rank and the diverging link. This is the
// measurement loop ROADMAP item 3b (jitter-adaptive scheduling) will sit
// on: before a scheduler can react to a slow link it has to be able to find
// one.

// AttributionConfig configures RunAttribution.
type AttributionConfig struct {
	// Graph is the cluster topology (required).
	Graph *topology.Graph
	// Mode selects the synchronization flavor (default PairwiseSync).
	Mode alltoall.SyncMode
	// Msize is the per-pair block size (default 4096).
	Msize int
	// Plan, when non-nil, injects faults into the measured run (the
	// simulator prices the fault-free baseline, so injected slowness is
	// exactly what divergence should localize).
	Plan *faults.Plan
	// Timeout bounds every blocking step of the measured run (default 30s;
	// failing closed beats hanging a test on a faulty run).
	Timeout time.Duration
	// Net prices the prediction; Graph is filled in from Graph. Zero-value
	// fields use the simulator defaults.
	Net simnet.Config
	// Divergence tunes the flagging thresholds.
	Divergence collect.DivergenceOptions
}

// RunAttribution executes the schedule on the in-process mem transport with
// causal tracing, ingests every rank's span log into a collector, records
// the same routine in simnet, and returns the merged attribution report.
func RunAttribution(cfg AttributionConfig) (*collect.Report, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("harness: attribution needs a topology")
	}
	if cfg.Msize <= 0 {
		cfg.Msize = 4096
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	sc, err := CompileRoutine(cfg.Graph, cfg.Mode)
	if err != nil {
		return nil, err
	}
	fn := sc.FnTimeout(cfg.Timeout)
	m := cfg.Graph.NumMachines()

	// Measured run: mem transport, optional fault wrapping UNDER the
	// instrumentation so injected delays land inside the recorded spans.
	recs := make([]*obsv.Recorder, m)
	for i := range recs {
		recs[i] = obsv.NewRecorder(i)
	}
	inj := faults.New(cfg.Plan)
	err = mem.Run(m, func(c mpi.Comm) error {
		if cfg.Plan != nil {
			c = inj.Wrap(c)
		}
		return fn(obsv.Instrument(c, recs[c.Rank()]), alltoall.NewShared(cfg.Msize), cfg.Msize)
	})
	if err != nil {
		return nil, fmt.Errorf("harness: measured run: %w", err)
	}

	store := collect.NewStore()
	// One process, one clock: skip offset estimation (which injected delays
	// would otherwise mislead — a uniformly slow sender looks exactly like a
	// lagging clock to a min-delay estimator).
	store.SetCommonClock(true)
	for _, r := range recs {
		store.AddEvents(r.Events())
	}

	// Prediction: the same routine priced contention-free-baseline in the
	// simulator (no faults — divergence localizes what the plan injected).
	net := cfg.Net
	net.Graph = cfg.Graph
	_, pred, err := MeasureObserved(net, sc.Fn(), cfg.Msize)
	if err != nil {
		return nil, fmt.Errorf("harness: prediction run: %w", err)
	}
	return store.AnalyzeWithPrediction(cfg.Graph, obsv.MergedEvents(pred...), cfg.Divergence), nil
}
