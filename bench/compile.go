package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

const (
	compileMachines = 32
	compileSwitches = 4
	// compileClusters is how many random clusters a run draws from its seed.
	// Ops cycle through them: the cost of the generator depends on the shape
	// of the tree (22 to 34 ms across seeds on the reference box), and a
	// run's median over many shapes moves far less from seed to seed than
	// the time of any single one.
	compileClusters = 32
)

// randomClusters draws n random clusters from the seed.
func randomClusters(seed int64, n, machines, switches int) []*topology.Graph {
	rng := rand.New(rand.NewSource(seed))
	gs := make([]*topology.Graph, n)
	for i := range gs {
		gs[i] = topology.RandomCluster(topology.RandomOptions{Switches: switches, Machines: machines, Rand: rng})
	}
	return gs
}

// compileWorkload is the paper's generator: topology in, runnable routine
// out. The comparator runs the same pipeline from the greedy first-fit
// schedule, which the daemon serves as alg=greedy.
type compileWorkload struct {
	clusters []*topology.Graph
	first    *routine // compiled from clusters[0]: the exact counts reported
}

func (w *compileWorkload) spec() spec {
	return spec{name: "compile", algs: []string{"ours", "greedy"}, block: 4, rounds: 17, setups: 5, clients: 1,
		ratio: [2]string{"ours", "greedy"},
		yard:  func() (yardstick, error) { return graphYard{nodes: 992, degree: 160}, nil }, yardBlock: 2, yardRefMs: 18}
}

type compilePass struct {
	w *compileWorkload
}

func (w *compileWorkload) setup(e *env, sp spanRef) (pass, error) {
	w.clusters = randomClusters(e.cfg.seed, compileClusters, compileMachines, compileSwitches)
	// A deployed generator reads its topology from a file: round-trip every
	// cluster through the DSL so the parser is part of set-up, and check
	// that the hash — the daemon's cache key — survives the trip.
	for i, g := range w.clusters {
		c := sp.child("topology.Parse")
		parsed, err := topology.Parse(strings.NewReader(g.Format()))
		c.end()
		if err != nil {
			return nil, err
		}
		want := g.Hash()
		c = sp.child("topology.Hash")
		got := parsed.Hash()
		c.end()
		if got != want {
			return nil, fmt.Errorf("cluster %d changes its hash on a DSL round trip", i)
		}
		w.clusters[i] = parsed
	}
	return &compilePass{w: w}, nil
}

func (p *compilePass) before(alg, round int)      {}
func (p *compilePass) after(alg, round int) error { return nil }
func (p *compilePass) close() error               { return nil }

func (p *compilePass) op(alg, _, seq int, sp spanRef) (time.Duration, error) {
	i := seq % len(p.w.clusters)
	g := p.w.clusters[i]
	t0 := time.Now()
	var rt *routine
	var err error
	if alg == 0 {
		rt, err = compileRoutine(g, sp)
	} else {
		c := sp.child("schedule.BuildGreedyParallel")
		s := schedule.BuildGreedyParallel(g, 0)
		c.end()
		c = sp.child("schedule.Verify")
		err = schedule.Verify(g, s, false)
		c.end()
		if err == nil {
			rt, err = planAndProgram(g, s, sp)
		}
	}
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("cluster %d: %w", i, err)
	}
	if rt.sc.NumRanks() != g.NumMachines() {
		return d, fmt.Errorf("cluster %d: routine compiled for %d ranks, cluster has %d", i, rt.sc.NumRanks(), g.NumMachines())
	}
	if alg == 0 && i == 0 {
		p.w.first = rt
	}
	return d, nil
}

func (w *compileWorkload) finish(e *env) error {
	spans := e.tr.snapshot()
	setStageMetrics(e, spans)
	if w.first != nil {
		setRoutineMetrics(e, w.first)
	}
	e.set("schedule.greedy_parallel_ms", median(durationsMs(spans, "schedule.BuildGreedyParallel")))
	e.set("topology.parse_us", 1e3*median(durationsMs(spans, "topology.Parse")))
	e.set("topology.hash_us", 1e3*median(durationsMs(spans, "topology.Hash")))
	// Share of the whole primary op spent inside syncplan.Build, summed over
	// the traced pass: what halving that stage could save at most.
	var plan, op float64
	byID := make(map[int]string, len(spans))
	for _, s := range spans {
		byID[s.ID] = s.Name
	}
	for _, s := range spans {
		switch {
		case s.Name == "op.ours":
			op += s.End - s.Start
		case s.Name == "syncplan.Build" && s.Parent >= 0 && byID[s.Parent] == "op.ours":
			plan += s.End - s.Start
		}
	}
	e.set("syncplan.build_share", ratio(plan, op))

	// One-shot scaling probes: the reduction grows much faster than N.
	for _, probe := range []struct {
		n      int
		metric string
	}{{48, "syncplan.build_n48_ms"}, {64, "syncplan.build_n64_ms"}} {
		g := randomClusters(e.cfg.seed, 1, probe.n, compileSwitches)[0]
		s, err := schedule.Build(g)
		if err != nil {
			return err
		}
		sp := e.tr.root(fmt.Sprintf("probe.syncplan.Build.n%d", probe.n), -1)
		t0 := time.Now()
		_, err = syncplan.Build(g, s)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		e.set(probe.metric, float64(d)/1e6)
	}

	g := w.clusters[0]
	s, err := schedule.Build(g)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := syncplan.Build(g, s); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	e.set("syncplan.alloc_mb_per_build", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	return nil
}
