// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark is named for the table or figure it reproduces; the
// simulated completion time of a cell is reported as the custom metric
// "sim-ms" (virtual milliseconds — the quantity the paper's tables print),
// while the standard ns/op measures the cost of running the reproduction
// itself.
package aapcsched

import (
	"fmt"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/gen"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// BenchmarkTable1Ring regenerates Table 1: the ring schedule for k
// single-machine subtrees (k = 24, the paper's topology (a) size).
func BenchmarkTable1Ring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if phases := schedule.Ring(24); len(phases) != 23 {
			b.Fatal("wrong phase count")
		}
	}
}

// BenchmarkTable2Rotate regenerates Table 2: the rotate pattern for
// |Mi| = 6, |Mj| = 4.
func BenchmarkTable2Rotate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pat := schedule.RotatePattern(6, 4); len(pat) != 24 {
			b.Fatal("wrong pattern length")
		}
	}
}

// BenchmarkFig3GlobalSchedule regenerates Fig. 3: the extended ring global
// schedule for the Fig. 1 example (|M0|,|M1|,|M2| = 3,2,1).
func BenchmarkFig3GlobalSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gs, err := schedule.NewGroupSchedule([]int{3, 2, 1})
		if err != nil || gs.Total != 9 {
			b.Fatal("wrong global schedule")
		}
	}
}

// BenchmarkTable4Assignment regenerates Table 4 (which embeds the Table 3
// mapping): the complete global and local message assignment for the Fig. 1
// example cluster.
func BenchmarkTable4Assignment(b *testing.B) {
	g := harness.Fig1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := schedule.Build(g)
		if err != nil || len(s.Phases) != 9 {
			b.Fatal("wrong schedule")
		}
	}
}

// BenchmarkSection5SyncPlan regenerates the Section 5 synchronization
// computation: conflict detection and redundant-synchronization removal for
// the Fig. 1 schedule.
func BenchmarkSection5SyncPlan(b *testing.B) {
	g := harness.Fig1()
	s, err := schedule.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := syncplan.Build(g, s)
		if err != nil || plan.NumSyncs() == 0 {
			b.Fatal("bad plan")
		}
	}
}

// BenchmarkRoutineGeneration measures the full automatic routine generator
// (Section 5) on each experimental topology.
func BenchmarkRoutineGeneration(b *testing.B) {
	for _, preset := range []string{"fig1", "a", "b", "c"} {
		g, err := harness.Preset(preset)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(preset, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gen.Generate(g, gen.AlgOurs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchFigure runs one of the paper's evaluation figures: every
// (algorithm, msize) cell of the topology as a sub-benchmark, reporting the
// simulated completion time in virtual milliseconds ("sim-ms") and the
// aggregate throughput in Mbps ("agg-Mbps") — the two panels of the figure.
func benchFigure(b *testing.B, preset string) {
	g, err := harness.Preset(preset)
	if err != nil {
		b.Fatal(err)
	}
	net := simnet.Config{Graph: g}
	algs := []harness.Algorithm{harness.LAM(), harness.MPICHAlg(), harness.Ours(alltoall.PairwiseSync)}
	m := g.NumMachines()
	for _, alg := range algs {
		fn, err := alg.Make(g)
		if err != nil {
			b.Fatal(err)
		}
		for _, msize := range harness.PaperMsizes {
			b.Run(fmt.Sprintf("%s/%s", alg.Name, harness.FormatMsize(msize)), func(b *testing.B) {
				var secs float64
				for i := 0; i < b.N; i++ {
					secs, err = harness.Measure(net, fn, msize)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(secs*1e3, "sim-ms")
				b.ReportMetric(float64(m)*float64(m-1)*float64(msize)*8/secs/1e6, "agg-Mbps")
			})
		}
	}
}

// BenchmarkFig6TopologyA regenerates Fig. 6: completion time and aggregate
// throughput on the 24-node single-switch cluster.
func BenchmarkFig6TopologyA(b *testing.B) { benchFigure(b, "a") }

// BenchmarkFig7TopologyB regenerates Fig. 7: the 32-node cluster with
// switches in a star.
func BenchmarkFig7TopologyB(b *testing.B) { benchFigure(b, "b") }

// BenchmarkFig8TopologyC regenerates Fig. 8: the 32-node cluster with
// switches in a chain.
func BenchmarkFig8TopologyC(b *testing.B) { benchFigure(b, "c") }

// BenchmarkAblationSync compares the synchronization schemes of Section 5 on
// the Fig. 1 cluster at 64 KB: the paper's pair-wise scheme, full barriers,
// and no synchronization at all.
func BenchmarkAblationSync(b *testing.B) {
	g := harness.Fig1()
	net := simnet.Config{Graph: g}
	const msize = 64 << 10
	for _, mode := range []alltoall.SyncMode{alltoall.PairwiseSync, alltoall.BarrierSync, alltoall.NoSync} {
		sc, err := harness.CompileRoutine(g, mode)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.String(), func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				secs, err = harness.Measure(net, sc.Fn(), msize)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(secs*1e3, "sim-ms")
		})
	}
}

// BenchmarkAblationScheduler compares the paper's load-optimal construction
// against the greedy first-fit scheduler on topology (c), where the phase
// count matters most.
func BenchmarkAblationScheduler(b *testing.B) {
	g := harness.TopologyC()
	net := simnet.Config{Graph: g}
	const msize = 64 << 10
	for _, alg := range []harness.Algorithm{harness.Ours(alltoall.PairwiseSync), harness.OursGreedy()} {
		fn, err := alg.Make(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(alg.Name, func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				secs, err = harness.Measure(net, fn, msize)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(secs*1e3, "sim-ms")
		})
	}
}

// BenchmarkSchedulerScaling measures schedule construction cost as the
// cluster grows (the generator must stay fast enough to run at job-launch
// time).
func BenchmarkSchedulerScaling(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128} {
		g := topology.New()
		var sw [4]int
		for i := range sw {
			sw[i] = g.MustAddSwitch(fmt.Sprintf("s%d", i))
			if i > 0 {
				g.MustConnect(sw[i-1], sw[i])
			}
		}
		for i := 0; i < n; i++ {
			m := g.MustAddMachine(fmt.Sprintf("n%d", i))
			g.MustConnect(sw[i%4], m)
		}
		g.MustValidate()
		b.Run(fmt.Sprintf("machines-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := schedule.Build(g)
				if err != nil {
					b.Fatal(err)
				}
				if len(s.Phases) != g.AAPCLoad() {
					b.Fatal("suboptimal schedule")
				}
			}
		})
	}
}

// BenchmarkAlltoallMemTransport measures real data movement through the
// in-process transport for each algorithm (8 ranks, 4 KB blocks).
func BenchmarkAlltoallMemTransport(b *testing.B) {
	const (
		n     = 8
		msize = 4 << 10
	)
	star := topology.New()
	sw := star.MustAddSwitch("sw")
	for i := 0; i < n; i++ {
		m := star.MustAddMachine(fmt.Sprintf("n%d", i))
		star.MustConnect(sw, m)
	}
	star.MustValidate()
	ours, err := harness.CompileRoutine(star, alltoall.PairwiseSync)
	if err != nil {
		b.Fatal(err)
	}
	algs := map[string]alltoall.Func{
		"lam-simple":     alltoall.Simple,
		"mpich-offset":   alltoall.SimpleOffset,
		"mpich-pairwise": alltoall.Pairwise,
		"bruck":          alltoall.Bruck,
		"ours-scheduled": ours.Fn(),
	}
	for name, fn := range algs {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(n * (n - 1) * msize))
			for i := 0; i < b.N; i++ {
				err := mem.Run(n, func(c mpi.Comm) error {
					return fn(c, alltoall.NewContig(n, msize), msize)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtensionHeterogeneous measures the heterogeneous-bandwidth
// extension: topology (b) upgraded with 10x uplinks ("bg"), comparing the
// uniform-assuming generated routine, the capacity-aware weighted routine,
// and the baselines at 256 KB.
func BenchmarkExtensionHeterogeneous(b *testing.B) {
	g, err := harness.Preset("bg")
	if err != nil {
		b.Fatal(err)
	}
	net := simnet.Config{Graph: g}
	const msize = 256 << 10
	for _, alg := range []harness.Algorithm{
		harness.LAM(),
		harness.MPICHAlg(),
		harness.Ours(alltoall.PairwiseSync),
		harness.OursWeighted(),
	} {
		fn, err := alg.Make(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(alg.Name, func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				secs, err = harness.Measure(net, fn, msize)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(secs*1e3, "sim-ms")
		})
	}
}

// BenchmarkAblationWindow sweeps the send-window of the topology-oblivious
// windowed algorithm on topology (a) at 64 KB, bracketing it between the
// full fan-out of LAM (window = N-1) and full serialization (window = 1).
func BenchmarkAblationWindow(b *testing.B) {
	g := harness.TopologyA()
	net := simnet.Config{Graph: g}
	const msize = 64 << 10
	for _, window := range []int{1, 2, 4, 8, 23} {
		fn := alltoall.Windowed(window)
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			var secs float64
			var err error
			for i := 0; i < b.N; i++ {
				secs, err = harness.Measure(net, fn, msize)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(secs*1e3, "sim-ms")
		})
	}
}

// BenchmarkSimnetEngine measures raw simulator throughput: a 24-rank LAM
// all-to-all creates ~552 concurrent flows and drives the max-min solver
// hard. ns/op is the wall cost of simulating one full exchange.
func BenchmarkSimnetEngine(b *testing.B) {
	g := harness.TopologyA()
	net := simnet.Config{Graph: g}
	const msize = 64 << 10
	for i := 0; i < b.N; i++ {
		if _, err := harness.Measure(net, alltoall.Simple, msize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrumentationOverhead measures the cost of the obsv wrapper on
// the mem transport: the same scheduled all-to-all bare and instrumented
// (8 ranks, 4 KB blocks). The bare run is the shape of the pre-existing
// BenchmarkAlltoallMemTransport, so the pair doubles as a guard that the
// uninstrumented path does not regress. The absolute per-operation recording
// cost (~0.26 us: two clock reads plus one pooled, appended event) is
// measured in isolation by obsv.BenchmarkInstrumentedOpCost; on this
// microsecond-scale in-memory run it is a visible fraction, at real-network
// timescales it vanishes.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	const (
		n     = 8
		msize = 4 << 10
	)
	star := topology.New()
	sw := star.MustAddSwitch("sw")
	for i := 0; i < n; i++ {
		m := star.MustAddMachine(fmt.Sprintf("n%d", i))
		star.MustConnect(sw, m)
	}
	star.MustValidate()
	ours, err := harness.CompileRoutine(star, alltoall.PairwiseSync)
	if err != nil {
		b.Fatal(err)
	}
	fn := ours.Fn()
	b.Run("bare", func(b *testing.B) {
		b.SetBytes(int64(n * (n - 1) * msize))
		for i := 0; i < b.N; i++ {
			err := mem.Run(n, func(c mpi.Comm) error {
				return fn(c, alltoall.NewContig(n, msize), msize)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		b.SetBytes(int64(n * (n - 1) * msize))
		for i := 0; i < b.N; i++ {
			recs := make([]*obsv.Recorder, n)
			for r := range recs {
				recs[r] = obsv.NewRecorder(r)
			}
			err := mem.Run(n, func(c mpi.Comm) error {
				return fn(obsv.Instrument(c, recs[c.Rank()]), alltoall.NewContig(n, msize), msize)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
