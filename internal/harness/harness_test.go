package harness

import (
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/simnet"
)

// TestTopologyPresets checks the Fig. 5 topologies against the analytic
// properties that identify them: machine counts, AAPC loads, and the peak
// aggregate throughput lines of the paper's figures.
func TestTopologyPresets(t *testing.T) {
	const bw = simnet.DefaultLinkBandwidth // 100 Mbps
	cases := []struct {
		name     string
		machines int
		load     int
		peakMbps float64
	}{
		// Topology (a): machine links bottleneck at load 23; peak 24*100.
		{"a", 24, 23, 2400},
		// Topology (b): inter-switch links carry 8*24; peak 32*31*100/192.
		{"b", 32, 192, 516.7},
		// Topology (c): middle link carries 16*16; peak 32*31*100/256.
		{"c", 32, 256, 387.5},
		// Fig. 1 example: load 9.
		{"fig1", 6, 9, 333.3},
	}
	for _, tc := range cases {
		g, err := Preset(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.NumMachines(); got != tc.machines {
			t.Errorf("topology %s: %d machines, want %d", tc.name, got, tc.machines)
		}
		if got := g.AAPCLoad(); got != tc.load {
			t.Errorf("topology %s: load %d, want %d", tc.name, got, tc.load)
		}
		peak := g.PeakAggregateThroughput(bw) * 8 / 1e6
		if peak < tc.peakMbps-0.1 || peak > tc.peakMbps+0.1 {
			t.Errorf("topology %s: peak %.1f Mbps, want %.1f", tc.name, peak, tc.peakMbps)
		}
		// Every preset must be schedulable and verified.
		s, err := schedule.Build(g)
		if err != nil {
			t.Fatalf("topology %s: %v", tc.name, err)
		}
		if err := schedule.Verify(g, s, true); err != nil {
			t.Errorf("topology %s: %v", tc.name, err)
		}
	}
	if _, err := Preset("z"); err == nil {
		t.Error("want error for unknown preset")
	}
}

func TestCompileRoutinePipeline(t *testing.T) {
	g := Fig1()
	sc, err := CompileRoutine(g, alltoall.PairwiseSync)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumRanks() != 6 || sc.SyncCount() == 0 {
		t.Errorf("compiled routine: ranks=%d syncs=%d", sc.NumRanks(), sc.SyncCount())
	}
}

// TestExperimentShapeFig1 runs a small sweep end to end and checks the
// qualitative claims of the paper on the example topology: the generated
// routine beats LAM at large message sizes and approaches the peak.
func TestExperimentShapeFig1(t *testing.T) {
	exp := &Experiment{
		Name:   "fig1",
		Graph:  Fig1(),
		Msizes: []int{8 << 10, 128 << 10},
	}
	rep, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3*2 {
		t.Fatalf("rows = %d, want 6", len(rep.Rows))
	}
	const big = 128 << 10
	ours, _ := rep.Cell("Ours", big)
	lam, _ := rep.Cell("LAM", big)
	if ours.Seconds >= lam.Seconds {
		t.Errorf("at 128KB ours (%.4g s) should beat LAM (%.4g s)", ours.Seconds, lam.Seconds)
	}
	if ours.ThroughputMbps > rep.PeakMbps*1.0001 {
		t.Errorf("ours throughput %.1f exceeds peak %.1f", ours.ThroughputMbps, rep.PeakMbps)
	}
	if ours.ThroughputMbps < rep.PeakMbps*0.75 {
		t.Errorf("ours throughput %.1f too far from peak %.1f at 128KB",
			ours.ThroughputMbps, rep.PeakMbps)
	}
	// Throughput/time consistency.
	for _, row := range rep.Rows {
		wantMbps := float64(rep.Machines) * float64(rep.Machines-1) *
			float64(row.Msize) * 8 / row.Seconds / 1e6
		if diff := row.ThroughputMbps - wantMbps; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("row %+v: inconsistent throughput", row)
		}
	}
}

func TestReportRendering(t *testing.T) {
	exp := &Experiment{
		Name:   "render",
		Graph:  Fig1(),
		Msizes: []int{8 << 10},
	}
	rep, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	sum := rep.Summary()
	for _, want := range []string{"Completion time", "Aggregate throughput", "LAM", "MPICH", "Ours", "8KB"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	plot := rep.ThroughputPlot(10)
	if !strings.Contains(plot, "legend") || !strings.Contains(plot, "Peak") {
		t.Errorf("plot missing legend:\n%s", plot)
	}
	if _, ok := rep.Cell("nope", 8<<10); ok {
		t.Error("Cell found nonexistent algorithm")
	}
}

func TestFormatMsize(t *testing.T) {
	cases := map[int]string{
		100:     "100B",
		8 << 10: "8KB",
		1 << 20: "1MB",
		3000:    "3000B",
	}
	for in, want := range cases {
		if got := FormatMsize(in); got != want {
			t.Errorf("FormatMsize(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestOursGreedyRuns(t *testing.T) {
	exp := &Experiment{
		Name:       "greedy-ablation",
		Graph:      Fig1(),
		Msizes:     []int{16 << 10},
		Algorithms: []Algorithm{Ours(alltoall.PairwiseSync), OursGreedy()},
	}
	rep, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := rep.Cell("Ours", 16<<10)
	greedy, _ := rep.Cell("Ours/greedy", 16<<10)
	if opt.Seconds <= 0 || greedy.Seconds <= 0 {
		t.Fatal("non-positive times")
	}
}

func TestSyncModeAblation(t *testing.T) {
	exp := &Experiment{
		Name:   "sync-ablation",
		Graph:  Fig1(),
		Msizes: []int{64 << 10},
		Algorithms: []Algorithm{
			Ours(alltoall.PairwiseSync),
			Ours(alltoall.BarrierSync),
			Ours(alltoall.NoSync),
		},
	}
	rep, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	pw, _ := rep.Cell("Ours", 64<<10)
	bar, _ := rep.Cell("Ours/barrier", 64<<10)
	if pw.Seconds > bar.Seconds {
		t.Errorf("pairwise sync (%.4g) should not be slower than barriers (%.4g)",
			pw.Seconds, bar.Seconds)
	}
}

// TestWeightedExtensionOnGigabit checks the heterogeneous-bandwidth
// extension end to end: on topology (b) with 10x uplinks the weighted
// routine must run several times faster than the uniform-assuming one and
// must remain identical to it on the uniform topology (b).
func TestWeightedExtensionOnGigabit(t *testing.T) {
	bg, err := Preset("bg")
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.Config{Graph: bg}
	const msize = 256 << 10
	uniformAssuming, err := Ours(alltoall.PairwiseSync).Make(bg)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := OursWeighted().Make(bg)
	if err != nil {
		t.Fatal(err)
	}
	tUniform, err := Measure(net, uniformAssuming, msize)
	if err != nil {
		t.Fatal(err)
	}
	tWeighted, err := Measure(net, weighted, msize)
	if err != nil {
		t.Fatal(err)
	}
	if tWeighted*3 > tUniform {
		t.Errorf("weighted routine %.1fms should be >3x faster than uniform-assuming %.1fms",
			tWeighted*1e3, tUniform*1e3)
	}
	// On the uniform topology (b) both pipelines produce the same schedule.
	b := TopologyB()
	scU, err := CompileRoutine(b, alltoall.PairwiseSync)
	if err != nil {
		t.Fatal(err)
	}
	scW, err := CompileRoutineWeighted(b)
	if err != nil {
		t.Fatal(err)
	}
	if scU.SyncCount() != scW.SyncCount() || scU.NumRanks() != scW.NumRanks() {
		t.Errorf("weighted pipeline diverged on a uniform cluster: %d/%d syncs",
			scU.SyncCount(), scW.SyncCount())
	}
}

func TestReportCSV(t *testing.T) {
	exp := &Experiment{Name: "csvtest", Graph: Fig1(), Msizes: []int{8 << 10}}
	rep, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	csv := rep.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+3 {
		t.Fatalf("csv rows = %d, want header+3:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "topology,algorithm") {
		t.Errorf("csv header wrong: %s", lines[0])
	}
	if !strings.Contains(csv, "csvtest,LAM,8192,") {
		t.Errorf("csv missing LAM row:\n%s", csv)
	}
}

func TestMeasureIterationsPipelines(t *testing.T) {
	// Ten back-to-back invocations must average close to a single one:
	// slightly above is legitimate (iteration i+1's first phases queue
	// behind iteration i's tail on the same links), far above would mean
	// the routine does not re-run cleanly.
	g := Fig1()
	net := simnet.Config{Graph: g}
	fn, err := Ours(alltoall.PairwiseSync).Make(g)
	if err != nil {
		t.Fatal(err)
	}
	const msize = 32 << 10
	one, err := MeasureIterations(net, fn, msize, 1)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := MeasureIterations(net, fn, msize, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ten > one*1.1 {
		t.Errorf("mean of 10 iterations (%.4g) far above single run (%.4g)", ten, one)
	}
	if ten < one*0.75 {
		t.Errorf("mean of 10 iterations (%.4g) suspiciously below single run (%.4g)", ten, one)
	}
	// The Experiment path accepts the knob too.
	exp := &Experiment{Name: "iters", Graph: g, Msizes: []int{msize}, Iterations: 3}
	if _, err := exp.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMeasureObserved: the traced simulation prices the run exactly like
// Measure and records every data send of it.
func TestMeasureObserved(t *testing.T) {
	g := Fig1()
	net := simnet.Config{Graph: g}
	w, recs, err := MeasureObserved(net, alltoall.Simple, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Measure(net, alltoall.Simple, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if w.Elapsed() != bare {
		t.Errorf("instrumented run took %v, bare run %v", w.Elapsed(), bare)
	}
	if len(recs) != g.NumMachines() || len(w.LinkStats()) == 0 {
		t.Errorf("%d recorders, %d link stats", len(recs), len(w.LinkStats()))
	}
	if !obsv.Enabled {
		return
	}
	sends := 0
	for _, e := range obsv.MergedEvents(recs...) {
		if e.Kind == obsv.KindSend {
			sends++
		}
	}
	if sends != 30 {
		t.Errorf("recorded %d sends, want 30", sends)
	}
}
