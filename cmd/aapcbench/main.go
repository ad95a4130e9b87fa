// Command aapcbench reproduces the paper's evaluation (Section 6) on the
// simulated cluster substrate: for each topology of Fig. 5 it measures the
// completion time and aggregate throughput of LAM, MPICH and the
// automatically generated routine across message sizes, printing the tables
// and series behind Figs. 6, 7 and 8. It can additionally run the
// synchronization-mode and scheduler ablations, draw a traced simulated run
// of the generated routine (-trace) and emit machine-readable
// BENCH_<name>.json reports (-json). A simulated run is traced like a real
// one (instrumented events), so -trace draws with the collect functions
// aapctrace -report uses on a recorded trace: flow statistics and Gantt rows
// of each rank's sends from post to completion.
//
// Usage:
//
//	aapcbench [-topo a|b|c|bg|fig1|all] [-file cluster.topo] [-msizes 8KB,64KB]
//	          [-bw Mbps] [-alpha seconds] [-mineff f] [-jitter f]
//	          [-parallel n]
//	          [-ablation] [-plot] [-trace] [-json dir]
//	          [-cpuprofile file] [-memprofile file]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/obsv/collect"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// options collects every flag of the driver.
type options struct {
	topo     string
	file     string
	msizes   string
	bwMbps   float64
	alpha    float64
	minEff   float64
	ablation bool
	plot     bool
	gantt    bool
	jitter   float64
	control  float64
	csvPath  string
	iters    int
	jsonDir  string
	parallel int
	cpuProf  string
	memProf  string
}

// printTrace records the generated routine in the simulator and draws it:
// flow statistics, the sender timeline and per-link utilization.
func printTrace(g *topology.Graph, net simnet.Config, msize int) error {
	sc, err := harness.CompileRoutine(g, alltoall.PairwiseSync)
	if err != nil {
		return err
	}
	cfg := net
	cfg.Graph = g
	w, recs, err := harness.MeasureObserved(cfg, sc.Fn(), msize)
	if err != nil {
		return err
	}
	events := obsv.MergedEvents(recs...)
	st := collect.Flows(events)
	fmt.Printf("\ngenerated routine at %s: %d data flows, %d sync messages, peak concurrency %d\n",
		harness.FormatMsize(msize), st.DataFlows, st.ControlFlows, st.MaxConcurrentData)
	fmt.Print(collect.Gantt(events, g.NumMachines(), 96))
	fmt.Print(utilizationReport(g, w.LinkStats(), w.Elapsed()))
	return nil
}

// utilizationReport renders per-link utilization from a finished simulation
// run: for every physical link, the fraction of its capacity used over the
// elapsed time, in both directions. A contention-free schedule shows the
// bottleneck link near 100% and everything else proportional to its load.
func utilizationReport(g *topology.Graph, stats []simnet.LinkStats, elapsed float64) string {
	if elapsed <= 0 || len(stats) == 0 {
		return "(no utilization data)\n"
	}
	// Pair up the two directions of each physical link.
	type row struct {
		name     string
		fwd, rev float64
	}
	byLink := make(map[topology.Edge]*row)
	for _, ls := range stats {
		e := ls.Edge
		canon := e
		if canon.U > canon.V {
			canon = canon.Reverse()
		}
		r, ok := byLink[canon]
		if !ok {
			r = &row{name: fmt.Sprintf("%s -- %s", g.Node(canon.U).Name, g.Node(canon.V).Name)}
			byLink[canon] = r
		}
		util := ls.BusySeconds / elapsed
		if e == canon {
			r.fwd = util
		} else {
			r.rev = util
		}
	}
	rows := make([]*row, 0, len(byLink))
	for _, r := range byLink {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		mi, mj := max(rows[i].fwd, rows[i].rev), max(rows[j].fwd, rows[j].rev)
		if mi != mj {
			return mi > mj
		}
		return rows[i].name < rows[j].name
	})
	var sb strings.Builder
	sb.WriteString("link utilization (fraction of capacity, by direction):\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-16s %s %5.1f%%   %s %5.1f%%\n",
			r.name, bar(r.fwd, 20), r.fwd*100, bar(r.rev, 20), r.rev*100)
	}
	return sb.String()
}

// bar renders a utilization fraction as a fixed-width ASCII bar.
func bar(frac float64, width int) string {
	fill := int(min(max(frac, 0), 1)*float64(width) + 0.5)
	return "[" + strings.Repeat("#", fill) + strings.Repeat("-", width-fill) + "]"
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "aapcbench:", err)
		os.Exit(1)
	}
}

// bind registers the command's flags on fs.
func (o *options) bind(fs *flag.FlagSet) {
	fs.StringVar(&o.topo, "topo", "all", "topology preset ("+harness.PresetList()+") or all")
	fs.StringVar(&o.file, "file", "", "topology DSL file (overrides -topo)")
	fs.StringVar(&o.msizes, "msizes", "", "comma-separated message sizes (e.g. 8KB,64KB,256KB); default the paper's 8KB..256KB")
	fs.Float64Var(&o.bwMbps, "bw", 100, "link bandwidth in Mbps")
	fs.Float64Var(&o.alpha, "alpha", simnet.DefaultStartupLatency, "per-message startup latency in seconds")
	fs.Float64Var(&o.minEff, "mineff", simnet.DefaultMinEfficiency, "asymptotic link efficiency under contention (1 = ideal fluid)")
	fs.BoolVar(&o.ablation, "ablation", false, "also run synchronization and scheduler ablations")
	fs.BoolVar(&o.plot, "plot", false, "render ASCII throughput plots")
	fs.BoolVar(&o.gantt, "trace", false, "render a sender Gantt chart of the generated routine at the smallest message size")
	fs.Float64Var(&o.jitter, "jitter", 0, "per-message startup jitter fraction (models OS noise; 0 = deterministic lockstep)")
	fs.Float64Var(&o.control, "control", 0, "startup latency for control-sized messages (seconds; 0 = same as -alpha)")
	fs.StringVar(&o.csvPath, "csv", "", "append results as CSV to this file ('-' for stdout)")
	fs.IntVar(&o.iters, "iters", 1, "back-to-back invocations per cell, reporting the mean (the paper uses 10)")
	fs.StringVar(&o.jsonDir, "json", "", "write a machine-readable BENCH_<name>.json report per topology into this directory")
	fs.IntVar(&o.parallel, "parallel", runtime.GOMAXPROCS(0), "measure up to n (algorithm, msize) cells concurrently; 1 = serial")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile at exit to this file")
}

func run(o options) error {
	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProf != "" {
		f, err := os.Create(o.memProf)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "aapcbench: memprofile:", err)
			}
			f.Close()
		}()
	}
	sizes, err := harness.ParseMsizes(o.msizes)
	if err != nil {
		return err
	}
	net := simnet.Config{
		LinkBandwidth:  o.bwMbps * 1e6 / 8,
		StartupLatency: o.alpha,
		MinEfficiency:  o.minEff,
		JitterFrac:     o.jitter,
		JitterSeed:     1,
		ControlLatency: o.control,
	}
	shorts := []string{o.topo} // file-name stems for -json
	if o.file == "" && o.topo == "all" {
		shorts = []string{"a", "b", "c"}
	}
	for _, short := range shorts {
		g, _, err := harness.LoadTopology(o.file, short, false)
		if err != nil {
			return err
		}
		name := "topology (" + short + ")" // the report label
		if o.file != "" {
			name, short = o.file, strings.TrimSuffix(filepath.Base(o.file), filepath.Ext(o.file))
		}
		algs := []harness.Algorithm{harness.LAM(), harness.MPICHAlg(), harness.Ours(alltoall.PairwiseSync)}
		if o.ablation {
			algs = append(algs,
				harness.Ours(alltoall.BarrierSync),
				harness.Ours(alltoall.NoSync),
				harness.OursGreedy(),
			)
		}
		exp := &harness.Experiment{
			Name:       name,
			Graph:      g,
			Msizes:     sizes,
			Algorithms: algs,
			Net:        net,
			Iterations: o.iters,
			Parallel:   o.parallel,
		}
		rep, err := exp.Run()
		if err != nil {
			return err
		}
		fmt.Print(rep.Summary())
		if o.csvPath != "" {
			if err := appendCSV(o.csvPath, rep.CSV()); err != nil {
				return err
			}
		}
		if o.plot {
			fmt.Print(rep.ThroughputPlot(14))
		}
		if o.gantt {
			if err := printTrace(g, net, rep.Msizes[0]); err != nil {
				return err
			}
		}
		if o.jsonDir != "" {
			path, err := writeJSONReport(o.jsonDir, short, g, net, rep)
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
	}
	return nil
}

// benchCell is one (algorithm, msize) measurement of the JSON report.
type benchCell struct {
	Algorithm      string  `json:"algorithm"`
	Msize          int     `json:"msize"`
	Seconds        float64 `json:"seconds"`
	ThroughputMbps float64 `json:"throughput_mbps"`
}

// benchPhases is the per-msize phase breakdown of the generated routine:
// its simulated run recorded through the obsv instrumentation layer and
// attributed by the collector.
type benchPhases struct {
	Msize           int                 `json:"msize"`
	Seconds         float64             `json:"seconds"`
	Events          int                 `json:"events"`
	SyncWaitSeconds float64             `json:"sync_wait_seconds"`
	Phases          []collect.PhaseStat `json:"phases"`
}

// benchOverhead quantifies the instrumentation cost: the compiled routine on
// the in-process mem transport, wall-clocked bare versus instrumented
// (best-of-N; see measureOverhead).
type benchOverhead struct {
	Msize               int     `json:"msize"`
	BareWallSeconds     float64 `json:"bare_wall_seconds"`
	ObservedWallSeconds float64 `json:"observed_wall_seconds"`
	OverheadFrac        float64 `json:"overhead_frac"`
	EventsPerRank       float64 `json:"events_per_rank"`
}

// benchJSON is the schema of BENCH_<name>.json.
type benchJSON struct {
	Name       string        `json:"name"`
	Machines   int           `json:"machines"`
	Load       int           `json:"load"`
	PeakMbps   float64       `json:"peak_mbps"`
	Msizes     []int         `json:"msizes"`
	Algorithms []string      `json:"algorithms"`
	Cells      []benchCell   `json:"cells"`
	Phases     []benchPhases `json:"phases,omitempty"`
	Overhead   benchOverhead `json:"overhead"`
}

// writeJSONReport measures the generated routine once more per message size
// through the obsv instrumentation layer (phase drift, sync stalls) and
// writes the full machine-readable report as BENCH_<short>.json in dir.
func writeJSONReport(dir, short string, g *topology.Graph, net simnet.Config, rep *harness.Report) (string, error) {
	out := benchJSON{
		Name:       short,
		Machines:   rep.Machines,
		Load:       rep.Load,
		PeakMbps:   rep.PeakMbps,
		Msizes:     rep.Msizes,
		Algorithms: rep.Algorithms,
	}
	for _, r := range rep.Rows {
		out.Cells = append(out.Cells, benchCell{
			Algorithm:      r.Algorithm,
			Msize:          r.Msize,
			Seconds:        r.Seconds,
			ThroughputMbps: r.ThroughputMbps,
		})
	}
	sc, err := harness.CompileRoutine(g, alltoall.PairwiseSync)
	if err != nil {
		return "", err
	}
	cfg := net
	cfg.Graph = g
	for i, msize := range rep.Msizes {
		w, recs, err := harness.MeasureObserved(cfg, sc.Fn(), msize)
		if err != nil {
			return "", err
		}
		store := collect.NewStore()
		store.SetCommonClock(true) // one virtual clock
		for _, r := range recs {
			store.AddEvents(r.Events())
		}
		ph := benchPhases{Msize: msize, Seconds: w.Elapsed(), Events: store.NumSpans(),
			Phases: store.Analyze(g).Phases}
		for _, st := range ph.Phases {
			ph.SyncWaitSeconds += st.SyncWait
		}
		out.Phases = append(out.Phases, ph)
		// Overhead is measured at the largest message size, where data
		// movement (not per-run fixed costs) dominates — the regime the
		// paper's claims are about.
		if i == len(rep.Msizes)-1 {
			ov, err := measureOverhead(sc, msize)
			if err != nil {
				return "", err
			}
			ov.EventsPerRank = float64(ph.Events) / float64(rep.Machines)
			out.Overhead = ov
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+short+".json")
	buf, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

// measureOverhead times the compiled routine on the in-process mem transport
// (real byte movement — the configuration the ≤5% overhead target is stated
// for) bare versus instrumented. Best-of-N interleaved wall times, so
// scheduler noise and first-run warmup drop out.
func measureOverhead(sc *alltoall.Scheduled, msize int) (benchOverhead, error) {
	n := sc.NumRanks()
	runOnce := func(instrument bool) (float64, error) {
		t0 := time.Now()
		err := mem.Run(n, func(c mpi.Comm) error {
			if instrument {
				c = obsv.Instrument(c, obsv.NewRecorder(c.Rank()))
			}
			return sc.Fn()(c, alltoall.NewShared(msize), msize)
		})
		return time.Since(t0).Seconds(), err
	}
	ov := benchOverhead{Msize: msize}
	bareWall, obsWall := math.Inf(1), math.Inf(1)
	const reps = 7
	for r := 0; r < reps; r++ {
		w, err := runOnce(false)
		if err != nil {
			return ov, err
		}
		bareWall = math.Min(bareWall, w)
		if w, err = runOnce(true); err != nil {
			return ov, err
		}
		obsWall = math.Min(obsWall, w)
	}
	ov.BareWallSeconds, ov.ObservedWallSeconds = bareWall, obsWall
	if bareWall > 0 {
		ov.OverheadFrac = obsWall/bareWall - 1
	}
	return ov, nil
}

// appendCSV writes CSV rows to a file or stdout.
func appendCSV(path, csv string) error {
	if path == "-" {
		_, err := fmt.Print(csv)
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(csv)
	return err
}
