// Command aapctrace is the cluster trace collector and report tool: it
// merges per-rank obsv JSONL span logs onto a common timebase and renders
// causal attribution — the critical path bounding the makespan, the
// straggling rank, per-phase skew, and (given a topology) sim-vs-real
// divergence naming the slow links.
//
// Serve mode runs the collector over HTTP; ranks push their traces and
// anyone pulls the merged report:
//
//	aapctrace -addr 127.0.0.1:8643 -topo fig1 &
//	aapcnode -local -topo fig1 -alg ours -push http://127.0.0.1:8643/v1/trace/ingest
//	curl 'http://127.0.0.1:8643/v1/trace/report?format=text'
//
// Offline mode reads a trace file written by aapcnode -trace and prints its
// flow statistics, a Gantt row of each rank's sends and the report:
//
//	aapcnode -local -topo fig1 -alg ours -trace run.jsonl
//	aapctrace -report run.jsonl -topo fig1 -predict
//
// With -predict the same schedule is recorded in the simulator and every
// data message is compared against its contention-free prediction; links whose
// crossing traffic consistently exceeds factor x the predicted time are
// flagged.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/obsv/collect"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// options collects the command-line configuration.
type options struct {
	addr    string
	report  string
	preset  string
	file    string
	alg     string
	msize   int
	predict bool
	factor  float64
	common  bool
	jsonOut bool
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()
	if err := run(&o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aapctrace:", err)
		os.Exit(1)
	}
}

// bind registers the command's flags on fs.
func (o *options) bind(fs *flag.FlagSet) {
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8643", "collector listen address (serve mode)")
	fs.StringVar(&o.report, "report", "", "analyze this obsv JSONL trace file and exit (offline mode)")
	fs.StringVar(&o.preset, "topo", "", "topology preset for link attribution ("+harness.PresetList()+")")
	fs.StringVar(&o.file, "topofile", "", "topology DSL file (overrides -topo)")
	fs.StringVar(&o.alg, "alg", "", "algorithm to price for -predict: ours, lam or mpich (default: the trace's)")
	fs.IntVar(&o.msize, "msize", 0, "block size to price for -predict (default: the trace's)")
	fs.BoolVar(&o.predict, "predict", false, "price the schedule in the simulator and report sim-vs-real divergence (needs a topology)")
	fs.Float64Var(&o.factor, "factor", 0, "divergence flag threshold: measured > factor x predicted (0 = default)")
	fs.BoolVar(&o.common, "common-clock", false,
		"assert all ranks share one clock epoch (single-process traces); skips pairwise offset estimation")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the offline report as JSON instead of text")
}

// offline analyzes one trace file and writes the report to w: as text, the
// flow statistics and each rank's sender timeline ahead of the collector's
// report.
func offline(o *options, g *topology.Graph, w io.Writer) error {
	f, err := os.Open(o.report)
	if err != nil {
		return err
	}
	defer f.Close()
	store := collect.NewStore()
	store.SetCommonClock(o.common)
	if err := store.AddJSONL(f); err != nil {
		return err
	}

	var rep *collect.Report
	if o.predict {
		if g == nil {
			return fmt.Errorf("-predict needs a topology (-topo or -topofile)")
		}
		meta := store.Meta()
		alg := o.alg
		if alg == "" {
			alg = meta.Name
		}
		msize := o.msize
		if msize == 0 {
			msize = meta.Msize
		}
		if msize == 0 {
			return fmt.Errorf("trace carries no message size; pass -msize")
		}
		fn, err := harness.Routine(g, cmp.Or(alg, "ours"), 0)
		if err != nil {
			return err
		}
		_, pred, err := harness.MeasureObserved(simnet.Config{Graph: g}, fn, msize)
		if err != nil {
			return fmt.Errorf("prediction run: %w", err)
		}
		rep = store.AnalyzeWithPrediction(g, obsv.MergedEvents(pred...), collect.DivergenceOptions{Factor: o.factor})
	} else {
		rep = store.Analyze(g)
	}

	if o.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	meta, events := store.Meta(), store.Events()
	st := collect.Flows(events)
	fmt.Fprintf(w, "trace %s (%s, %d ranks): %d data flows, %d control flows, peak concurrency %d\n",
		cmp.Or(meta.Name, o.report), meta.Transport, meta.Ranks, st.DataFlows, st.ControlFlows, st.MaxConcurrentData)
	fmt.Fprint(w, collect.Gantt(events, meta.Ranks, 96))
	rep.WriteText(w)
	return nil
}

// newServer builds the serve-mode collector, attributing links on g when
// it is not nil, and its listener.
func newServer(o *options, g *topology.Graph) (*http.Server, net.Listener, error) {
	store := collect.NewStore()
	store.SetCommonClock(o.common)
	reg := obsv.NewRegistry()
	reg.AddCounters(store.Counters())
	mux := http.NewServeMux()
	mux.Handle("/v1/trace/", collect.Handler(store, g))
	mux.Handle("/metrics", reg)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, nil, err
	}
	return &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}, ln, nil
}

func run(o *options, w io.Writer) error {
	var g *topology.Graph // the topology is optional here
	if o.file != "" || o.preset != "" {
		var err error
		if g, _, err = harness.LoadTopology(o.file, o.preset, false); err != nil {
			return err
		}
	}
	if o.report != "" {
		return offline(o, g, w)
	}
	srv, ln, err := newServer(o, g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "aapctrace: collecting on http://%s\n", ln.Addr())
	return srv.Serve(ln)
}
