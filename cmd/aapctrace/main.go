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
// Offline mode analyzes a trace file written by aapcnode -trace:
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
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
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
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8643", "collector listen address (serve mode)")
	flag.StringVar(&o.report, "report", "", "analyze this obsv JSONL trace file and exit (offline mode)")
	flag.StringVar(&o.preset, "topo", "", "topology preset for link attribution (a, b, c, bg, fig1)")
	flag.StringVar(&o.file, "topofile", "", "topology DSL file (overrides -topo)")
	flag.StringVar(&o.alg, "alg", "", "algorithm to price for -predict: ours, lam or mpich (default: the trace's)")
	flag.IntVar(&o.msize, "msize", 0, "block size to price for -predict (default: the trace's)")
	flag.BoolVar(&o.predict, "predict", false, "price the schedule in the simulator and report sim-vs-real divergence (needs a topology)")
	flag.Float64Var(&o.factor, "factor", 0, "divergence flag threshold: measured > factor x predicted (0 = default)")
	flag.BoolVar(&o.common, "common-clock", false,
		"assert all ranks share one clock epoch (single-process traces); skips pairwise offset estimation")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the offline report as JSON instead of text")
	flag.Parse()
	if err := run(&o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aapctrace:", err)
		os.Exit(1)
	}
}

// loadGraph resolves the optional topology flags; nil when neither is set.
func loadGraph(o *options) (*topology.Graph, error) {
	if o.file != "" {
		f, err := os.Open(o.file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topology.Parse(f)
	}
	if o.preset != "" {
		return harness.Preset(o.preset)
	}
	return nil, nil
}

// priceFn resolves the routine to price for the divergence prediction.
func priceFn(g *topology.Graph, alg string) (alltoall.Func, error) {
	switch alg {
	case "", "ours":
		sc, err := harness.CompileRoutine(g, alltoall.PairwiseSync)
		if err != nil {
			return nil, err
		}
		return sc.Fn(), nil
	case "lam":
		return alltoall.Simple, nil
	case "mpich":
		return alltoall.MPICH, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want ours, lam or mpich)", alg)
	}
}

// offline analyzes one trace file and writes the report to w.
func offline(o *options, g *topology.Graph, w interface{ Write([]byte) (int, error) }) error {
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
		fn, err := priceFn(g, alg)
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
	rep.WriteText(w)
	return nil
}

// newServer builds the serve-mode collector and its listener.
func newServer(o *options) (*http.Server, net.Listener, error) {
	g, err := loadGraph(o)
	if err != nil {
		return nil, nil, err
	}
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

func run(o *options, w interface{ Write([]byte) (int, error) }) error {
	g, err := loadGraph(o)
	if err != nil {
		return err
	}
	if o.report != "" {
		return offline(o, g, w)
	}
	srv, ln, err := newServer(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "aapctrace: collecting on http://%s\n", ln.Addr())
	return srv.Serve(ln)
}
