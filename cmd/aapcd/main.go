// Command aapcd is the schedule-compiler daemon: it compiles the AAPC
// message schedules of Faraj & Yuan (IPPS 2005) on demand for an evolving
// cluster topology and serves them over HTTP/JSON.
//
// Start it on a preset or a topology DSL file and ask for schedules:
//
//	aapcd -addr 127.0.0.1:8642 -topo b &
//	curl 'http://127.0.0.1:8642/v1/schedule?alg=ours&msize=65536&syncs=1'
//	curl 'http://127.0.0.1:8642/v1/topology'
//	curl 'http://127.0.0.1:8642/metrics'
//
// Topology changes stream over one connection, one delta per line, one JSON
// ack per delta; small deltas patch every cached schedule incrementally
// instead of recompiling:
//
//	printf 'join n32 s1\nleave n7\n' | curl --no-buffer --data-binary @- 'http://127.0.0.1:8642/v1/updates'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/sched"
)

// options collects the command-line configuration.
type options struct {
	addr    string
	preset  string
	file    string
	cache   int
	shards  int
	workers int
	history int
	pprof   bool
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, &o, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "aapcd: %v\n", err)
		os.Exit(1)
	}
}

// bind registers the command's flags on fs.
func (o *options) bind(fs *flag.FlagSet) {
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8642", "listen address")
	fs.StringVar(&o.preset, "topo", "fig1", "boot topology preset ("+harness.PresetList()+")")
	fs.StringVar(&o.file, "file", "", "boot topology DSL file (overrides -topo)")
	fs.IntVar(&o.cache, "cache", 64, "cached schedules per shard")
	fs.IntVar(&o.shards, "shards", 8, "cache shard count")
	fs.IntVar(&o.workers, "workers", 0, "parallel greedy compile workers (0 = GOMAXPROCS)")
	fs.IntVar(&o.history, "history", 32, "retained topology versions")
	fs.BoolVar(&o.pprof, "pprof", false,
		"serve /debug/pprof and /debug/vars on the daemon address and enable block/mutex profiling")
}

// newServer builds the daemon and its listener from the options.
func newServer(o *options) (*http.Server, net.Listener, error) {
	g, _, err := harness.LoadTopology(o.file, o.preset, false)
	if err != nil {
		return nil, nil, err
	}
	reg := obsv.NewRegistry()
	d, err := sched.New(sched.Options{
		Graph:         g,
		CacheCap:      o.cache,
		Shards:        o.shards,
		GreedyWorkers: o.workers,
		History:       o.history,
		Registry:      reg,
	})
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	if o.pprof {
		// The obsv import registers net/http/pprof and expvar on the
		// default mux; profiling the scheduler's lock and block behavior
		// needs the runtime hooks turned on too.
		runtime.SetBlockProfileRate(1)
		runtime.SetMutexProfileFraction(5)
		mux.Handle("/debug/", http.DefaultServeMux)
	}
	mux.Handle("/", sched.NewServer(d, reg))
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, nil, err
	}
	return &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}, ln, nil
}

// run serves the daemon until ctx is cancelled, then drains in-flight
// requests and exits. The listen address (with the resolved port) is logged
// to w before serving, so scripts can start on :0 and scrape the port.
func run(ctx context.Context, o *options, w interface{ Write([]byte) (int, error) }) error {
	srv, ln, err := newServer(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "aapcd: serving on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintf(w, "aapcd: drained and stopped\n")
	return nil
}
