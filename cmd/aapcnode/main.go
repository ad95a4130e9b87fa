// Command aapcnode runs one rank of a distributed all-to-all over real TCP —
// the deployable configuration of this library, playing the role of an MPI
// process launcher plus MPI_Alltoall.
//
// Start a coordinator for the world, then one process per rank:
//
//	aapcnode -serve 6 -addr 127.0.0.1:7777 &
//	for i in $(seq 6); do aapcnode -join 127.0.0.1:7777 -topo fig1 -alg ours -msize 64K & done
//
// Every rank fills its send blocks with a verifiable pattern, runs the
// chosen algorithm (the generated routine is compiled from the topology by
// every process independently and deterministically), checks every received
// byte, and reports its wall-clock time.
//
// For a one-command demonstration, -local runs the coordinator and all
// ranks inside one process, still over real sockets:
//
//	aapcnode -local -topo fig1 -alg ours -msize 64K
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
	"github.com/aapc-sched/aapcsched/internal/obsv"
)

// options collects the command-line configuration.
type options struct {
	serve      int
	addr, join string
	local      bool
	preset     string
	file       string
	alg        string
	msize      string
	deadline   time.Duration
	rendezvous time.Duration
	faultsSpec string
	metrics    string
	tracePath  string
	tracePush  string
	pprof      bool
	xportStats bool
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()
	if err := run(&o); err != nil {
		if re, ok := mpi.AsRankError(err); ok {
			fmt.Fprintf(os.Stderr, "aapcnode: peer rank %d failed: %v\n", re.Rank, err)
		} else {
			fmt.Fprintln(os.Stderr, "aapcnode:", err)
		}
		os.Exit(1)
	}
}

// bind registers the command's flags on fs.
func (o *options) bind(fs *flag.FlagSet) {
	fs.IntVar(&o.serve, "serve", 0, "run a coordinator for this many ranks and exit")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "coordinator listen address (with -serve)")
	fs.StringVar(&o.join, "join", "", "coordinator address to join as one rank")
	fs.BoolVar(&o.local, "local", false, "run coordinator and every rank in this process")
	fs.StringVar(&o.preset, "topo", "fig1", "topology preset ("+harness.PresetList()+")")
	fs.StringVar(&o.file, "file", "", "topology DSL file (overrides -topo)")
	fs.StringVar(&o.alg, "alg", "ours", "algorithm: ours, lam or mpich")
	fs.StringVar(&o.msize, "msize", "64K", "block size per pair: bytes, or with suffix K/KB or M/MB")
	fs.DurationVar(&o.deadline, "deadline", 0,
		"per-operation deadline; 0 waits forever (a dead peer still fails fast with a rank error)")
	fs.DurationVar(&o.rendezvous, "rendezvous", 30*time.Second,
		"rendezvous window: coordinator waits this long for all ranks, joiners retry dialing within it")
	fs.StringVar(&o.faultsSpec, "faults", "",
		"fault plan: a file path, or inline DSL with ';' as line separator (see internal/faults)")
	fs.StringVar(&o.metrics, "metrics", "",
		"serve /metrics (Prometheus text), /debug/vars and /debug/pprof on this address for the run's duration (e.g. 127.0.0.1:9100)")
	fs.StringVar(&o.tracePath, "trace", "",
		"write the run's obsv event trace as JSONL to this file (report it with aapctrace -report)")
	fs.StringVar(&o.tracePush, "push", "",
		"POST the run's obsv event trace to this collector ingest URL (e.g. http://host:8643/v1/trace/ingest)")
	fs.BoolVar(&o.pprof, "pprof", false,
		"enable block/mutex profiling and serve /debug/pprof for the run (implies -metrics 127.0.0.1:0 when -metrics is unset)")
	fs.BoolVar(&o.xportStats, "transport-stats", false,
		"report per-rank transport counters after the run (frames, bytes, coalescing, borrowed-vs-copied sends)")
}

// loadFaults resolves the -faults flag: a readable file wins, otherwise the
// string is inline DSL with ';' accepted as a line separator. Returns nil
// when no plan is requested.
func loadFaults(spec string) (*faults.Plan, error) {
	if spec == "" {
		return nil, nil
	}
	if data, err := os.ReadFile(spec); err == nil {
		return faults.ParsePlanString(string(data))
	}
	return faults.ParsePlanString(strings.ReplaceAll(spec, ";", "\n"))
}

// joinRank joins the world at addr as one rank and instruments it. A fault
// plan goes where the tcp transport expects it: delay, drop and dup on its
// outbound data frames (a drop breaks the link, and the frame is
// retransmitted after the reconnect), stall and kill on the rank's operation
// stream. Per-process injectors sharing a plan stay globally deterministic:
// each directed pair stream is consulted only by its source rank, each rank
// stream only by the rank itself. The obsv wrapper goes outermost, so
// alltoall.Scheduled finds the phase marker through the decorator chain.
// raw is the transport's own comm, for its counters.
func joinRank(addr string, o *options, plan *faults.Plan) (raw, c mpi.Comm, rec *obsv.Recorder, closeFn func() error, err error) {
	var inj *faults.Injector
	var opts []tcp.Option
	if plan != nil {
		inj = faults.New(plan)
		inj.SetOpTimeout(o.deadline)
		opts = append(opts, tcp.WithFaults(inj))
	}
	raw, closeFn, err = tcp.JoinRetry(addr, o.rendezvous, opts...)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rec = obsv.NewRecorder(raw.Rank())
	c = raw
	if inj != nil {
		inj.SetRecorder(rec)
		c = inj.WrapRankOnly(raw)
	}
	return raw, obsv.Instrument(c, rec), rec, closeFn, nil
}

// reportTransportStats prints the rank's data-plane counters when the comm
// exposes them (the distributed tcp transport does). The coalescing factor
// is frames per vectored write: 1.0 means every frame paid its own syscall,
// higher means the write coalescer batched frames behind a busy socket.
// The zero-copy line splits sends into borrowed (caller's buffer rode the
// wire directly) vs copied (staged through the pool).
func reportTransportStats(c mpi.Comm, out interface{ Write([]byte) (int, error) }) {
	sr, ok := c.(interface{ TransportStats() tcp.Stats })
	if !ok {
		return
	}
	s := sr.TransportStats()
	coalesce := 0.0
	if s.Writevs > 0 {
		coalesce = float64(s.FramesSent+s.AcksSent) / float64(s.Writevs)
	}
	fmt.Fprintf(out, "rank %2d: transport: frames=%d bytes=%d writevs=%d coalescing=%.2f dup_discards=%d\n",
		c.Rank(), s.FramesSent, s.BytesSent, s.Writevs, coalesce, s.DupDiscards)
	borrowRatio := 0.0
	if t := s.BorrowedSends + s.CopiedSends; t > 0 {
		borrowRatio = float64(s.BorrowedSends) / float64(t)
	}
	fmt.Fprintf(out, "rank %2d: zero-copy: borrowed=%d copied=%d borrow_ratio=%.2f payload_copies=%d zero_copy_recvs=%d\n",
		c.Rank(), s.BorrowedSends, s.CopiedSends, borrowRatio, s.PayloadCopies, s.ZeroCopyRecvs)
}

// emitTrace delivers the run's trace wherever the flags point: a JSONL file
// (-trace), a collector's ingest endpoint (-push), or both. The collector
// merges pushes from every rank, so a distributed run can report itself
// piecewise to one aapcd/aapctrace instance.
func emitTrace(o *options, meta obsv.Meta, recs ...*obsv.Recorder) error {
	if o.tracePath == "" && o.tracePush == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := obsv.WriteRecorders(&buf, meta, recs...); err != nil {
		return err
	}
	if o.tracePath != "" {
		if err := os.WriteFile(o.tracePath, buf.Bytes(), 0o666); err != nil {
			return err
		}
	}
	if o.tracePush == "" {
		return nil
	}
	resp, err := http.Post(o.tracePush, "application/x-ndjson", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("trace push to %s: %s: %s", o.tracePush, resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

func run(o *options) error {
	msize, err := harness.ParseMsize(o.msize)
	if err != nil {
		return err
	}
	plan, err := loadFaults(o.faultsSpec)
	if err != nil {
		return err
	}
	if o.pprof {
		// Block and mutex profiles are empty unless the runtime hooks are
		// on; the debug server (ServeMetrics) exposes them on /debug/pprof.
		runtime.SetBlockProfileRate(1)
		runtime.SetMutexProfileFraction(5)
		if o.metrics == "" {
			o.metrics = "127.0.0.1:0"
		}
	}
	switch {
	case o.serve > 0:
		coord, err := tcp.StartCoordinator(o.addr, o.serve, tcp.WithRendezvousTimeout(o.rendezvous))
		if err != nil {
			return err
		}
		fmt.Printf("coordinator for %d ranks on %s\n", o.serve, coord.Addr())
		return coord.Wait()
	case o.join == "" && !o.local:
		return fmt.Errorf("need one of -serve, -join or -local (see -help)")
	}
	g, _, err := harness.LoadTopology(o.file, o.preset, false)
	if err != nil {
		return err
	}
	fn, err := harness.Routine(g, o.alg, o.deadline)
	if err != nil {
		return err
	}
	if o.join != "" {
		raw, c, rec, closeFn, err := joinRank(o.join, o, plan)
		if err != nil {
			return err
		}
		defer closeFn()
		if o.metrics != "" {
			addr, closeSrv, err := obsv.ServeMetrics(o.metrics, obsv.NewRegistry(rec))
			if err != nil {
				return err
			}
			if addr != "" {
				fmt.Printf("rank %d metrics on http://%s/metrics\n", c.Rank(), addr)
			}
			defer closeSrv()
		}
		if err := runRank(c, fn, msize, os.Stdout); err != nil {
			return err
		}
		if o.xportStats {
			reportTransportStats(raw, os.Stdout)
		}
		return emitTrace(o, obsv.Meta{Ranks: c.Size(), Transport: "tcp", Name: o.alg, Msize: msize}, rec)
	}

	n := g.NumMachines()
	coord, err := tcp.StartCoordinator("127.0.0.1:0", n, tcp.WithRendezvousTimeout(o.rendezvous))
	if err != nil {
		return err
	}
	fmt.Printf("local world of %d ranks via %s, algorithm %s, msize %s\n",
		n, coord.Addr(), o.alg, harness.FormatMsize(msize))
	reg := obsv.NewRegistry()
	if o.metrics != "" {
		addr, closeSrv, err := obsv.ServeMetrics(o.metrics, reg)
		if err != nil {
			return err
		}
		if addr != "" {
			fmt.Printf("metrics on http://%s/metrics\n", addr)
		}
		defer closeSrv()
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	var mu sync.Mutex // serialize per-rank report lines
	recs := make([]*obsv.Recorder, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, c, rec, closeFn, err := joinRank(coord.Addr(), o, plan)
			if err != nil {
				errs <- err
				return
			}
			defer closeFn()
			mu.Lock()
			recs[c.Rank()] = rec
			mu.Unlock()
			reg.Add(rec)
			err = runRank(c, fn, msize, &lockedWriter{mu: &mu})
			if err == nil && o.xportStats {
				reportTransportStats(raw, &lockedWriter{mu: &mu})
			}
			errs <- err
		}()
	}
	wg.Wait()
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if err := coord.Wait(); err != nil && first == nil {
		first = err
	}
	if first != nil {
		return first
	}
	// Every rank joined and ran, so every recorder is in place.
	return emitTrace(o, obsv.Meta{Ranks: n, Transport: "tcp", Name: o.alg, Msize: msize}, recs...)
}

// lockedWriter serializes whole lines from concurrent ranks.
type lockedWriter struct{ mu *sync.Mutex }

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return os.Stdout.Write(p)
}

// runRank executes one verified all-to-all on the communicator.
func runRank(c mpi.Comm, fn alltoall.Func, msize int, out interface{ Write([]byte) (int, error) }) error {
	n, me := c.Size(), c.Rank()
	b := alltoall.NewContig(n, msize)
	for dst := 0; dst < n; dst++ {
		blk := b.SendBlock(dst)
		for i := range blk {
			blk[i] = byte(me*31 + dst*7 + i)
		}
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	start := c.Now()
	if err := fn(c, b, msize); err != nil {
		return fmt.Errorf("rank %d: %w", me, err)
	}
	elapsed := c.Now() - start
	for src := 0; src < n; src++ {
		blk := b.RecvBlock(src)
		for i := range blk {
			if blk[i] != byte(src*31+me*7+i) {
				return fmt.Errorf("rank %d: corrupt byte %d from %d", me, i, src)
			}
		}
	}
	fmt.Fprintf(out, "rank %2d: all-to-all verified in %8.3f ms\n", me, elapsed*1e3)
	// Closing barrier: no rank may tear its sockets down while peers are
	// still exchanging (an early close would poison their matchers).
	return c.Barrier()
}
