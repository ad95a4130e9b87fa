package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The run shape, fixed so that numbers repeat (README.md, "Run shape"):
// every run is numPasses passes over one workload; a pass sets the program
// under test up from nothing, runs warmRounds discarded rounds and then a
// fixed number of timed rounds; a round is a block of the primary
// algorithm's ops followed by an equal block of every comparator and a block
// of the workload's yardstick (yard.go), so slow drift of the machine hits
// all of them alike. Op counts are fixed, not time-boxed: spec.rounds is
// calibrated so that the timed rounds of a run last about refSeconds on the
// reference box, and -seconds scales it.
const (
	numPasses  = 3
	warmRounds = 2
	refSeconds = 12
	// tracedPass is the pass of a -trace 1 run that records spans and, on
	// the all-to-all workloads, runs over obsv-instrumented comms. The
	// other passes stay bare and give driver.trace_overhead its denominator.
	tracedPass = 1
	// blockTimeout is the watchdog: a block that has not finished by then
	// is a hung collective. Its ops are counted as failed and the run stops
	// measuring (the stuck goroutines cannot be recovered).
	blockTimeout = 30 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where a traced run writes its spans
	// tiny is the smoke tests' shape: two passes of one round of one op and
	// no warm-up (see shape).
	tiny bool
}

// spec is the fixed shape of a workload.
type spec struct {
	name string
	// algs[0] is the primary; the rest are comparators run in equal blocks
	// of the same round.
	algs []string
	// block is the number of ops each client runs per block, rounds the
	// number of timed rounds per pass of a refSeconds run. minBlock is the
	// smallest block that still feeds every sample set (0: one op).
	block, rounds, minBlock int
	// passes overrides numPasses (0: numPasses).
	passes int
	// setups is how many times a pass sets the program under test up (and
	// tears it down again, all but the last time): cheap set-ups are
	// repeated so that setup_s is a median of several readings, not one
	// reading of a millisecond.
	setups int
	// clients is the number of closed-loop load generators. The rank count
	// of an all-to-all is a property of the program under test, not of the
	// generator, so only daemon_mix has more than one.
	clients int
	// ratio names the two sample sets whose quotient is ours_vs_ref.
	ratio [2]string
	// yard builds the workload's yardstick; yardBlock is the number of
	// yardstick ops per client and round. yardRefMs is the yardstick's
	// median op time on the reference box in a quiet hour: setup_s is
	// reported at that speed of the machine (see runner.endToEnd).
	yard      func() (yardstick, error)
	yardBlock int
	yardRefMs float64
}

// shape is the op counts of one run: the spec scaled by -seconds, or tiny.
type shape struct {
	passes, warm, rounds, block, yardBlock int
}

func (cfg config) shape(sp spec) shape {
	if cfg.tiny {
		return shape{passes: 2, warm: 0, rounds: 1, block: max(sp.minBlock, 1), yardBlock: 1}
	}
	passes := numPasses
	if sp.passes > 0 {
		passes = sp.passes
	}
	rounds := int(float64(sp.rounds)*cfg.seconds/refSeconds + 0.5)
	return shape{passes: passes, warm: warmRounds, rounds: max(rounds, 1), block: sp.block, yardBlock: sp.yardBlock}
}

// workload is one benchmark workload. Its value lives for the whole run and
// accumulates the layer counters of every pass.
type workload interface {
	spec() spec
	// setup builds one fresh instance of the program under test; sp is the
	// set-up's span.
	setup(e *env, sp spanRef) (pass, error)
	// finish derives the workload's per-layer metrics after a traced run,
	// running its one-shot probes.
	finish(e *env) error
}

// pass is one set-up instance of the program under test.
type pass interface {
	// before and after bracket one block; both run untimed. after verifies
	// the block's outputs: an error fails every op of the block.
	before(alg, round int)
	after(alg, round int) error
	// op runs one operation and returns how long the program under test
	// took. seq counts this client's ops of this algorithm over the pass.
	op(alg, client, seq int, sp spanRef) (time.Duration, error)
	close() error
}

// env is what a workload sees of the run.
type env struct {
	cfg config
	// tr is non-nil only while the traced pass runs.
	tr      *tracer
	passIdx int

	mu    sync.Mutex
	sets  map[string][]float64 // named sample sets, milliseconds
	layer map[string]float64

	// What the driver measured around the primary blocks of a traced run,
	// for the workload to file under the layer it belongs to (finish).
	allocsPerOp, allocBytesPerOp float64 // process-wide, runtime.MemStats
	traceOverhead                float64 // traced pass p50 / bare passes p50
}

// sample adds a duration to a named sample set. Only timed rounds count:
// the driver drops what warm-up rounds add (see runner.round).
func (e *env) sample(set string, d time.Duration) {
	e.mu.Lock()
	e.sets[set] = append(e.sets[set], float64(d)/1e6)
	e.mu.Unlock()
}

func (e *env) samples(set string) []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]float64(nil), e.sets[set]...)
}

// set records a per-layer metric.
func (e *env) set(name string, v float64) {
	e.mu.Lock()
	e.layer[name] = v
	e.mu.Unlock()
}

// get reads a per-layer metric recorded earlier in the run.
func (e *env) get(name string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.layer[name]
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// wallClock is the untraced run's wall-clock reading, printed as a
	// comment: what this machine did this minute, gated by nothing.
	wallClock string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// blockStat is what the driver measured around one timed block.
type blockStat struct {
	pass   int
	traced bool
	durs   []float64 // ms, one per op; nil when an op or the verification failed
	ops    int
	wall   float64 // seconds, the whole block
	cpu    float64 // process user+sys CPU seconds over the block
	// runtime.MemStats deltas over the block (primary blocks only).
	mallocs, allocBytes uint64
}

// meanMs is the block's time per op: what one op costs at the throughput
// the closed loop reached.
func (b blockStat) meanMs() float64 { return b.wall * 1e3 / float64(b.ops) }

// roundStat is one timed round: a block per algorithm, the yardstick's
// block, and the quotient of the round's means of the two ratio sets.
type roundStat struct {
	algs  []blockStat
	yard  blockStat
	ratio float64 // 0 when either set got no sample in this round
}

// runner drives the passes of one run.
type runner struct {
	e    *env
	w    workload
	sp   spec
	sh   shape
	opID int

	attempted, failed int
	hung              bool

	setupWall []float64 // seconds, one per set-up
	rounds    []roundStat
}

// run executes one whole run of the workload and returns its result.
func run(cfg config, w workload) (*result, error) {
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	goroutines0 := runtime.NumGoroutine()

	e := &env{cfg: cfg, sets: make(map[string][]float64), layer: make(map[string]float64)}
	r := &runner{e: e, w: w, sp: w.spec()}
	r.sh = cfg.shape(r.sp)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	for p := 0; p < r.sh.passes && !r.hung; p++ {
		e.passIdx = p
		e.tr = nil
		if p == tracedPass {
			e.tr = tr
		}
		if err := r.pass(); err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
	}
	e.tr = tr

	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	res.Correct = r.failed == 0 && r.attempted > 0
	if !cfg.trace {
		vals := r.endToEnd()
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		primary, yard := r.samples(false)
		res.wallClock = fmt.Sprintf("op p50 %.4g ms, p95 %.4g ms, yardstick p50 %.4g ms",
			median(primary), percentile(primary, 0.95), median(yard))
		return res, nil
	}

	r.driverMetrics(tr.snapshot(), procs)
	if !r.hung {
		if err := w.finish(e); err != nil {
			return nil, fmt.Errorf("per-layer probes: %w", err)
		}
		hostProbes(e)
	}
	r.countLeaks(goroutines0)
	spans := tr.snapshot()
	if err := checkSpans(spans); err != nil {
		return nil, fmt.Errorf("span tree: %w", err)
	}
	out := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(out, spans); err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{e.get(m.name), m.unit}
	}
	printSelfTimes(spans)
	return res, nil
}

// pass runs one pass: set-up, warm-up rounds, timed rounds, tear-down.
// Set-up is what the program under test does before its first op: building
// the world or booting the daemon, compiling, the daemon's cold fetches,
// allocating buffers. It ends before the first warm-up op.
func (r *runner) pass() error {
	e := r.e
	var ps pass
	for i := 0; i < max(r.sp.setups, 1); i++ {
		if ps != nil {
			if err := ps.close(); err != nil {
				return fmt.Errorf("tear-down: %w", err)
			}
		}
		t0 := time.Now()
		sp := e.tr.root("setup", -1)
		var err error
		ps, err = r.w.setup(e, sp)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		sp.end()
		r.setupWall = append(r.setupWall, time.Since(t0).Seconds())
	}
	yard, err := r.sp.yard()
	if err != nil {
		ps.close()
		return fmt.Errorf("yardstick: %w", err)
	}
	for round := 0; round < r.sh.warm+r.sh.rounds && !r.hung; round++ {
		r.round(ps, yard, round, round >= r.sh.warm)
	}
	if r.hung {
		return nil // the world is stuck; closing it could block too
	}
	yard.close()
	if err := ps.close(); err != nil {
		return fmt.Errorf("tear-down: %w", err)
	}
	return nil
}

// round runs one block of every algorithm and one of the yardstick. Warm-up
// rounds (timed false) run the same code, but nothing they measure is kept.
func (r *runner) round(ps pass, yard yardstick, round int, timed bool) {
	e := r.e
	e.mu.Lock()
	start := make(map[string]int, len(e.sets))
	for k, v := range e.sets {
		start[k] = len(v)
	}
	e.mu.Unlock()

	var rs roundStat
	for alg, name := range r.sp.algs {
		ps.before(alg, round)
		b, ok := r.block(name, r.sh.block, alg == 0, func(client, i int, sp spanRef) (time.Duration, error) {
			return ps.op(alg, client, round*r.sh.block+i, sp)
		})
		if !ok {
			return
		}
		failed := b.ops - len(b.durs)
		if err := ps.after(alg, round); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: round %d %s: verification failed: %v\n", r.sp.name, round, name, err)
			failed = b.ops
		}
		if failed > 0 {
			b.durs = nil // a block with a failed op has no latency to report
		}
		if timed {
			r.attempted += b.ops
			r.failed += failed
			e.mu.Lock()
			e.sets[name] = append(e.sets[name], b.durs...)
			e.mu.Unlock()
		}
		rs.algs = append(rs.algs, b)
	}
	// The yardstick is the benchmark's own code: its ops are not ops of the
	// program under test, so they are not counted; a failure is reported and
	// the round gives no yardstick reading.
	var ok bool
	rs.yard, ok = r.block("yard", r.sh.yardBlock, false, func(_, _ int, _ spanRef) (time.Duration, error) { return yard.op() })
	if !ok {
		return
	}
	if len(rs.yard.durs) < rs.yard.ops {
		rs.yard.durs = nil
	}

	failed := false
	for _, b := range rs.algs {
		failed = failed || b.durs == nil
	}
	e.mu.Lock()
	if !timed || failed {
		// Nothing of the round is kept: not what it added to the sample
		// sets, not the blocks that did succeed beside a failed one.
		for k := range e.sets {
			e.sets[k] = e.sets[k][:start[k]]
		}
		for i := range rs.algs {
			rs.algs[i].durs = nil
		}
	} else {
		a, b := r.sp.ratio[0], r.sp.ratio[1]
		rs.ratio = ratio(mean(e.sets[a][start[a]:]), mean(e.sets[b][start[b]:]))
	}
	e.mu.Unlock()
	if timed {
		r.rounds = append(r.rounds, rs)
	}
}

// block runs perClient ops on each client and measures the block: op times,
// wall and CPU time, and (memStats) what the process allocated. ok is false
// when the watchdog fired; the run then stops measuring.
func (r *runner) block(name string, perClient int, memStats bool, opFn func(client, i int, sp spanRef) (time.Duration, error)) (b blockStat, ok bool) {
	b = blockStat{pass: r.e.passIdx, traced: r.e.tr != nil, ops: perClient * r.sp.clients}
	opBase := r.opID
	r.opID += b.ops
	var ms0, ms1 runtime.MemStats
	if memStats {
		runtime.ReadMemStats(&ms0)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	t0 := time.Now()
	for c := 0; c < r.sp.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				sp := r.e.tr.root("op."+name, opBase+c*perClient+i)
				d, err := opFn(c, i, sp)
				sp.end()
				mu.Lock()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %s op failed: %v\n", r.sp.name, name, err)
				} else {
					b.durs = append(b.durs, float64(d)/1e6)
				}
				mu.Unlock()
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	watchdog := time.NewTimer(blockTimeout)
	defer watchdog.Stop()
	select {
	case <-done:
	case <-watchdog.C:
		r.hung = true
		fmt.Fprintf(os.Stderr, "bench: %s: block of %s hung for %v; its %d ops count as failed\n",
			r.sp.name, name, blockTimeout, b.ops)
		if name != "yard" {
			r.attempted += b.ops
			r.failed += b.ops
		}
		return blockStat{}, false
	}
	b.wall = time.Since(t0).Seconds()
	b.cpu = (cpuTime() - cpu0).Seconds()
	if memStats {
		runtime.ReadMemStats(&ms1)
		b.mallocs, b.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	}
	return b, true
}

// primaryBlocks returns the timed primary blocks that ran traced or bare, in
// order, leaving out failed ones.
func (r *runner) primaryBlocks(traced bool) []blockStat {
	var out []blockStat
	for _, rs := range r.rounds {
		if b := rs.algs[0]; b.traced == traced && b.durs != nil {
			out = append(out, b)
		}
	}
	return out
}

// samples returns the op times, in ms, of the primary and of the yardstick
// over the timed rounds that ran traced or bare.
func (r *runner) samples(traced bool) (primary, yard []float64) {
	for _, rs := range r.rounds {
		if rs.yard.traced == traced {
			primary = append(primary, rs.algs[0].durs...)
			yard = append(yard, rs.yard.durs...)
		}
	}
	return primary, yard
}

// endToEnd computes the end-to-end metrics of an untraced run (metrics.go
// says what each one means).
func (r *runner) endToEnd() map[string]float64 {
	var opVsYard, tailVsYard, ours, cpuWall, allocs, allocKB []float64
	for _, rs := range r.rounds {
		p := rs.algs[0]
		if p.durs == nil {
			continue
		}
		if rs.yard.durs != nil {
			opVsYard = append(opVsYard, p.meanMs()/rs.yard.meanMs())
			tailVsYard = append(tailVsYard, percentile(p.durs, 1)/median(rs.yard.durs))
		}
		if rs.ratio > 0 {
			ours = append(ours, rs.ratio)
		}
		cpuWall = append(cpuWall, p.cpu/p.wall)
		allocs = append(allocs, float64(p.mallocs)/float64(p.ops))
		allocKB = append(allocKB, float64(p.allocBytes)/1024/float64(p.ops))
	}
	// Set-up is a wall time, and wall times move by half with the machine's
	// other tenants: report it at the yardstick's reference speed.
	_, yard := r.samples(false)
	return map[string]float64{
		"setup_s":         median(r.setupWall) * ratio(r.sp.yardRefMs, median(yard)),
		"op_vs_yard":      median(opVsYard),
		"op_tail_vs_yard": median(tailVsYard),
		"ours_vs_ref":     median(ours),
		"cpu_per_wall":    median(cpuWall),
		"allocs_per_op":   median(allocs),
		"alloc_kb_per_op": median(allocKB),
		"peak_rss_mb":     peakRSSMB(),
	}
}

// driverMetrics derives the driver.* rows and the rows every workload
// shares from what the runner measured. Wall-clock rows come from the bare
// passes only.
func (r *runner) driverMetrics(spans []span, procs int) {
	e := r.e
	ops := 0
	for _, rs := range r.rounds {
		ops += rs.algs[0].ops
	}
	e.set("driver.ops_total", float64(ops))
	e.set("driver.samples", float64(len(e.samples(r.sp.algs[0]))))
	e.set("driver.failed_frac", ratio(float64(r.failed), float64(r.attempted)))

	bare, yard := r.samples(false)
	e.set("driver.op_p50_ms", median(bare))
	e.set("driver.op_p95_ms", percentile(bare, 0.95))
	e.set("driver.op_p95_over_p50", ratio(percentile(bare, 0.95), median(bare)))
	e.set("driver.yard_p50_ms", median(yard))
	e.set("driver.setup_wall_s", median(r.setupWall))
	var wall float64
	var cpuOp, allocs, bytes []float64
	byPass := make(map[int][]float64)
	for _, b := range r.primaryBlocks(false) {
		wall += b.wall
		cpuOp = append(cpuOp, b.cpu*1e3/float64(b.ops))
		allocs = append(allocs, float64(b.mallocs)/float64(b.ops))
		bytes = append(bytes, float64(b.allocBytes)/float64(b.ops))
		byPass[b.pass] = append(byPass[b.pass], b.durs...)
	}
	e.set("driver.ops_per_s", ratio(float64(len(bare)), wall))
	e.set("driver.cpu_ms_per_op", median(cpuOp))
	e.allocsPerOp, e.allocBytesPerOp = median(allocs), median(bytes)
	// The run's own noise reading: how far the bare passes' medians lie apart.
	lo, hi := math.Inf(1), 0.0
	for _, d := range byPass {
		lo, hi = min(lo, median(d)), max(hi, median(d))
	}
	e.set("driver.pass_spread", ratio(hi, lo))
	traced, _ := r.samples(true)
	e.traceOverhead = ratio(median(traced), median(bare))
	e.set("driver.trace_overhead", e.traceOverhead)
	// Share of the primary op's own span that none of its children cover:
	// time the benchmark cannot attribute to a layer call.
	self := selfTimes(spans)
	opName := "op." + r.sp.algs[0]
	e.set("driver.op_self_frac", ratio(self[opName]*1e3, sum(durationsMs(spans, opName))))

	e.set("host.nproc", float64(runtime.NumCPU()))
	e.set("host.gomaxprocs", float64(procs))
}

// countLeaks reports the goroutines the run left behind, after every world,
// server and probe has been closed.
func (r *runner) countLeaks(goroutines0 int) {
	// Transport goroutines exit asynchronously after Close returns; give
	// them a moment before calling any survivor a leak.
	leaked := 0
	for i := 0; i < 250; i++ {
		if leaked = runtime.NumGoroutine() - goroutines0; leaked <= 0 || r.hung {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	r.e.set("driver.goroutines_leaked", float64(max(leaked, 0)))
}

// printSelfTimes prints the traced pass's layer self times, largest first.
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	total := 0.0
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("# traced pass: self time by span (%d spans)\n", len(spans))
	for _, n := range names {
		fmt.Printf("#   %-28s %10.3f ms  %5.1f %%\n", n, self[n]*1e3, 100*ratio(self[n], total))
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// mean of v, or 0 when it is empty.
func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile interpolates linearly between the two nearest ranks; an empty
// sample gives 0.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
