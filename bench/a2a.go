package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/shm"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/obsv/collect"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

const (
	// a2aRanks is the world size of the all-to-all workloads: a chain of two
	// switches with four machines each, AAPC load 16, so the compiled
	// routine has 16 phases and real pair-wise synchronization traffic.
	a2aRanks = 8
	// a2aIters is the number of back-to-back all-to-alls in one op — one
	// "execution" of the paper's measurement procedure.
	a2aIters = 10
	// tcpHeaderBytes is the documented size of a tcp frame header (data or
	// ack); tcp.wire_overhead is computed from it, not measured on the wire.
	tcpHeaderBytes = 33
)

// chainCluster builds n machines spread evenly over a chain of switches.
func chainCluster(switches, perSwitch int) *topology.Graph {
	g := topology.New()
	sw := make([]int, switches)
	for i := range sw {
		sw[i] = g.MustAddSwitch(fmt.Sprintf("s%d", i))
		if i > 0 {
			g.MustConnect(sw[i-1], sw[i])
		}
	}
	for i := 0; i < switches*perSwitch; i++ {
		g.MustConnect(sw[i/perSwitch], g.MustAddMachine(fmt.Sprintf("n%d", i)))
	}
	return g.MustValidate()
}

// routine is a topology compiled into a runnable all-to-all.
type routine struct {
	s    *schedule.Schedule
	plan *syncplan.Plan
	sc   *alltoall.Scheduled
}

// compileRoutine runs the paper's generator, topology to runnable routine,
// with one span per stage under sp. It checks what every compiled topology
// must satisfy: the schedule verifies as contention-free and optimal, and
// its phase count equals the topology's AAPC load.
func compileRoutine(g *topology.Graph, sp spanRef) (*routine, error) {
	c := sp.child("schedule.Build")
	s, err := schedule.Build(g)
	c.end()
	if err != nil {
		return nil, err
	}
	c = sp.child("schedule.Verify")
	err = schedule.Verify(g, s, true)
	c.end()
	if err != nil {
		return nil, err
	}
	if len(s.Phases) != g.AAPCLoad() {
		return nil, fmt.Errorf("schedule has %d phases, AAPC load is %d", len(s.Phases), g.AAPCLoad())
	}
	return planAndProgram(g, s, sp)
}

// planAndProgram is the back half of the generator, shared with the greedy
// comparator of the compile workload.
func planAndProgram(g *topology.Graph, s *schedule.Schedule, sp spanRef) (*routine, error) {
	c := sp.child("syncplan.Build")
	plan, err := syncplan.Build(g, s)
	c.end()
	if err != nil {
		return nil, err
	}
	c = sp.child("alltoall.NewScheduled")
	sc, err := alltoall.NewScheduled(s, plan, alltoall.PairwiseSync)
	c.end()
	if err != nil {
		return nil, err
	}
	return &routine{s: s, plan: plan, sc: sc}, nil
}

// setRoutineMetrics records the exact counts of a compiled routine.
func setRoutineMetrics(e *env, rt *routine) {
	e.set("schedule.phases", float64(len(rt.s.Phases)))
	e.set("syncplan.conflict_pairs", float64(rt.plan.ConflictPairs))
	e.set("syncplan.syncs", float64(rt.plan.NumSyncs()))
}

// setStageMetrics records the median duration of each generator stage seen
// in the traced spans.
func setStageMetrics(e *env, spans []span) {
	for name, metric := range map[string]string{
		"schedule.Build":        "schedule.build_ms",
		"schedule.Verify":       "schedule.verify_ms",
		"syncplan.Build":        "syncplan.build_ms",
		"alltoall.NewScheduled": "alltoall.program_compile_ms",
	} {
		e.set(metric, median(durationsMs(spans, name)))
	}
}

// world is a set of connected ranks on one transport.
type world struct {
	comms []mpi.Comm
	// tcpStats and shmStats snapshot the transport's cumulative counters
	// (nil when the transport has none of that kind).
	tcpStats func() tcp.Stats
	shmStats func() shm.Stats
	close    func() error
}

// newWorld connects n ranks: "tcp" is the in-process loopback world, "dist"
// the rendezvous-joined mesh (sockets only), "shm" shared-memory rings,
// "mem" the in-process matcher.
func newWorld(transport string, n int) (*world, error) {
	switch transport {
	case "tcp":
		comms, closeFn, err := tcp.NewWorld(n)
		if err != nil {
			return nil, err
		}
		st := comms[0].(interface{ TransportStats() tcp.Stats })
		return &world{comms: comms, tcpStats: st.TransportStats, close: closeFn}, nil
	case "dist":
		return joinWorld(n)
	case "shm":
		comms, w := shm.NewWorldComms(n)
		return &world{comms: comms, shmStats: w.Stats, close: func() error { w.Close(); return nil }}, nil
	case "mem":
		return &world{comms: mem.NewWorld(n), close: func() error { return nil }}, nil
	}
	return nil, fmt.Errorf("unknown transport %q", transport)
}

// joinWorld starts a coordinator and joins n endpoints through it, each
// standing in for one process of a deployed run. Shared memory is off: this
// world exists to measure the distributed tcp data plane.
func joinWorld(n int) (*world, error) {
	coord, err := tcp.StartCoordinator("127.0.0.1:0", n, tcp.WithRendezvousTimeout(20*time.Second))
	if err != nil {
		return nil, err
	}
	comms := make([]mpi.Comm, n)
	closers := make([]func() error, n)
	errs := make([]error, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, closeFn, err := tcp.Join(coord.Addr(), tcp.WithoutSharedMemory())
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock() // ranks are handed out in arrival order
			comms[c.Rank()], closers[c.Rank()] = c, closeFn
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	closeAll := func() error {
		var first error
		for _, fn := range closers {
			if fn != nil {
				if err := fn(); err != nil && first == nil {
					first = err
				}
			}
		}
		coord.Close()
		return first
	}
	for _, err := range errs {
		if err != nil {
			closeAll()
			return nil, err
		}
	}
	if err := coord.Wait(); err != nil {
		closeAll()
		return nil, err
	}
	stats := func() tcp.Stats {
		var total tcp.Stats
		for _, c := range comms {
			total = combine(total, c.(interface{ TransportStats() tcp.Stats }).TransportStats(), +1)
		}
		return total
	}
	return &world{comms: comms, tcpStats: stats, close: closeAll}, nil
}

// combine returns a + sign*b over every counter of a stats struct.
func combine[T any](a, b T, sign int) T {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if sign > 0 {
			va.Field(i).SetUint(va.Field(i).Uint() + vb.Field(i).Uint())
		} else {
			va.Field(i).SetUint(va.Field(i).Uint() - vb.Field(i).Uint())
		}
	}
	return a
}

// fillBlock fills dst with the pseudo-random stream of key (splitmix64).
func fillBlock(dst []byte, key uint64) {
	var word [8]byte
	for i := 0; i < len(dst); i += 8 {
		key += 0x9e3779b97f4a7c15
		z := key
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(word[:], z^(z>>31))
		copy(dst[i:], word[:])
	}
}

// blockKey derives the payload of the block src sends to dst. Pass, round
// and algorithm are part of the key, so data left over from an earlier
// block can never pass for this one's.
func blockKey(seed int64, pass, round, alg, src, dst int) uint64 {
	k := uint64(seed)
	for _, v := range []int{pass, round, alg, src, dst} {
		k = (k ^ uint64(v+1)) * 0x100000001b3
	}
	return k
}

// a2aWorkload is one of the four all-to-all workloads: the compiled routine
// (primary) against the LAM and MPICH algorithms on one transport at one
// block size.
type a2aWorkload struct {
	name      string
	transport string
	msize     int
	block     int
	rounds    int
	passes    int
	yard      func() (yardstick, error)
	yardBlock int
	yardRefMs float64

	g  *topology.Graph
	rt *routine

	// Accumulated around the primary blocks of timed and warm-up rounds
	// alike (the counters are per op, so both kinds count the same).
	ops       int
	tcp       tcp.Stats
	shm       shm.Stats
	events    int
	eventOps  int
	worldMs   []float64
	lastTrace []*obsv.Recorder
}

func (w *a2aWorkload) spec() spec {
	return spec{name: w.name, algs: []string{"ours", "lam", "mpich"}, block: w.block, rounds: w.rounds, passes: w.passes, setups: 5, clients: 1,
		ratio: [2]string{"ours", "lam"}, yard: w.yard, yardBlock: w.yardBlock, yardRefMs: w.yardRefMs}
}

type a2aPass struct {
	w     *a2aWorkload
	e     *env
	world *world
	fns   []alltoall.Func
	bufs  []*alltoall.Contig
	want  []byte

	tcp0 tcp.Stats
	shm0 shm.Stats
}

func (w *a2aWorkload) setup(e *env, sp spanRef) (pass, error) {
	w.g = chainCluster(2, a2aRanks/2)
	rt, err := compileRoutine(w.g, sp)
	if err != nil {
		return nil, err
	}
	w.rt = rt
	c := sp.child("newWorld." + w.transport)
	t0 := time.Now()
	wd, err := newWorld(w.transport, a2aRanks)
	c.end()
	if err != nil {
		return nil, err
	}
	w.worldMs = append(w.worldMs, float64(time.Since(t0))/1e6)
	p := &a2aPass{w: w, e: e, world: wd,
		fns:  []alltoall.Func{rt.sc.Fn(), alltoall.Simple, alltoall.MPICH},
		bufs: make([]*alltoall.Contig, a2aRanks),
		want: make([]byte, w.msize),
	}
	for r := range p.bufs {
		p.bufs[r] = alltoall.NewContig(a2aRanks, w.msize)
	}
	return p, nil
}

func (p *a2aPass) before(alg, round int) {
	for src, b := range p.bufs {
		for dst := 0; dst < a2aRanks; dst++ {
			fillBlock(b.SendBlock(dst), blockKey(p.e.cfg.seed, p.e.passIdx, round, alg, src, dst))
		}
	}
	if alg != 0 {
		return
	}
	if p.world.tcpStats != nil {
		p.tcp0 = p.world.tcpStats()
	}
	if p.world.shmStats != nil {
		p.shm0 = p.world.shmStats()
	}
}

// execute runs one execution: every rank runs a2aIters all-to-alls of fn
// back to back, the paper's measurement procedure.
func execute(comms []mpi.Comm, fn alltoall.Func, bufs []*alltoall.Contig, msize int, sp spanRef) (time.Duration, error) {
	errs := make([]error, len(comms))
	var wg sync.WaitGroup
	wg.Add(len(comms))
	t0 := time.Now()
	for r := range comms {
		go func(r int) {
			defer wg.Done()
			c := sp.child("rank.run")
			defer c.end()
			for i := 0; i < a2aIters && errs[r] == nil; i++ {
				errs[r] = fn(comms[r], bufs[r], msize)
			}
		}(r)
	}
	wg.Wait()
	d := time.Since(t0)
	for r, err := range errs {
		if err != nil {
			return d, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return d, nil
}

// op is one execution. In the traced pass the primary runs over
// obsv-instrumented comms, with fresh recorders for every op so that a pass
// never holds more than one op's events.
func (p *a2aPass) op(alg, _, _ int, sp spanRef) (time.Duration, error) {
	comms := p.world.comms
	if alg == 0 && p.e.tr != nil {
		recs := make([]*obsv.Recorder, a2aRanks)
		comms = make([]mpi.Comm, a2aRanks)
		for r, c := range p.world.comms {
			recs[r] = obsv.NewRecorder(r)
			comms[r] = obsv.Instrument(c, recs[r])
		}
		defer func() {
			for _, r := range recs {
				p.w.events += r.NumEvents()
			}
			p.w.eventOps++
			p.w.lastTrace = recs
		}()
	}
	return execute(comms, p.fns[alg], p.bufs, p.w.msize, sp)
}

func (p *a2aPass) after(alg, round int) error {
	if alg == 0 {
		w := p.w
		w.ops += w.block
		if p.world.tcpStats != nil {
			w.tcp = combine(w.tcp, combine(p.world.tcpStats(), p.tcp0, -1), +1)
		}
		if p.world.shmStats != nil {
			w.shm = combine(w.shm, combine(p.world.shmStats(), p.shm0, -1), +1)
		}
	}
	for me, b := range p.bufs {
		for src := 0; src < a2aRanks; src++ {
			fillBlock(p.want, blockKey(p.e.cfg.seed, p.e.passIdx, round, alg, src, me))
			if !bytes.Equal(b.RecvBlock(src), p.want) {
				return fmt.Errorf("rank %d holds wrong bytes from rank %d", me, src)
			}
		}
	}
	return nil
}

func (p *a2aPass) close() error { return p.world.close() }

func (w *a2aWorkload) finish(e *env) error {
	spans := e.tr.snapshot()
	setStageMetrics(e, spans)
	setRoutineMetrics(e, w.rt)
	ops := float64(w.ops)
	e.set("alltoall.sync_msgs_per_op", float64(a2aIters*w.rt.sc.SyncCount()))
	e.set("alltoall.goodput_MBps",
		ratio(float64(a2aIters*a2aRanks*(a2aRanks-1)*w.msize)/1e6, e.get("driver.op_p50_ms")/1e3))
	// The collective and its transport do all the allocating in an op, and
	// the traced pass differs from the bare ones by the obsv wrapper alone.
	e.set("alltoall.allocs_per_op", e.allocsPerOp)
	e.set("alltoall.alloc_bytes_per_op", e.allocBytesPerOp)
	e.set("obsv.op_overhead", e.traceOverhead)
	e.set("alltoall.lam_p50_ms", median(e.samples("lam")))
	e.set("alltoall.lam_p95_ms", percentile(e.samples("lam"), 0.95))
	e.set("alltoall.mpich_p50_ms", median(e.samples("mpich")))
	e.set("alltoall.mpich_p95_ms", percentile(e.samples("mpich"), 0.95))

	switch w.transport {
	case "tcp", "dist":
		setup := "tcp.world_setup_ms"
		if w.transport == "dist" {
			setup = "tcp.join_mesh_ms"
		}
		e.set(setup, median(w.worldMs))
		s := w.tcp
		frames := float64(s.FramesSent)
		e.set("tcp.data_frames_per_op", frames/ops)
		e.set("tcp.acks_per_op", float64(s.AcksSent)/ops)
		e.set("tcp.writevs_per_op", float64(s.Writevs)/ops)
		e.set("tcp.coalescing", ratio(frames+float64(s.AcksSent), float64(s.Writevs)))
		e.set("tcp.borrowed_ratio", ratio(float64(s.BorrowedSends), float64(s.BorrowedSends+s.CopiedSends)))
		e.set("tcp.zero_copy_recv_ratio", ratio(float64(s.ZeroCopyRecvs), frames))
		e.set("tcp.payload_copies_per_op", float64(s.PayloadCopies)/ops)
		e.set("tcp.wire_overhead", ratio(tcpHeaderBytes*(frames+float64(s.AcksSent)), float64(s.BytesSent)))
		e.set("tcp.retransmits", float64(s.Retransmits))
		e.set("tcp.reconnects", float64(s.Reconnects))
		e.set("tcp.dup_discards", float64(s.DupDiscards))
		us, mbps, err := transportProbes(w.transport)
		if err != nil {
			return err
		}
		e.set("tcp.pingpong_us", us)
		e.set("tcp.stream_MBps", mbps)
	case "shm":
		s := w.shm
		msgs := float64(s.DirectPlacements + s.RingTransits + s.OverflowStages)
		e.set("shm.direct_ratio", ratio(float64(s.DirectPlacements), msgs))
		e.set("shm.ring_transits_per_op", float64(s.RingTransits)/ops)
		e.set("shm.overflow_per_op", float64(s.OverflowStages)/ops)
		e.set("shm.copies_per_op", float64(s.DirectPlacements+2*s.RingTransits+2*s.OverflowStages)/ops)
		us, _, err := transportProbes("shm")
		if err != nil {
			return err
		}
		e.set("shm.pingpong_us", us)
		floor, err := memFloor(w.rt, w.msize)
		if err != nil {
			return err
		}
		e.set("mem.a2a_1k_p50_ms", floor)
	}

	e.set("obsv.events_per_op", ratio(float64(w.events), float64(w.eventOps)))
	return w.decompose(e)
}

// decompose feeds the last traced op's recorders to the repo's own
// collector and reports where the ranks' time went: blocked on pair-wise
// synchronization, with data in flight, or spread at phase entry.
func (w *a2aWorkload) decompose(e *env) error {
	if len(w.lastTrace) == 0 {
		return fmt.Errorf("the traced pass recorded no obsv events")
	}
	store := collect.NewStore()
	store.SetCommonClock(true) // one process, one clock
	n := 0
	t0 := time.Now()
	for _, r := range w.lastTrace {
		evs := r.Events()
		n += len(evs)
		store.AddEvents(evs)
	}
	e.set("collect.ingest_spans_per_s", ratio(float64(n), time.Since(t0).Seconds()))
	t0 = time.Now()
	rep := store.Analyze(w.g)
	e.set("collect.analyze_ms", float64(time.Since(t0))/1e6)
	var syncWait, transmit, skew float64
	for _, ph := range rep.Phases {
		syncWait += ph.SyncWait
		transmit += ph.Transmit
		skew += ph.EnterSkew
	}
	rankTime := float64(rep.Ranks) * rep.Makespan
	e.set("alltoall.sync_wait_frac", ratio(syncWait, rankTime))
	e.set("alltoall.transmit_frac", ratio(transmit, rankTime))
	e.set("alltoall.enter_skew_ms", ratio(skew*1e3, float64(len(rep.Phases))))
	return nil
}

// transportProbes measures a two-rank world of the transport: the median
// 64-byte ping-pong round trip in microseconds (the per-message floor) and
// the one-way rate of 1 MiB messages in MB/s (the bandwidth ceiling).
func transportProbes(transport string) (pingpongUs, streamMBps float64, err error) {
	wd, err := newWorld(transport, 2)
	if err != nil {
		return 0, 0, err
	}
	const pings, msgs, big = 2000, 64, 1 << 20
	rtts := make([]float64, 0, pings)
	var stream time.Duration
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				c, peer := wd.comms[r], 1-r
				small, large := make([]byte, 64), make([]byte, big)
				for i := 0; i < pings; i++ {
					t0 := time.Now()
					if r == 0 {
						if err := mpi.Send(c, small, peer, 7); err != nil {
							return err
						}
						if err := mpi.Recv(c, small, peer, 7); err != nil {
							return err
						}
						rtts = append(rtts, float64(time.Since(t0))/1e3)
					} else {
						if err := mpi.Recv(c, small, peer, 7); err != nil {
							return err
						}
						if err := mpi.Send(c, small, peer, 7); err != nil {
							return err
						}
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				t0 := time.Now()
				for i := 0; i < msgs; i++ {
					var err error
					if r == 0 {
						err = mpi.Send(c, large, peer, 8)
					} else {
						err = mpi.Recv(c, large, peer, 8)
					}
					if err != nil {
						return err
					}
				}
				if r == 1 {
					stream = time.Since(t0)
				}
				return c.Barrier()
			}()
		}(r)
	}
	wg.Wait()
	if cerr := wd.close(); cerr != nil && errs[0] == nil {
		errs[0] = cerr
	}
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return median(rtts), msgs * big / 1e6 / stream.Seconds(), nil
}

// memFloor times the same execution on the in-process matcher with no
// transport beneath it: what is left is matching and per-op bookkeeping.
func memFloor(rt *routine, msize int) (float64, error) {
	wd, err := newWorld("mem", a2aRanks)
	if err != nil {
		return 0, err
	}
	bufs := make([]*alltoall.Contig, a2aRanks)
	for r := range bufs {
		bufs[r] = alltoall.NewContig(a2aRanks, msize)
	}
	var ms []float64
	for i := 0; i < 60; i++ {
		d, err := execute(wd.comms, rt.sc.Fn(), bufs, msize, spanRef{})
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(d)/1e6)
	}
	return median(ms), wd.close()
}
