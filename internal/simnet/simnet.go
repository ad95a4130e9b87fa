// Package simnet simulates an Ethernet switched cluster with virtual time.
//
// The simulator substitutes for the paper's physical 32-node 100 Mbps
// testbed. It executes unmodified mpi algorithms — each rank runs as a
// goroutine against an mpi.Comm — while modelling the network as a fluid
// system on the cluster tree:
//
//   - Every directed link has a fixed capacity (full-duplex Ethernet).
//   - A message becomes a flow when both its send and its receive are
//     posted (rendezvous), and starts moving StartupLatency seconds later
//     (per-message software/protocol overhead).
//   - Concurrent flows share links by max-min fairness, recomputed whenever
//     a flow starts or finishes (progressive filling).
//   - A link crossed by n concurrent flows runs at efficiency
//     effMin + (1-effMin)/n: full speed for a single flow, degrading toward
//     the MinEfficiency floor as oversubscription grows. This models the
//     packet loss and TCP backoff that make unscheduled AAPC collapse on
//     real Ethernet, which a pure fluid model would hide.
//
// Virtual time advances only when every rank is blocked (conservative
// synchronous simulation), so results are deterministic regardless of
// goroutine scheduling.
//
// The engine is built to stay tractable far past the paper's 32 nodes:
// timers and flow activations live in an indexed min-heap event calendar,
// flow completions are found through a completion horizon recomputed only
// when rates change, per-link byte accounting integrates aggregate link
// rates instead of per-flow increments, and blocked ranks park on per-rank
// wait channels so an event wakes only the ranks it completes (no broadcast
// storms). Max-min rates come from the aggregated incidence-list solver
// (zero allocations at steady state); the original dense solver stays as the
// reference oracle this package's tests check it against.
//
// The simulator keeps no trace of its own. A traced simulation runs its
// ranks through obsv.Instrument exactly like every transport does, and the
// engine stamps each traced message's completion (mpi.TraceInfo) with the
// virtual time its last byte arrived.
package simnet

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// Config describes the simulated cluster and its cost model.
type Config struct {
	// Graph is the cluster topology; one rank per machine.
	Graph *topology.Graph
	// LinkBandwidth is the capacity of every link in bytes/second.
	// The paper's clusters use 100 Mbps Ethernet = 12.5e6 B/s.
	LinkBandwidth float64
	// StartupLatency is the per-message overhead in seconds between the
	// rendezvous match and the first byte moving (software stack, protocol
	// handshake). Default 0.5 ms, calibrated against the paper's 8 KB rows.
	StartupLatency float64
	// MinEfficiency is the asymptotic efficiency of a link shared by many
	// flows (TCP collapse floor). 1.0 gives an ideal fluid network.
	// Default 0.6.
	MinEfficiency float64
	// BarrierLatency is the virtual-time cost of a barrier once the last
	// rank arrives. Default 2 * StartupLatency * ceil(log2(N)).
	BarrierLatency float64
	// ControlLatency, when positive, is the startup latency applied to
	// control-sized messages (at most mpi.ControlSizeMax bytes) instead of
	// StartupLatency. Small packets cross a real MPI/TCP stack much faster
	// than the rendezvous of a large transfer; this knob lets the
	// synchronization messages of the scheduled algorithm pay a realistic
	// latency. Zero keeps StartupLatency for all messages.
	ControlLatency float64
	// JitterFrac adds deterministic pseudo-random variation to the startup
	// latency: each message pays StartupLatency * (1 + JitterFrac * u) with
	// u in [0, 1) derived from a hash of (src, dst, tag, per-key sequence
	// number) and JitterSeed. This models the OS-scheduling and protocol
	// timing noise of a real cluster — the noise that makes unsynchronized
	// phased algorithms drift into contention — while keeping runs exactly
	// reproducible. Default 0 (no jitter).
	JitterFrac float64
	// JitterSeed selects the jitter pattern; equal seeds give identical
	// runs.
	JitterSeed uint64

	// dense selects the reference dense max-min solver instead of the
	// aggregated one. Only this package's equivalence tests set it.
	dense bool
}

// Defaults for the zero fields of Config, chosen to mimic the paper's
// 100 Mbps Ethernet testbed.
const (
	DefaultLinkBandwidth  = 12.5e6 // 100 Mbps in bytes/second
	DefaultStartupLatency = 0.5e-3
	DefaultMinEfficiency  = 0.6
)

func (cfg *Config) withDefaults() (Config, error) {
	out := *cfg
	if out.Graph == nil {
		return out, fmt.Errorf("simnet: Config.Graph is nil")
	}
	if err := out.Graph.Validate(); err != nil {
		return out, err
	}
	if out.LinkBandwidth == 0 {
		out.LinkBandwidth = DefaultLinkBandwidth
	}
	if out.LinkBandwidth <= 0 {
		return out, fmt.Errorf("simnet: non-positive bandwidth %v", out.LinkBandwidth)
	}
	if out.StartupLatency == 0 {
		out.StartupLatency = DefaultStartupLatency
	}
	if out.StartupLatency < 0 {
		return out, fmt.Errorf("simnet: negative startup latency %v", out.StartupLatency)
	}
	if out.MinEfficiency == 0 {
		out.MinEfficiency = DefaultMinEfficiency
	}
	if out.MinEfficiency <= 0 || out.MinEfficiency > 1 {
		return out, fmt.Errorf("simnet: MinEfficiency %v outside (0, 1]", out.MinEfficiency)
	}
	if out.BarrierLatency == 0 {
		n := out.Graph.NumMachines()
		out.BarrierLatency = 2 * out.StartupLatency * math.Ceil(math.Log2(float64(n)+1))
	}
	if out.JitterFrac < 0 {
		return out, fmt.Errorf("simnet: negative JitterFrac %v", out.JitterFrac)
	}
	if out.ControlLatency < 0 {
		return out, fmt.Errorf("simnet: negative ControlLatency %v", out.ControlLatency)
	}
	return out, nil
}

// World is one simulated cluster instance. A World runs a single program
// (one function per rank) and is then exhausted; create a new World per run.
type World struct {
	cfg Config
	eng *engine
}

// NewWorld builds a simulated world for the topology in cfg.
func NewWorld(cfg Config) (*World, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &World{cfg: full, eng: newEngine(full)}, nil
}

// Comms returns one communicator per machine rank. Each must be used only
// from the goroutine that runs that rank.
func (w *World) Comms() []mpi.Comm {
	comms := make([]mpi.Comm, w.eng.n)
	for i := range comms {
		comms[i] = &comm{e: w.eng, rank: i}
	}
	return comms
}

// Run executes fn once per rank on its own goroutine and waits for all,
// returning the first error. Virtual time advances as the ranks communicate;
// after Run returns, Elapsed reports the completion time of the whole
// program.
func (w *World) Run(fn func(c mpi.Comm) error) error {
	comms := w.Comms()
	errs := make(chan error, len(comms))
	for _, c := range comms {
		// Rank goroutines are arbitrated by the virtual clock: their
		// interleaving cannot affect simulated time.
		go func(c mpi.Comm) {
			defer w.eng.finish()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("simnet: rank %d panicked: %v", c.Rank(), r)
					return
				}
			}()
			errs <- fn(c)
		}(c)
	}
	var first error
	for range comms {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Elapsed returns the current virtual time in seconds.
func (w *World) Elapsed() float64 {
	w.eng.mu.Lock()
	defer w.eng.mu.Unlock()
	return w.eng.clock
}

// LinkStats describes the cumulative utilization of one directed link after
// a run.
type LinkStats struct {
	Edge topology.Edge
	// Bytes is the total number of bytes carried.
	Bytes float64
	// BusySeconds integrates the fraction of raw capacity in use over time;
	// BusySeconds/Elapsed is the mean utilization.
	BusySeconds float64
}

// LinkStats returns per-directed-edge utilization, sorted by edge index.
func (w *World) LinkStats() []LinkStats {
	e := w.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]LinkStats, e.idx.Len())
	for i := range out {
		out[i] = LinkStats{
			Edge:        e.idx.Edge(i),
			Bytes:       e.linkBytes[i],
			BusySeconds: e.linkBytes[i] / e.edgeCap[i],
		}
	}
	return out
}

// FlowCount returns the total number of flows the run created.
func (w *World) FlowCount() int {
	w.eng.mu.Lock()
	defer w.eng.mu.Unlock()
	return w.eng.flowSeq
}

// Events returns the number of discrete events the engine has processed
// (virtual-time advances). Together with wall-clock time it gives the
// simulator's events/second throughput.
func (w *World) Events() int64 {
	w.eng.mu.Lock()
	defer w.eng.mu.Unlock()
	return w.eng.events
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

type matchKey struct{ src, dst, tag int }

// simOp is a posted send or receive; it doubles as the request handed back
// to the posting rank. Completion is driven by the engine. Ops are never
// recycled, so info may be read after the block returns.
type simOp struct {
	// Op is the caller's descriptor; flows are sized by len(Buf) and
	// completed by copying the send's Buf into the receive's.
	mpi.Op
	e        *engine
	rank     int // the posting rank, which is the one that waits
	done     bool
	err      error
	nwaiters int   // ranks currently blocked on this op
	waiters  []int // ranks to wake when the op completes
	// info is stamped on both sides of a matched pair when its flow
	// completes (traced flows only): the send's context and the virtual
	// time the flow finished. It is the simulator's whole trace output.
	info mpi.TraceInfo
}

// Wait implements mpi.Request. Virtual time has no wall-clock deadline: d is
// ignored, and a wait that can never complete is reported as a deadlock.
func (op *simOp) Wait(time.Duration) (mpi.TraceInfo, error) {
	err := op.e.block(op, op.rank)
	return op.info, err
}

// flow is a matched message in transit.
type flow struct {
	src, dst int
	tag      int
	// matchIdx is the per-(src,dst,tag) match sequence number. Unlike the
	// global creation order (which depends on how rank goroutines happen to
	// interleave when several pairs match at the same virtual instant), it is
	// deterministic: the send queue for a key is filled only by rank src in
	// program order, so the k-th match of a key is always the same message.
	matchIdx uint64
	path     []int // directed edge IDs; empty for self-messages
	size     float64
	remain   float64
	rate     float64
	actIdx   int // position in engine.act while active
	agg      *aggregate
	sendOp   *simOp
	recvOp   *simOp
}

type engine struct {
	cfg   Config
	n     int
	dense bool // use the reference rate engine
	idx   *topology.EdgeIndex
	// edgeCap[i] is the capacity of directed edge i in bytes/second
	// (LinkBandwidth times the link's speed multiplier).
	edgeCap []float64
	// pathOf caches directed-edge paths between machine ranks.
	pathOf [][][]int

	mu sync.Mutex

	clock   float64
	alive   int // ranks that have not finished their program
	blocked int // ranks blocked on an undone op

	sends map[matchKey][]*simOp
	recvs map[matchKey][]*simOp

	// act holds the flows currently moving bytes (activation order); flows
	// whose startup latency has not elapsed live only in the calendar.
	act     []*flow
	cal     calendar
	flowSeq int
	// seq counts matches per (src, dst, tag); it feeds jitter hashing and
	// the deterministic completion ordering (flow.matchIdx).
	seq        map[matchKey]uint64
	ratesDirty bool
	deadlocked bool

	barrierOp      *simOp
	barrierWaiting int

	// Per-rank parking: a blocked rank waits on its own 1-buffered channel
	// and is woken only when one of its ops completes (or when it must take
	// over advancing virtual time).
	parkCh    []chan struct{}
	isBlocked []bool
	driving   bool

	// linkRate[i] is the aggregate rate (bytes/second) currently crossing
	// directed edge i; linkBytes integrates it over rate intervals.
	linkBytes []float64
	linkRate  []float64
	events    int64

	// effTab memoizes efficiency(n) = m + (1-m)/n.
	effTab []float64

	// completed is per-advance scratch for flows finishing at an event.
	completed []*flow

	// Fast-engine aggregate state (see rates_fast.go). linkCount[i] is the
	// number of active flows crossing directed edge i, maintained
	// incrementally by attachFlow/detachFlow; rateGen numbers
	// assignRatesFast calls for the aggregate freeze marks.
	aggByKey  map[int]*aggregate
	aggs      []*aggregate
	edgeAggs  [][]aggEntry
	aggPool   []*aggregate
	linkCount []int
	rateGen   uint64
	fs        fastScratch

	// Reference-engine scratch (see rates_dense.go).
	ds denseScratch
}

func newEngine(cfg Config) *engine {
	g := cfg.Graph
	n := g.NumMachines()
	e := &engine{
		cfg:   cfg,
		n:     n,
		dense: cfg.dense,
		idx:   g.NewEdgeIndex(),
		alive: n,
		sends: make(map[matchKey][]*simOp),
		recvs: make(map[matchKey][]*simOp),
		seq:   make(map[matchKey]uint64),
	}
	nEdges := e.idx.Len()
	e.linkBytes = make([]float64, nEdges)
	e.linkRate = make([]float64, nEdges)
	e.edgeCap = make([]float64, nEdges)
	for i := range e.edgeCap {
		e.edgeCap[i] = cfg.LinkBandwidth * g.LinkSpeed(e.idx.Edge(i))
	}
	e.parkCh = make([]chan struct{}, n)
	for i := range e.parkCh {
		e.parkCh[i] = make(chan struct{}, 1)
	}
	e.isBlocked = make([]bool, n)
	e.pathOf = make([][][]int, n)
	for src := 0; src < n; src++ {
		e.pathOf[src] = make([][]int, n)
		for dst := 0; dst < n; dst++ {
			if src != dst {
				e.pathOf[src][dst] = g.PathIDs(e.idx, g.MachineID(src), g.MachineID(dst))
			}
		}
	}
	if !e.dense {
		e.aggByKey = make(map[int]*aggregate)
		e.edgeAggs = make([][]aggEntry, nEdges)
		e.linkCount = make([]int, nEdges)
	}
	return e
}

// finish marks one rank's program as complete.
func (e *engine) finish() {
	e.mu.Lock()
	e.alive--
	// The finished rank may have been the only runnable one; if everyone
	// left is blocked, summon one of them to advance virtual time.
	if e.alive > 0 && e.blocked == e.alive && !e.driving {
		e.summon()
	}
	e.mu.Unlock()
}

// wake delivers a wakeup token to a rank's park channel. The token is
// buffered, so a wakeup sent before the rank parks is not lost; a duplicate
// token only causes one harmless spurious wake. Caller holds e.mu.
func (e *engine) wake(rank int) {
	select {
	case e.parkCh[rank] <- struct{}{}:
	default:
	}
}

// summon wakes one blocked rank so it can take over driving virtual time.
// Caller holds e.mu.
func (e *engine) summon() {
	for r, b := range e.isBlocked {
		if b {
			e.wake(r)
			return
		}
	}
}

// post registers an operation and matches it against the opposite queue.
// Caller holds e.mu.
func (e *engine) post(key matchKey, op *simOp, isSend bool) {
	mine, theirs := e.sends, e.recvs
	if !isSend {
		mine, theirs = e.recvs, e.sends
	}
	if q := theirs[key]; len(q) > 0 {
		peer := q[0]
		theirs[key] = q[1:]
		var sendOp, recvOp *simOp
		if isSend {
			sendOp, recvOp = op, peer
		} else {
			sendOp, recvOp = peer, op
		}
		e.startFlow(key, sendOp, recvOp)
		return
	}
	mine[key] = append(mine[key], op)
}

// mix is the splitmix64 finalizer, used to hash message identities into
// jitter values.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// startup returns the (possibly jittered) startup latency for the n-th
// message of the given size matched under key.
func (e *engine) startup(key matchKey, size int, n uint64) float64 {
	alpha := e.cfg.StartupLatency
	if e.cfg.ControlLatency > 0 && size <= mpi.ControlSizeMax {
		alpha = e.cfg.ControlLatency
	}
	if e.cfg.JitterFrac == 0 {
		return alpha
	}
	h := mix(e.cfg.JitterSeed ^ mix(uint64(key.src)<<42^uint64(key.dst)<<21^uint64(int64(key.tag))) ^ mix(n))
	u := float64(h>>11) / float64(1<<53) // uniform in [0, 1)
	return alpha * (1 + e.cfg.JitterFrac*u)
}

// startFlow creates the flow for a matched pair and schedules its activation
// in the event calendar. Caller holds e.mu.
func (e *engine) startFlow(key matchKey, sendOp, recvOp *simOp) {
	n := e.seq[key]
	e.seq[key] = n + 1
	f := &flow{
		src:      key.src,
		dst:      key.dst,
		tag:      key.tag,
		matchIdx: n,
		size:     float64(len(sendOp.Buf)),
		remain:   float64(len(sendOp.Buf)),
		sendOp:   sendOp,
		recvOp:   recvOp,
	}
	e.flowSeq++
	if key.src != key.dst {
		f.path = e.pathOf[key.src][key.dst]
	}
	// Bytes start moving once the startup latency has elapsed.
	e.cal.push(e.clock+e.startup(key, len(sendOp.Buf), n), f, nil)
}

// completeOp finishes an op and wakes exactly the ranks blocked on it.
// Caller holds e.mu.
func (e *engine) completeOp(op *simOp, err error) {
	if op.done {
		return
	}
	op.done = true
	op.err = err
	e.blocked -= op.nwaiters
	op.nwaiters = 0
	for _, r := range op.waiters {
		e.wake(r)
	}
	op.waiters = op.waiters[:0]
}

// block waits until op completes. The last runnable rank becomes the driver
// and advances virtual time; everyone else parks on its per-rank channel and
// is woken only when one of its ops completes (or to take over driving).
func (e *engine) block(op *simOp, rank int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if op.done {
		return op.err
	}
	op.nwaiters++
	op.waiters = append(op.waiters, rank)
	e.blocked++
	e.isBlocked[rank] = true
	for !op.done {
		if e.blocked == e.alive && !e.driving {
			e.driving = true
			for !op.done && e.blocked == e.alive {
				if !e.advance() {
					e.failAll()
				}
			}
			e.driving = false
			continue
		}
		e.mu.Unlock()
		<-e.parkCh[rank]
		e.mu.Lock()
	}
	e.isBlocked[rank] = false
	return op.err
}

// failAll marks every pending operation as deadlocked. Caller holds e.mu.
func (e *engine) failAll() {
	if e.deadlocked {
		return
	}
	e.deadlocked = true
	err := fmt.Errorf("simnet: deadlock at t=%.6fs: all ranks blocked with no pending events", e.clock)
	// Complete pending ops in sorted key order, so the engine signals the
	// blocked ranks in the same order on every replay. No output depends
	// on that order today: every pending op fails with the same error at
	// the same virtual time, and each rank records its events in its own
	// program order.
	for _, q := range sortedQueues(e.sends) {
		for _, op := range q {
			e.completeOp(op, err)
		}
	}
	for _, q := range sortedQueues(e.recvs) {
		for _, op := range q {
			e.completeOp(op, err)
		}
	}
	for _, f := range e.act {
		e.completeOp(f.sendOp, err)
		e.completeOp(f.recvOp, err)
	}
	for _, ev := range e.cal.h {
		if ev.f != nil {
			e.completeOp(ev.f.sendOp, err)
			e.completeOp(ev.f.recvOp, err)
		} else if ev.op != nil {
			e.completeOp(ev.op, err)
		}
	}
	if e.barrierOp != nil {
		e.completeOp(e.barrierOp, err)
		e.barrierOp = nil
	}
}

// sortedQueues returns the map's queues ordered by (src, dst, tag).
func sortedQueues(m map[matchKey][]*simOp) [][]*simOp {
	keys := make([]matchKey, 0, len(m))
	for k := range m { // order restored by the sort below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.tag < b.tag
	})
	out := make([][]*simOp, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

const timeEps = 1e-12

// advance moves virtual time to the next event and processes it. It returns
// false when no event is pending (deadlock). Caller holds e.mu.
//
// The next event time is the minimum of the completion horizon (earliest
// finish over active flows at current rates) and the head of the event
// calendar (pending activations and timers). Per-link byte accounting uses
// the aggregate link rates maintained by the rate engines, so moving bytes
// costs O(edges) + O(active flows) instead of O(active flows × path).
func (e *engine) advance() bool {
	if e.ratesDirty {
		e.assignRates()
		e.ratesDirty = false
	}
	next := math.Inf(1)
	for _, f := range e.act {
		if f.rate > 0 {
			if t := e.clock + f.remain/f.rate; t < next {
				next = t
			}
		} else if f.remain <= 0 && e.clock < next {
			next = e.clock
		}
	}
	if !e.cal.empty() {
		if t := e.cal.top().at; t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return false
	}
	e.events++
	if next < e.clock {
		next = e.clock
	}
	dt := next - e.clock

	// Integrate link utilization over the rate interval.
	if dt > 0 {
		for i, r := range e.linkRate {
			if r > 0 {
				e.linkBytes[i] += r * dt
			}
		}
	}
	e.clock = next

	changed := false

	// Move bytes and detect completed flows.
	e.completed = e.completed[:0]
	for _, f := range e.act {
		if dt > 0 && f.rate > 0 {
			moved := f.rate * dt
			if moved > f.remain {
				moved = f.remain
			}
			f.remain -= moved
		}
		if f.remain <= timeEps*math.Max(1, f.size) || f.remain <= f.rate*timeEps {
			e.completed = append(e.completed, f)
		}
	}
	if len(e.completed) > 0 {
		// Deterministic completion order by (src, dst, tag, matchIdx). Flow
		// ids (creation order) are NOT deterministic for flows matched at the
		// same virtual instant — they depend on goroutine scheduling — but
		// the per-key match index is fixed by each rank's program order.
		sort.Slice(e.completed, func(i, j int) bool {
			a, b := e.completed[i], e.completed[j]
			if a.src != b.src {
				return a.src < b.src
			}
			if a.dst != b.dst {
				return a.dst < b.dst
			}
			if a.tag != b.tag {
				return a.tag < b.tag
			}
			return a.matchIdx < b.matchIdx
		})
		for _, f := range e.completed {
			var err error
			if send, recv := f.sendOp, f.recvOp; len(recv.Buf) < len(send.Buf) {
				err = fmt.Errorf("simnet: message truncated: receiver buffer %d < %d",
					len(recv.Buf), len(send.Buf))
			} else {
				copy(recv.Buf, send.Buf)
			}
			if ctx := f.sendOp.Ctx; ctx != 0 {
				info := mpi.TraceInfo{Ctx: ctx, DeliveredAt: e.clock}
				f.recvOp.info, f.sendOp.info = info, info
			}
			e.completeOp(f.sendOp, err)
			e.completeOp(f.recvOp, err)
			e.removeActive(f)
			if !e.dense {
				e.detachFlow(f)
			}
		}
		changed = true
	}

	// Fire due calendar events: flow activations and timers.
	for !e.cal.empty() && e.cal.top().at <= e.clock+timeEps {
		ev := e.cal.pop()
		if ev.f != nil {
			ev.f.actIdx = len(e.act)
			e.act = append(e.act, ev.f)
			if !e.dense {
				e.attachFlow(ev.f)
			}
			changed = true
		} else if ev.op != nil {
			e.completeOp(ev.op, nil)
		}
	}

	if changed {
		e.ratesDirty = true
	}
	return true
}

// removeActive deletes a flow from the active set in O(1). Caller holds e.mu.
func (e *engine) removeActive(f *flow) {
	last := len(e.act) - 1
	moved := e.act[last]
	e.act[f.actIdx] = moved
	moved.actIdx = f.actIdx
	e.act[last] = nil
	e.act = e.act[:last]
}

// efficiency returns the effective fraction of raw link capacity available
// when n flows share the link, memoized per count.
func (e *engine) efficiency(n int) float64 {
	if n <= 1 {
		return 1
	}
	if n >= len(e.effTab) {
		if e.effTab == nil {
			e.effTab = make([]float64, 2, n+1)
			e.effTab[0], e.effTab[1] = 1, 1
		}
		m := e.cfg.MinEfficiency
		for i := len(e.effTab); i <= n; i++ {
			e.effTab = append(e.effTab, m+(1-m)/float64(i))
		}
	}
	return e.effTab[n]
}

// assignRates recomputes max-min fair rates for all active flows with the
// configured solver and refreshes the aggregate per-link rates. Caller holds
// e.mu.
func (e *engine) assignRates() {
	if e.dense {
		e.assignRatesDense()
	} else {
		e.assignRatesFast()
	}
}

// selfRate is the (finite) rate of a message that crosses no link, so it
// completes (near-)instantly once active while keeping the arithmetic
// NaN-free.
func selfRate(remain float64) float64 {
	return math.Max(remain, 1) / timeEps
}

// ---------------------------------------------------------------------------
// Comm implementation
// ---------------------------------------------------------------------------

type comm struct {
	e    *engine
	rank int
}

func (c *comm) Rank() int { return c.rank }
func (c *comm) Size() int { return c.e.n }

func (c *comm) Now() float64 {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	return c.e.clock
}

func (c *comm) Isend(m mpi.Op) mpi.Request {
	return c.post(m, matchKey{src: c.rank, dst: m.Peer, tag: m.Tag}, true)
}

func (c *comm) Irecv(m mpi.Op) mpi.Request {
	return c.post(m, matchKey{src: m.Peer, dst: c.rank, tag: m.Tag}, false)
}

func (c *comm) post(m mpi.Op, key matchKey, isSend bool) mpi.Request {
	if err := mpi.CheckRank(c, m.Peer); err != nil {
		return mpi.Completed(err)
	}
	e := c.e
	op := &simOp{Op: m, e: e, rank: c.rank}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deadlocked {
		return mpi.Completed(fmt.Errorf("simnet: world deadlocked"))
	}
	e.post(key, op, isSend)
	return op
}

func (c *comm) Barrier() error {
	e := c.e
	e.mu.Lock()
	if e.barrierOp == nil {
		e.barrierOp = &simOp{}
	}
	op := e.barrierOp
	e.barrierWaiting++
	if e.barrierWaiting == e.alive {
		// Last arrival: schedule completion after the barrier latency and
		// reset for the next generation.
		e.cal.push(e.clock+e.cfg.BarrierLatency, nil, op)
		e.barrierOp = nil
		e.barrierWaiting = 0
	}
	e.mu.Unlock()
	return e.block(op, c.rank)
}
