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
// The engine does work in proportion to the messages and links that are
// active, so it stays tractable far past the paper's 32 nodes: timers and
// flow activations live in an indexed min-heap event calendar, flow
// completions are found through a completion horizon recomputed only when
// rates change, per-link byte accounting integrates aggregate link rates
// instead of per-flow increments, and blocked ranks park on per-rank wait
// channels so an event wakes only the ranks it completes (no broadcast
// storms). Posted ops wait in per-(src, dst, tag) intrusive queues of one
// hashed key table, and ops and flows recycle through engine-owned free
// lists, so a run allocates per world, not per message. Max-min rates come
// from the aggregated incidence-list solver, which visits only the links
// some flow crosses (zero allocations at steady state); the original dense
// solver stays as the reference oracle this package's tests check it
// against.
//
// The simulator keeps no trace of its own. A traced simulation runs its
// ranks through obsv.Instrument exactly like every transport does, and the
// engine stamps each traced message's completion (mpi.TraceInfo) with the
// virtual time its last byte arrived.
package simnet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// cmpKey orders match keys by (src, dst, tag).
func cmpKey(a, b matchKey) int {
	return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.tag, b.tag))
}

// simOp is a posted send or receive; it doubles as the request handed back
// to the posting rank. Completion is driven by the engine. A send or receive
// op recycles into the engine's free list when its single Wait returns
// (mpi.Request allows one Wait), so the caller reads info through Wait's
// result, never from the op afterwards. Barrier ops are never recycled: every
// rank waits on the same one.
type simOp struct {
	// Op is the caller's descriptor; flows are sized by len(Buf) and
	// completed by copying the send's Buf into the receive's.
	mpi.Op
	e        *engine
	rank     int // the posting rank, which is the one that waits
	done     bool
	err      error
	nwaiters int   // ranks currently blocked on this op
	waiter   int   // the first rank to wake when the op completes
	waiters  []int // further ranks to wake (barrier ops only)
	// next links the op into its key's send or receive FIFO while posted
	// and unmatched, and into the engine's free list while recycled.
	next *simOp
	// info is stamped on both sides of a matched pair when its flow
	// completes (traced flows only): the send's context and the virtual
	// time the flow finished. It is the simulator's whole trace output.
	info mpi.TraceInfo
}

// Wait implements mpi.Request. Virtual time has no wall-clock deadline: d is
// ignored, and a wait that can never complete is reported as a deadlock.
// The op is recycled before Wait returns.
func (op *simOp) Wait(time.Duration) (mpi.TraceInfo, error) {
	e := op.e
	e.mu.Lock()
	err := e.block(op, op.rank)
	info := op.info
	e.freeOp(op)
	e.mu.Unlock()
	return info, err
}

// flow is a matched message in transit. It recycles into the engine's free
// list when it completes.
type flow struct {
	src, dst int
	tag      int
	// matchIdx is the per-(src,dst,tag) match sequence number. Unlike the
	// global creation order (which depends on how rank goroutines happen to
	// interleave when several pairs match at the same virtual instant), it is
	// deterministic: the send queue for a key is filled only by rank src in
	// program order, so the k-th match of a key is always the same message.
	matchIdx uint64
	path     []int32 // directed edge IDs; empty for self-messages
	size     float64
	remain   float64
	rate     float64
	actIdx   int // position in engine.act while active
	agg      *aggregate
	sendOp   *simOp
	recvOp   *simOp
	next     *flow // in the engine's free list while recycled
}

// cmpFlow is the deterministic completion and activation order, by (src,
// dst, tag, matchIdx). Flow creation order is NOT deterministic for flows
// matched at the same virtual instant — it depends on goroutine scheduling
// — but the per-key match index is fixed by each rank's program order.
func cmpFlow(a, b *flow) int {
	return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst),
		cmp.Compare(a.tag, b.tag), cmp.Compare(a.matchIdx, b.matchIdx))
}

// opFIFO is an intrusive queue of posted ops linked through simOp.next.
type opFIFO struct{ head, tail *simOp }

func (q *opFIFO) push(op *simOp) {
	if q.tail == nil {
		q.head = op
	} else {
		q.tail.next = op
	}
	q.tail = op
}

func (q *opFIFO) pop() *simOp {
	op := q.head
	q.head = op.next
	if q.head == nil {
		q.tail = nil
	}
	op.next = nil
	return op
}

// keyQueue is the matching state of one (src, dst, tag): the unmatched
// sends and receives in posting order (at most one of the two is non-empty)
// and the number of matches so far, which feeds jitter hashing and the
// deterministic completion ordering (flow.matchIdx).
type keyQueue struct {
	key          matchKey
	sends, recvs opFIFO
	matched      uint64
}

// Slab sizes of the op and flow free lists: an empty list is refilled with
// this many objects in one allocation.
const (
	opSlab   = 64
	flowSlab = 32
)

// opReused and flowReused, when set (by tests), see every op and flow the
// engine takes from its free lists, under e.mu.
var (
	opReused   func(*engine, *simOp)
	flowReused func(*engine, *flow)
)

type engine struct {
	cfg   Config
	n     int
	dense bool // use the reference rate engine
	idx   *topology.EdgeIndex
	// edgeCap[i] is the capacity of directed edge i in bytes/second
	// (LinkBandwidth times the link's speed multiplier).
	edgeCap []float64
	// pathOff and pathEdges hold the directed-edge paths between machine
	// ranks: the path from src to dst is pathEdges[pathOff[k]:pathOff[k+1]]
	// for k = src*n + dst.
	pathOff   []int32
	pathEdges []int32

	mu sync.Mutex

	clock   float64
	alive   int // ranks that have not finished their program
	blocked int // ranks blocked on an undone op

	// queues holds the matching state of every (src, dst, tag) ever
	// posted, found through keySlots: an open-addressing hash table (linear
	// probing, at most half full) of 1 + an index into queues, 0 if empty.
	queues   []keyQueue
	keySlots []int32

	// Free lists of recycled ops and flows, linked through their next
	// fields and refilled in slabs.
	freeOps   *simOp
	freeFlows *flow

	// act holds the flows currently moving bytes (activation order); flows
	// whose startup latency has not elapsed live only in the calendar.
	act        []*flow
	cal        calendar
	flowSeq    int
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
	// incrementally by attachFlow/detachFlow together with busy, the bitset
	// of edges whose count is above zero; rateGen numbers assignRatesFast
	// calls for the aggregate freeze marks.
	aggByKey  map[int]*aggregate
	aggs      []*aggregate
	edgeAggs  [][]aggEntry
	aggPool   []*aggregate
	linkCount []int
	busy      []uint64
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
	e.keySlots = make([]int32, 64)
	e.pathOff = make([]int32, n*n+1)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				e.pathEdges = g.AppendPathEdgeIDs(e.idx, g.MachineID(src), g.MachineID(dst), e.pathEdges)
			}
			e.pathOff[src*n+dst+1] = int32(len(e.pathEdges))
		}
	}
	if !e.dense {
		e.aggByKey = make(map[int]*aggregate)
		e.edgeAggs = make([][]aggEntry, nEdges)
		e.linkCount = make([]int, nEdges)
		e.busy = make([]uint64, (nEdges+63)/64)
	}
	return e
}

// pathOf returns the directed-edge path from machine rank src to dst.
func (e *engine) pathOf(src, dst int) []int32 {
	k := src*e.n + dst
	return e.pathEdges[e.pathOff[k]:e.pathOff[k+1]:e.pathOff[k+1]]
}

// newOp takes an op from the free list, refilling it with a slab when it is
// empty. Caller holds e.mu.
func (e *engine) newOp(m mpi.Op, rank int) *simOp {
	if e.freeOps == nil {
		slab := make([]simOp, opSlab)
		for i := range slab {
			slab[i] = simOp{e: e, next: e.freeOps}
			e.freeOps = &slab[i]
		}
	}
	op := e.freeOps
	if opReused != nil {
		opReused(e, op)
	}
	e.freeOps = op.next
	op.next = nil
	op.Op = m
	op.rank = rank
	return op
}

// freeOp returns a waited op to the free list. Caller holds e.mu.
func (e *engine) freeOp(op *simOp) {
	*op = simOp{e: e, next: e.freeOps}
	e.freeOps = op
}

// newFlow takes a zeroed flow from the free list, refilling it with a slab
// when it is empty. Caller holds e.mu.
func (e *engine) newFlow() *flow {
	if e.freeFlows == nil {
		slab := make([]flow, flowSlab)
		for i := range slab {
			slab[i].next = e.freeFlows
			e.freeFlows = &slab[i]
		}
	}
	f := e.freeFlows
	if flowReused != nil {
		flowReused(e, f)
	}
	e.freeFlows = f.next
	f.next = nil
	return f
}

// freeFlow returns a completed flow to the free list. Caller holds e.mu.
func (e *engine) freeFlow(f *flow) {
	*f = flow{next: e.freeFlows}
	e.freeFlows = f
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

// queue returns the matching state of key, creating it on first use. The
// pointer is valid until the next queue call. Caller holds e.mu.
func (e *engine) queue(key matchKey) *keyQueue {
	mask := uint64(len(e.keySlots) - 1)
	h := hashKey(key) & mask
	for ; e.keySlots[h] != 0; h = (h + 1) & mask {
		if q := &e.queues[e.keySlots[h]-1]; q.key == key {
			return q
		}
	}
	e.queues = append(e.queues, keyQueue{key: key})
	e.keySlots[h] = int32(len(e.queues))
	if 2*len(e.queues) > len(e.keySlots) {
		e.keySlots = make([]int32, 2*len(e.keySlots))
		mask = uint64(len(e.keySlots) - 1)
		for i := range e.queues {
			h := hashKey(e.queues[i].key) & mask
			for e.keySlots[h] != 0 {
				h = (h + 1) & mask
			}
			e.keySlots[h] = int32(i + 1)
		}
	}
	return &e.queues[len(e.queues)-1]
}

// hashKey hashes a match key for the key table; it is also the key's
// contribution to the jitter hash.
func hashKey(key matchKey) uint64 {
	return mix(uint64(key.src)<<42 ^ uint64(key.dst)<<21 ^ uint64(int64(key.tag)))
}

// post registers an operation and matches it against the opposite queue.
// Caller holds e.mu.
func (e *engine) post(key matchKey, op *simOp, isSend bool) {
	q := e.queue(key)
	mine, theirs := &q.sends, &q.recvs
	if !isSend {
		mine, theirs = theirs, mine
	}
	if theirs.head == nil {
		mine.push(op)
		return
	}
	peer := theirs.pop()
	if isSend {
		e.startFlow(q, op, peer)
	} else {
		e.startFlow(q, peer, op)
	}
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
	h := mix(e.cfg.JitterSeed ^ hashKey(key) ^ mix(n))
	u := float64(h>>11) / float64(1<<53) // uniform in [0, 1)
	return alpha * (1 + e.cfg.JitterFrac*u)
}

// startFlow creates the flow for a pair matched under q and schedules its
// activation in the event calendar. Caller holds e.mu.
func (e *engine) startFlow(q *keyQueue, sendOp, recvOp *simOp) {
	key, n := q.key, q.matched
	q.matched++
	f := e.newFlow()
	f.src, f.dst, f.tag = key.src, key.dst, key.tag
	f.matchIdx = n
	f.size = float64(len(sendOp.Buf))
	f.remain = f.size
	f.sendOp, f.recvOp = sendOp, recvOp
	f.path = e.pathOf(key.src, key.dst)
	e.flowSeq++
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
	if op.nwaiters == 0 {
		return
	}
	e.blocked -= op.nwaiters
	op.nwaiters = 0
	e.wake(op.waiter)
	for _, r := range op.waiters {
		e.wake(r)
	}
	op.waiters = op.waiters[:0]
}

// block waits until op completes. The last runnable rank becomes the driver
// and advances virtual time; everyone else parks on its per-rank channel and
// is woken only when one of its ops completes (or to take over driving).
// Caller holds e.mu; block releases it while parked.
func (e *engine) block(op *simOp, rank int) error {
	if op.done {
		return op.err
	}
	if op.nwaiters == 0 {
		op.waiter = rank
	} else {
		op.waiters = append(op.waiters, rank)
	}
	op.nwaiters++
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

// failAll marks every pending operation as deadlocked. After the first
// deadlock only a barrier can be pending (posts are refused), and it fails
// the same way. Caller holds e.mu.
func (e *engine) failAll() {
	e.deadlocked = true
	err := fmt.Errorf("simnet: deadlock at t=%.6fs: all ranks blocked with no pending events", e.clock)
	// Complete pending ops in sorted key order, so the engine signals the
	// blocked ranks in the same order on every replay. No output depends
	// on that order today: every pending op fails with the same error at
	// the same virtual time, and each rank records its events in its own
	// program order. The queues are drained, so a failed op that its rank
	// waits on (and so recycles) is linked nowhere.
	order := make([]int, len(e.queues))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmpKey(e.queues[a].key, e.queues[b].key) })
	for _, i := range order {
		for q := &e.queues[i].sends; q.head != nil; {
			e.completeOp(q.pop(), err)
		}
	}
	for _, i := range order {
		for q := &e.queues[i].recvs; q.head != nil; {
			e.completeOp(q.pop(), err)
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

	// Integrate link utilization over the rate interval. Under the fast
	// solver only the edges busy at its last call carry a rate.
	if dt > 0 && e.dense {
		for i, r := range e.linkRate {
			if r > 0 {
				e.linkBytes[i] += r * dt
			}
		}
	} else if dt > 0 {
		for _, eid := range e.fs.busyEdges {
			if r := e.linkRate[eid]; r > 0 {
				e.linkBytes[eid] += r * dt
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
		slices.SortFunc(e.completed, cmpFlow)
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
			e.freeFlow(f)
		}
		changed = true
	}

	// Fire due calendar events: flow activations and timers. The flows
	// activated at one event join the active set in completion order, not
	// in the order their ranks happened to match them, so the engines sum
	// link rates in a fixed order and LinkStats repeat bit for bit.
	start := len(e.act)
	for !e.cal.empty() && e.cal.top().at <= e.clock+timeEps {
		ev := e.cal.pop()
		if ev.f != nil {
			e.act = append(e.act, ev.f)
		} else if ev.op != nil {
			e.completeOp(ev.op, nil)
		}
	}
	if activated := e.act[start:]; len(activated) > 0 {
		slices.SortFunc(activated, cmpFlow)
		for i, f := range activated {
			f.actIdx = start + i
			if !e.dense {
				e.attachFlow(f)
			}
		}
		changed = true
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
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deadlocked {
		return mpi.Completed(fmt.Errorf("simnet: world deadlocked"))
	}
	op := e.newOp(m, c.rank)
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
	defer e.mu.Unlock()
	return e.block(op, c.rank)
}
