package faults

import (
	"fmt"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
)

// Injector evaluates a Plan deterministically. It serves two hook points:
//
//   - Frame level: it implements mpi.FaultInjector, so it can be handed to
//     the tcp transport (tcp.WithFaults) which consults it once per first
//     transmission of a data frame. Delay/Drop/Dup rules act here.
//   - Comm level: Wrap decorates any mpi.Comm; Stall and Kill rules act on
//     the rank's operation stream, and Delay/Drop rules act on messages for
//     transports without a frame layer (mem). Dup is frame-only — above the
//     matching layer a duplicate would be a real second message.
//
// Decisions are pure functions of (plan, seed, pair or rank, stream index):
// the k-th message of a directed pair gets the same fault in every run, no
// matter how goroutines interleave. After/Count/Prob windows are counted
// per matching pair stream (and per rank stream for Stall/Kill), which is
// what makes wildcard rules deterministic.
type Injector struct {
	plan *Plan

	mu        sync.Mutex
	pairNext  map[[2]int]int // next message index per directed pair
	rankNext  map[int]int    // next operation index per rank
	killed    map[int]bool
	events    []Event
	opTimeout time.Duration
	recorder  *obsv.Recorder
}

// New builds an injector for the plan. A nil plan injects nothing.
func New(plan *Plan) *Injector {
	if plan == nil {
		plan = &Plan{}
	}
	return &Injector{
		plan:     plan,
		pairNext: make(map[[2]int]int),
		rankNext: make(map[int]int),
		killed:   make(map[int]bool),
	}
}

// SetRecorder mirrors every injected fault into r's counters as
// aapc_faults_injected_total{kind="..."}, so injected chaos is visible on
// the same metrics endpoint as the communication it disturbs.
func (inj *Injector) SetRecorder(r *obsv.Recorder) {
	inj.mu.Lock()
	inj.recorder = r
	inj.mu.Unlock()
}

// countInjected bumps the recorder counter for one fired rule. Caller holds
// inj.mu.
func (inj *Injector) countInjected(kind Kind) {
	if inj.recorder != nil {
		inj.recorder.Counters().Inc(fmt.Sprintf("aapc_faults_injected_total{kind=%q}", kind))
	}
}

// SetOpTimeout bounds every Wait issued through wrapped comms. Required for
// comm-level Drop rules on transports without their own deadline support:
// a dropped message otherwise blocks its receiver forever.
func (inj *Injector) SetOpTimeout(d time.Duration) { inj.opTimeout = d }

// Killed reports whether a Kill rule has fired for the rank.
func (inj *Injector) Killed(rank int) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.killed[rank]
}

// Events returns every injected fault so far in canonical order (pair,
// then stream index) — the order determinism is asserted over.
func (inj *Injector) Events() []Event {
	inj.mu.Lock()
	evs := make([]Event, len(inj.events))
	copy(evs, inj.events)
	inj.mu.Unlock()
	sortEvents(evs)
	return evs
}

// hash01 maps the decision coordinates to a uniform [0,1) value using a
// splitmix64-style mix; this is the only source of randomness, so decisions
// depend on nothing but the plan, the seed and the coordinates.
func hash01(seed int64, vals ...int) float64 {
	h := uint64(seed) ^ 0x6a09e667f3bcc909
	for _, v := range vals {
		h ^= uint64(int64(v))
		h += 0x9e3779b97f4a7c15
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return float64(h>>11) / (1 << 53)
}

// decidePair picks the rule (if any) that fires for the k-th message of the
// directed pair. First matching rule in plan order wins.
func (inj *Injector) decidePair(src, dst, k int) *Rule {
	for i := range inj.plan.Rules {
		r := &inj.plan.Rules[i]
		if !r.pairRule() || !r.matchesPair(src, dst) {
			continue
		}
		if k < r.After || (r.Count > 0 && k >= r.After+r.Count) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && hash01(inj.plan.Seed, i, src, dst, k) >= r.Prob {
			continue
		}
		return r
	}
	return nil
}

// decideRank picks the Stall/Kill rule (if any) firing for the k-th
// operation of the rank.
func (inj *Injector) decideRank(rank, k int) *Rule {
	for i := range inj.plan.Rules {
		r := &inj.plan.Rules[i]
		if !r.rankRule() || (r.Src != Any && r.Src != rank) {
			continue
		}
		if r.Kind == Kill {
			// A kill fires at its After-th operation and stays fired.
			if k >= r.After {
				return r
			}
			continue
		}
		if k < r.After || (r.Count > 0 && k >= r.After+r.Count) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && hash01(inj.plan.Seed, i, rank, Any, k) >= r.Prob {
			continue
		}
		return r
	}
	return nil
}

// FrameFault implements mpi.FaultInjector for the tcp transport: the next
// first-transmission frame src->dst gets the pair rule's action.
func (inj *Injector) FrameFault(src, dst int) (mpi.FaultOp, time.Duration) {
	inj.mu.Lock()
	k := inj.pairNext[[2]int{src, dst}]
	inj.pairNext[[2]int{src, dst}] = k + 1
	r := inj.decidePair(src, dst, k)
	if r == nil {
		inj.mu.Unlock()
		return mpi.FaultNone, 0
	}
	inj.events = append(inj.events, Event{Kind: r.Kind, Src: src, Dst: dst, Op: k, Delay: r.Delay})
	inj.countInjected(r.Kind)
	inj.mu.Unlock()
	switch r.Kind {
	case Delay:
		return mpi.FaultDelay, r.Delay
	case Drop:
		return mpi.FaultDropConn, 0
	case Dup:
		return mpi.FaultDuplicate, 0
	}
	return mpi.FaultNone, 0
}

// nextPairFault advances the pair stream for a comm-level message.
func (inj *Injector) nextPairFault(src, dst int) *Rule {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	k := inj.pairNext[[2]int{src, dst}]
	inj.pairNext[[2]int{src, dst}] = k + 1
	r := inj.decidePair(src, dst, k)
	if r != nil {
		inj.events = append(inj.events, Event{Kind: r.Kind, Src: src, Dst: dst, Op: k, Delay: r.Delay})
		inj.countInjected(r.Kind)
	}
	return r
}

// nextRankFault advances the rank's operation stream; it records the event
// and marks kills. The returned rule is nil when nothing fires.
func (inj *Injector) nextRankFault(rank int) *Rule {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.killed[rank] {
		return &inj.plan.Rules[inj.killRule(rank)]
	}
	k := inj.rankNext[rank]
	inj.rankNext[rank] = k + 1
	r := inj.decideRank(rank, k)
	if r != nil {
		inj.events = append(inj.events, Event{Kind: r.Kind, Src: rank, Dst: Any, Op: k, Delay: r.Delay})
		inj.countInjected(r.Kind)
		if r.Kind == Kill {
			inj.killed[rank] = true
		}
	}
	return r
}

// killRule finds the Kill rule for a rank already marked dead. Caller holds
// inj.mu and guarantees one exists.
func (inj *Injector) killRule(rank int) int {
	for i := range inj.plan.Rules {
		r := &inj.plan.Rules[i]
		if r.Kind == Kill && (r.Src == rank || r.Src == Any) {
			return i
		}
	}
	panic(fmt.Sprintf("faults: rank %d marked killed without a kill rule", rank))
}

// Wrap decorates a communicator with the full comm-level fault set: Stall
// and Kill on the rank's operation stream, Delay and Drop on its outbound
// messages. Use it for transports without a frame layer (mem). For tcp,
// prefer WithFaults(inj) for the message faults plus WrapRankOnly for
// Stall/Kill, so Drop exercises the real reconnect path.
func (inj *Injector) Wrap(c mpi.Comm) mpi.Comm {
	return wrap(&faultComm{inner: c, inj: inj, msgFaults: true})
}

// WrapRankOnly decorates a communicator with Stall/Kill rules only,
// leaving message faults to the transport's frame layer.
func (inj *Injector) WrapRankOnly(c mpi.Comm) mpi.Comm {
	return wrap(&faultComm{inner: c, inj: inj})
}

// wrap surfaces mpi.Flusher exactly when the inner comm has it: hiding it
// would send the scheduler down its wait-for-delivery path, and a no-op
// Flush would skip a wait that transports without a writer stage need.
func wrap(c *faultComm) mpi.Comm {
	if fl, ok := c.inner.(mpi.Flusher); ok {
		return &faultCommFlush{c, fl}
	}
	return c
}

// faultCommFlush is a faultComm over a transport with a writer stage. The
// wire-entry watermark wait is forwarded as is: it is no operation of the
// rank's stream, and a message a Drop rule swallowed never reached the
// writer, so the wait does not block on it.
type faultCommFlush struct {
	*faultComm
	fl mpi.Flusher
}

func (c *faultCommFlush) Flush(dst int, d time.Duration) error { return c.fl.Flush(dst, d) }

// faultComm is the comm-level decorator.
type faultComm struct {
	inner     mpi.Comm
	inj       *Injector
	msgFaults bool
}

func (c *faultComm) Rank() int    { return c.inner.Rank() }
func (c *faultComm) Size() int    { return c.inner.Size() }
func (c *faultComm) Now() float64 { return c.inner.Now() }

// Kill passes through to the underlying transport (mpi.Killer).
func (c *faultComm) Kill() error {
	if k, ok := c.inner.(mpi.Killer); ok {
		return k.Kill()
	}
	return fmt.Errorf("faults: transport cannot kill ranks")
}

// rankOp applies the rank-stream rules before an operation: a Stall sleeps
// in the caller's goroutine; a Kill tears the rank down through the
// transport and returns the sticky typed error.
func (c *faultComm) rankOp() error {
	r := c.inj.nextRankFault(c.inner.Rank())
	if r == nil {
		return nil
	}
	switch r.Kind {
	case Stall:
		time.Sleep(r.Delay)
		return nil
	case Kill:
		rank := c.inner.Rank()
		if k, ok := c.inner.(mpi.Killer); ok {
			_ = k.Kill()
		}
		return &mpi.RankError{Rank: rank, Err: fmt.Errorf("faults: injected kill")}
	}
	return nil
}

// timedReq bounds the inner request's wait by the injector's op timeout: the
// tighter of the caller's and the injector's deadlines is in force.
type timedReq struct {
	inner mpi.Request
	d     time.Duration
}

func (r timedReq) Wait(d time.Duration) (mpi.TraceInfo, error) {
	if r.d > 0 && (d <= 0 || r.d < d) {
		d = r.d
	}
	return r.inner.Wait(d)
}

// Isend applies the rank and message fault rules and forwards the op — its
// trace context included — to the transport.
func (c *faultComm) Isend(op mpi.Op) mpi.Request {
	if err := c.rankOp(); err != nil {
		return mpi.Completed(err)
	}
	if c.msgFaults {
		if r := c.inj.nextPairFault(c.inner.Rank(), op.Peer); r != nil {
			switch r.Kind {
			case Drop:
				// The message vanishes. MPI send semantics: completion means
				// the buffer is reusable, which it trivially is. The receiver
				// learns through its own deadline.
				return mpi.Completed(nil)
			case Delay:
				// Pause before submitting, in the caller's goroutine: an
				// asynchronous late submission would let later sends of the
				// same (src, dst, tag) overtake this one and corrupt MPI's
				// non-overtaking guarantee. The frame-level injector delays
				// the same way (the pair writer sleeps).
				time.Sleep(r.Delay)
			}
			// Dup at comm level would be a real second message above the
			// matching layer; treated as none.
		}
	}
	return timedReq{inner: c.inner.Isend(op), d: c.inj.opTimeout}
}

func (c *faultComm) Irecv(op mpi.Op) mpi.Request {
	if err := c.rankOp(); err != nil {
		return mpi.Completed(err)
	}
	return timedReq{inner: c.inner.Irecv(op), d: c.inj.opTimeout}
}

func (c *faultComm) Barrier() error {
	if err := c.rankOp(); err != nil {
		return err
	}
	if c.inj.opTimeout <= 0 {
		return c.inner.Barrier()
	}
	// Bound the barrier too: when a peer fails closed and never arrives, a
	// transport without its own barrier deadline (mem) would block this
	// rank forever. The abandoned inner barrier may hold its goroutine
	// until the world is collected — the price of failing closed.
	done := make(chan error, 1)
	go func() { done <- c.inner.Barrier() }()
	t := time.NewTimer(c.inj.opTimeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return &mpi.TimeoutError{Op: "barrier", After: c.inj.opTimeout}
	}
}
