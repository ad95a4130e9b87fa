// Package mem provides an in-process mpi transport: all ranks live in one
// address space and exchange real bytes through a matching engine. It is the
// reference transport for functional correctness — if an all-to-all
// algorithm produces the right permutation here, the algorithm logic is
// right; performance behaviour is the simulator's job.
//
// For fault testing, a rank can be killed (KillRank or the mpi.Killer
// interface on its comm): every pending and future operation involving the
// dead rank — on any rank — fails with a typed *mpi.RankError, and barriers
// abort instead of waiting for an arrival that will never come.
package mem

import (
	"fmt"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// World is a set of in-process communicator endpoints.
type World struct {
	n     int
	start time.Time

	mu      sync.Mutex
	sends   map[matchKey][]*op
	recvs   map[matchKey][]*op
	dead    map[int]error
	barrier *barrierGen

	// ops recycles completed operations (see mpi.Completion for the rule).
	ops mpi.Freelist[op]
}

// barrierGen is one generation of the barrier: everyone blocked on it is
// released together, either cleanly or with an abort error.
type barrierGen struct {
	waiting int
	release chan struct{}
	err     error
}

// matchKey identifies a send/receive rendezvous point. MPI ordering applies
// per key: matching is FIFO between identical (src, dst, tag) triples.
type matchKey struct {
	src, dst, tag int
}

// op is one pending operation awaiting its match. It doubles as the request
// handed back to the caller (the embedded mpi.Completion). For traced
// messages only, the match stamps the send's context and the match time as
// Info on BOTH ops: the recv side reads the time as the payload's arrival,
// the send side as the moment its message left (which a late-drained Wait
// would otherwise misreport).
type op struct {
	mpi.Completion
	w *World
	// Op is the caller's descriptor; the match copies straight from the
	// send's Buf into the receive's — the mem transport's single copy.
	mpi.Op
}

// getOp returns a recycled op or makes a fresh one.
func (w *World) getOp(m mpi.Op) *op {
	o := w.ops.Get()
	if o == nil {
		o = &op{w: w}
		o.Init(o)
	}
	o.Op = m
	return o
}

// Recycle returns a consumed op to the freelist (mpi.Recycler).
func (o *op) Recycle() {
	o.Buf = nil // the one reference a parked op must not pin
	o.w.ops.Put(o)
}

// match copies the message from the send op into the recv op, stamps the
// trace information and completes both. Both ops have left the queues, so
// the caller has already released w.mu: neither the copy nor the wake-ups
// run under the world lock.
func (w *World) match(recv, send *op) {
	n := copy(recv.Buf, send.Buf)
	if send.Ctx != 0 {
		info := mpi.TraceInfo{Ctx: send.Ctx, DeliveredAt: time.Since(w.start).Seconds()}
		recv.Info, send.Info = info, info
	}
	var err error
	if n < len(send.Buf) {
		err = fmt.Errorf("mem: send %d->%d tag %d truncated: receiver buffer %d < %d",
			recv.Peer, send.Peer, send.Tag, len(recv.Buf), len(send.Buf))
	}
	recv.Complete(err)
	send.Complete(err)
}

// NewWorld creates a world of n in-process ranks and returns one
// communicator per rank.
func NewWorld(n int) []mpi.Comm {
	if n < 1 {
		panic(fmt.Sprintf("mem: world size %d", n))
	}
	w := &World{
		n:       n,
		start:   time.Now(),
		sends:   make(map[matchKey][]*op),
		recvs:   make(map[matchKey][]*op),
		dead:    make(map[int]error),
		barrier: &barrierGen{release: make(chan struct{})},
	}
	comms := make([]mpi.Comm, n)
	for i := range comms {
		comms[i] = &comm{w: w, rank: i}
	}
	return comms
}

// NewWorldComms returns the comms and the world itself, for callers that
// need fault control (KillRank).
func NewWorldComms(n int) ([]mpi.Comm, *World) {
	comms := NewWorld(n)
	return comms, comms[0].(*comm).w
}

// Run starts fn once per rank on its own goroutine and waits for all of
// them, returning the first non-nil error.
func Run(n int, fn func(c mpi.Comm) error) error {
	comms := NewWorld(n)
	errs := make(chan error, n)
	for _, c := range comms {
		go func(c mpi.Comm) { errs <- fn(c) }(c)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// KillRank simulates the death of rank r: pending sends and receives
// involving r fail with a *mpi.RankError on every rank, as do future ones,
// and any barrier in progress aborts. Killing a dead rank is a no-op.
func (w *World) KillRank(r int) error {
	if r < 0 || r >= w.n {
		return fmt.Errorf("mem: kill of rank %d out of range [0, %d)", r, w.n)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.dead[r]; ok {
		return nil
	}
	cause := fmt.Errorf("mem: rank %d killed", r)
	w.dead[r] = cause
	rankErr := &mpi.RankError{Rank: r, Err: cause}
	for key, q := range w.sends {
		if key.src != r && key.dst != r {
			continue
		}
		for _, o := range q {
			o.Complete(rankErr)
		}
		delete(w.sends, key)
	}
	for key, q := range w.recvs {
		if key.src != r && key.dst != r {
			continue
		}
		for _, o := range q {
			o.Complete(rankErr)
		}
		delete(w.recvs, key)
	}
	// Abort the in-flight barrier generation: the dead rank will never
	// arrive, so everyone blocked would wait forever.
	if w.barrier.waiting > 0 {
		w.barrier.err = rankErr
		close(w.barrier.release)
		w.barrier = &barrierGen{release: make(chan struct{})}
	}
	return nil
}

// deadErrLocked returns the typed error for an operation involving a dead
// endpoint, or nil. Caller holds w.mu.
func (w *World) deadErrLocked(ranks ...int) error {
	for _, r := range ranks {
		if cause, ok := w.dead[r]; ok {
			return &mpi.RankError{Rank: r, Err: cause}
		}
	}
	return nil
}

type comm struct {
	w    *World
	rank int
}

func (c *comm) Rank() int { return c.rank }
func (c *comm) Size() int { return c.w.n }

func (c *comm) Now() float64 { return time.Since(c.w.start).Seconds() }

// Kill simulates the death of this rank (mpi.Killer).
func (c *comm) Kill() error { return c.w.KillRank(c.rank) }

func (c *comm) Isend(m mpi.Op) mpi.Request {
	if err := mpi.CheckRank(c, m.Peer); err != nil {
		return mpi.Completed(err)
	}
	key := matchKey{src: c.rank, dst: m.Peer, tag: m.Tag}
	w := c.w
	me := w.getOp(m)
	w.mu.Lock()
	if err := w.deadErrLocked(c.rank, m.Peer); err != nil {
		w.mu.Unlock()
		me.Recycle()
		return mpi.Completed(err)
	}
	if q := w.recvs[key]; len(q) > 0 {
		var peer *op
		peer, w.recvs[key] = mpi.PopFront(q)
		w.mu.Unlock()
		w.match(peer, me)
		return me
	}
	w.sends[key] = append(w.sends[key], me)
	w.mu.Unlock()
	return me
}

func (c *comm) Irecv(m mpi.Op) mpi.Request {
	if err := mpi.CheckRank(c, m.Peer); err != nil {
		return mpi.Completed(err)
	}
	key := matchKey{src: m.Peer, dst: c.rank, tag: m.Tag}
	w := c.w
	me := w.getOp(m)
	w.mu.Lock()
	if q := w.sends[key]; len(q) > 0 {
		// A message sent before the source died still matches.
		var peer *op
		peer, w.sends[key] = mpi.PopFront(q)
		w.mu.Unlock()
		w.match(me, peer)
		return me
	}
	if err := w.deadErrLocked(c.rank, m.Peer); err != nil {
		w.mu.Unlock()
		me.Recycle()
		return mpi.Completed(err)
	}
	w.recvs[key] = append(w.recvs[key], me)
	w.mu.Unlock()
	return me
}

func (c *comm) Barrier() error {
	w := c.w
	w.mu.Lock()
	if err := w.deadErrLocked(c.rank); err != nil {
		w.mu.Unlock()
		return err
	}
	// A barrier can never complete while any rank is dead; fail fast with
	// the same typed error every surviving rank sees: it names the lowest
	// dead rank, so the answer does not depend on map order.
	for r := 0; r < w.n; r++ {
		if cause, ok := w.dead[r]; ok {
			w.mu.Unlock()
			return &mpi.RankError{Rank: r, Err: cause}
		}
	}
	gen := w.barrier
	gen.waiting++
	if gen.waiting == w.n {
		// Last arrival releases everyone and resets for the next round.
		close(gen.release)
		w.barrier = &barrierGen{release: make(chan struct{})}
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	<-gen.release
	return gen.err
}
