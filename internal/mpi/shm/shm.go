package shm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
)

// World is an in-process ring transport: its communicator endpoints live in
// one process and exchange bytes through per-pair rings. Only the
// benchmark's a2a_shm_1k workload and the tests run it. Two data paths
// exist:
//
//   - single-copy handoff: when a matching receive is already posted, the
//     send copies straight from the sender's buffer into the receiver's —
//     one memcpy, no staging anywhere;
//   - ring transit: with no receive posted, the payload is copied into the
//     directed pair's ring segment and out of it at match time.
//
// A scheduled all-to-all pre-posts its receives, so its steady state rides
// the single-copy path; the ring absorbs sender/receiver skew.
type World struct {
	n     int
	start time.Time
	cfg   Config

	pairs []pair // directed, indexed src*n+dst

	barMu   sync.Mutex
	barrier *barrierGen

	// Counters (see Stats).
	directPlacements atomic.Uint64
	ringTransits     atomic.Uint64
	overflowStages   atomic.Uint64
	bytesDirect      atomic.Uint64
	bytesRing        atomic.Uint64

	closeOnce sync.Once

	// ops recycles completed operations (see mpi.Completion for the rule).
	ops mpi.Freelist[op]
}

// Config carries the world options.
type Config struct {
	// RingBytes is the data capacity of each directed pair's ring segment.
	RingBytes int
	// Recorder, when non-nil, receives the world's transport counters
	// (aapc_shm_*) at Close.
	Recorder *obsv.Recorder
}

// Option customizes a world.
type Option func(*Config)

// defaultRingBytes absorbs a few large blocks of sender/receiver skew per
// pair without growing the overflow path.
const defaultRingBytes = 1 << 18

// RingBytes sets the per-pair ring segment data capacity.
func RingBytes(n int) Option {
	return func(c *Config) { c.RingBytes = n }
}

// WithRecorder mirrors the world's transport counters into r when the world
// closes.
func WithRecorder(r *obsv.Recorder) Option {
	return func(c *Config) { c.Recorder = r }
}

// Stats is a snapshot of the world's data-path counters.
type Stats struct {
	// DirectPlacements counts sends placed straight into a posted receive:
	// the single-copy handoff path.
	DirectPlacements uint64
	// RingTransits counts messages staged through a pair's ring segment.
	RingTransits uint64
	// OverflowStages counts messages staged on the heap because the pair's
	// ring was full (or the record exceeded its capacity).
	OverflowStages uint64
	// BytesDirect and BytesRing split the payload bytes by path; overflow
	// stages count toward BytesRing (they take the same two-copy route).
	BytesDirect uint64
	BytesRing   uint64
}

// Stats returns a snapshot of the world's counters.
func (w *World) Stats() Stats {
	return Stats{
		DirectPlacements: w.directPlacements.Load(),
		RingTransits:     w.ringTransits.Load(),
		OverflowStages:   w.overflowStages.Load(),
		BytesDirect:      w.bytesDirect.Load(),
		BytesRing:        w.bytesRing.Load(),
	}
}

// Close flushes the world's counters into the configured Recorder.
// Idempotent; the comms remain usable (shm has no connections to tear
// down), but counters recorded after Close are not mirrored.
func (w *World) Close() {
	w.closeOnce.Do(func() {
		if r := w.cfg.Recorder; r != nil {
			s := w.Stats()
			c := r.Counters()
			c.Add("aapc_shm_direct_placements_total", s.DirectPlacements)
			c.Add("aapc_shm_ring_transits_total", s.RingTransits)
			c.Add("aapc_shm_overflow_stages_total", s.OverflowStages)
			c.Add("aapc_shm_direct_bytes_total", s.BytesDirect)
			c.Add("aapc_shm_ring_bytes_total", s.BytesRing)
		}
	})
}

// barrierGen is one generation of the barrier (same scheme as mem).
type barrierGen struct {
	waiting int
	release chan struct{}
}

// stagedFrame is one message popped out of the ring (or staged past a full
// ring) awaiting its receive. The send op completes at match time, so the
// observable completion semantics are identical on every path.
type stagedFrame struct {
	buf  []byte
	send *op
}

// pair is the matching state of one directed (src, dst) link. The ring is
// allocated on first staging need; a world whose receives always win the
// race never pays for segments.
type pair struct {
	mu      sync.Mutex
	ring    *Ring
	ringOps []*op         // send ops staged in the ring, in record order
	recvs   map[int][]*op // posted receives by tag, FIFO
	arrived map[int][]stagedFrame
	// spare keeps the buffers of received staged frames, up to one ring's
	// worth of bytes, so that what an exchange allocates does not depend on
	// how its ranks interleave.
	spare      [][]byte
	spareBytes int
}

// op is one pending operation; it doubles as the request (the embedded
// mpi.Completion). The trace context never enters the ring: every staged
// record keeps its send op tracked beside it (ringOps, stagedFrame.send), so
// the match copies its Ctx from there on every path.
type op struct {
	mpi.Completion
	w *World
	mpi.Op
}

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

// NewWorld creates a world of n co-located ranks and returns one
// communicator per rank.
func NewWorld(n int, opts ...Option) []mpi.Comm {
	comms, _ := NewWorldComms(n, opts...)
	return comms
}

// NewWorldComms returns the comms and the world itself, for callers that
// need the stats or Close.
func NewWorldComms(n int, opts ...Option) ([]mpi.Comm, *World) {
	if n < 1 {
		panic(fmt.Sprintf("shm: world size %d", n))
	}
	cfg := Config{RingBytes: defaultRingBytes}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.RingBytes < MinSegment {
		cfg.RingBytes = MinSegment
	}
	w := &World{
		n:       n,
		start:   time.Now(),
		cfg:     cfg,
		pairs:   make([]pair, n*n),
		barrier: &barrierGen{release: make(chan struct{})},
	}
	comms := make([]mpi.Comm, n)
	for i := range comms {
		comms[i] = &comm{w: w, rank: i}
	}
	return comms, w
}

// Run starts fn once per rank on its own goroutine, waits for all of them,
// closes the world and returns the first non-nil error.
func Run(n int, fn func(c mpi.Comm) error, opts ...Option) error {
	comms, w := NewWorldComms(n, opts...)
	defer w.Close()
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

// pair returns the directed pair state for src->dst.
func (w *World) pair(src, dst int) *pair { return &w.pairs[src*w.n+dst] }

type comm struct {
	w    *World
	rank int
}

func (c *comm) Rank() int    { return c.rank }
func (c *comm) Size() int    { return c.w.n }
func (c *comm) Now() float64 { return time.Since(c.w.start).Seconds() }

// complete signals both ends of a match: placed is how many of the send's
// bytes reached the receive buffer, fewer than sent being a truncation (the
// error shape matches the mem transport's so callers can treat them
// uniformly). Traced messages stamp the sender's context and the delivery
// time on the receive, and the same time on the send. Both ops have left the
// pair's queues; the caller has released p.mu so the wake-ups do not run
// under it.
func (w *World) complete(recv, send *op, placed int) {
	if send.Ctx != 0 {
		info := mpi.TraceInfo{Ctx: send.Ctx, DeliveredAt: time.Since(w.start).Seconds()}
		recv.Info, send.Info = info, info
	}
	var err error
	if sent := len(send.Buf); placed < sent {
		err = fmt.Errorf("shm: send %d->%d tag %d truncated: receiver buffer %d < %d",
			recv.Peer, send.Peer, send.Tag, len(recv.Buf), sent)
	}
	recv.Complete(err)
	send.Complete(err)
}

// stage records a message that found no posted receive and no ring space.
func (p *pair) stage(tag int, fr stagedFrame) {
	if p.arrived == nil {
		p.arrived = make(map[int][]stagedFrame)
	}
	p.arrived[tag] = append(p.arrived[tag], fr)
}

// stagingBuf returns a size-byte buffer to stage a frame in, reusing a spare
// when one fits. Caller holds p.mu.
func (p *pair) stagingBuf(size int) []byte {
	for i, b := range p.spare {
		if cap(b) >= size {
			last := len(p.spare) - 1
			p.spare[i], p.spare[last] = p.spare[last], nil
			p.spare, p.spareBytes = p.spare[:last], p.spareBytes-cap(b)
			return b[:size]
		}
	}
	return make([]byte, size)
}

func (c *comm) Isend(m mpi.Op) mpi.Request {
	if err := mpi.CheckRank(c, m.Peer); err != nil {
		return mpi.Completed(err)
	}
	w := c.w
	me := w.getOp(m)
	p := w.pair(c.rank, m.Peer)
	p.mu.Lock()
	// Single-copy handoff: a receive is already posted, so the payload
	// moves straight between the two user buffers. Matching order is safe
	// because a receive is only ever posted after the pair's ring and
	// arrived queues were drained of its tag (see Irecv).
	if q := p.recvs[m.Tag]; len(q) > 0 {
		var peer *op
		peer, p.recvs[m.Tag] = mpi.PopFront(q)
		n := copy(peer.Buf, me.Buf)
		p.mu.Unlock()
		w.directPlacements.Add(1)
		w.bytesDirect.Add(uint64(n))
		w.complete(peer, me, n)
		return me
	}
	defer p.mu.Unlock()
	// No receive posted: stage through the pair's ring segment. The send
	// op completes at match time (not at staging), keeping completion and
	// truncation semantics identical on every path. When the ring is full
	// (receiver far behind), drain it into the arrived queues to free space
	// and retry once.
	if p.ring == nil {
		p.ring = NewRing(w.cfg.RingBytes)
	}
	inRing := p.ring.WriteRecord(int64(m.Tag), me.Buf)
	if !inRing {
		p.drainRingLocked()
		inRing = p.ring.WriteRecord(int64(m.Tag), me.Buf)
	}
	if inRing {
		p.ringOps = append(p.ringOps, me)
		w.ringTransits.Add(1)
		w.bytesRing.Add(uint64(len(me.Buf)))
		return me
	}
	// Still no room, or the record is larger than the segment: fall back to
	// a heap stage so progress never depends on ring size.
	staged := p.stagingBuf(len(me.Buf))
	copy(staged, me.Buf)
	p.stage(m.Tag, stagedFrame{buf: staged, send: me})
	w.overflowStages.Add(1)
	w.bytesRing.Add(uint64(len(staged)))
	return me
}

// popRecordLocked moves the ring's next record to the arrived queues,
// preserving order. Caller holds p.mu and has seen the record via PeekRecord.
func (p *pair) popRecordLocked(tag int64, size int) {
	buf := p.stagingBuf(size)
	p.ring.ReadRecord(buf)
	var send *op
	send, p.ringOps = mpi.PopFront(p.ringOps)
	p.stage(int(tag), stagedFrame{buf: buf, send: send})
}

// drainRingLocked pops every complete record out of the pair's ring into
// the arrived queues. Caller holds p.mu.
func (p *pair) drainRingLocked() {
	for {
		tag, size, ok := p.ring.PeekRecord()
		if !ok {
			return
		}
		p.popRecordLocked(tag, size)
	}
}

func (c *comm) Irecv(m mpi.Op) mpi.Request {
	if err := mpi.CheckRank(c, m.Peer); err != nil {
		return mpi.Completed(err)
	}
	w := c.w
	me := w.getOp(m)
	p := w.pair(m.Peer, c.rank)
	p.mu.Lock()
	// Heap-staged frames first: they precede anything still in the ring.
	// The frame is copied under p.mu, as a ring hit is, so its buffer can
	// go back to the spares.
	if af := p.arrived[m.Tag]; len(af) > 0 {
		var fr stagedFrame
		fr, p.arrived[m.Tag] = mpi.PopFront(af)
		placed := copy(me.Buf, fr.buf)
		if p.spareBytes+cap(fr.buf) <= w.cfg.RingBytes {
			p.spare, p.spareBytes = append(p.spare, fr.buf), p.spareBytes+cap(fr.buf)
		}
		p.mu.Unlock()
		w.complete(me, fr.send, placed)
		return me
	}
	// Drain the ring looking for this tag; records for other tags move to
	// the arrived queues in order. On a tag hit the payload is copied
	// straight from the shared segment into the receive buffer.
	for p.ring != nil {
		rtag, size, ok := p.ring.PeekRecord()
		if !ok {
			break
		}
		if int(rtag) == m.Tag {
			var send *op
			send, p.ringOps = mpi.PopFront(p.ringOps)
			placed := p.ring.ReadRecord(me.Buf)
			p.mu.Unlock()
			w.complete(me, send, placed)
			return me
		}
		p.popRecordLocked(rtag, size)
	}
	// Nothing pending for this tag anywhere: post the receive. The next
	// send with this tag takes the single-copy path.
	if p.recvs == nil {
		p.recvs = make(map[int][]*op)
	}
	p.recvs[m.Tag] = append(p.recvs[m.Tag], me)
	p.mu.Unlock()
	return me
}

func (c *comm) Barrier() error {
	w := c.w
	w.barMu.Lock()
	gen := w.barrier
	gen.waiting++
	if gen.waiting == w.n {
		close(gen.release)
		w.barrier = &barrierGen{release: make(chan struct{})}
		w.barMu.Unlock()
		return nil
	}
	w.barMu.Unlock()
	<-gen.release
	return nil
}
