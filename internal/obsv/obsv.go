// Package obsv is the repository's transport-agnostic observability layer:
// structured events, counters and log2-bucketed histograms recorded while an
// algorithm runs over any mpi.Comm — in-process memory, loopback TCP,
// distributed TCP or the virtual-time simulator.
//
// The paper's whole argument is about where time goes: contention-free
// phases versus oversubscribed edges, synchronization cost versus drift.
// This package records that on every substrate alike:
//
//   - Instrument wraps a Comm so that every Isend/Irecv/Wait/Barrier becomes
//     an Event (src, dst, tag, bytes, start/finish via Comm.Now()) in a
//     per-rank Recorder. One rank, one Recorder, one uncontended mutex: the
//     hot path is an append and two Now() calls. The simulator has no trace
//     of its own; a traced simulation is an instrumented one, with virtual
//     times in the events.
//   - alltoall.Scheduled marks phase boundaries and synchronization waits
//     through the Marker interface, making phase drift and stall time
//     first-class measurements on every transport.
//   - The tcp transport and the fault injector feed named Counters
//     (reconnects, retransmits, duplicate discards, injected faults).
//   - Two sinks: a Prometheus-text /metrics HTTP endpoint (metrics.go) and a
//     JSONL event trace (jsonl.go). Every analysis of a recorded run —
//     Gantt charts, flow statistics, phase attribution, critical paths,
//     sim-vs-real divergence — lives in the collect subpackage and reads
//     these events, whichever transport produced them.
//
// Building with -tags obsv_off turns the whole layer into no-ops: Instrument
// returns the communicator unchanged and recording methods return
// immediately, so the instrumentation compiles out of deployments that do
// not want it.
package obsv

import (
	"fmt"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// Kind classifies an Event.
type Kind uint8

const (
	// KindSend is one completed (or failed) nonblocking send.
	KindSend Kind = iota
	// KindRecv is one completed (or failed) nonblocking receive.
	KindRecv
	// KindBarrier is one barrier entry/exit.
	KindBarrier
	// KindPhase marks a rank entering a schedule phase (Marker.MarkPhase);
	// Start == End.
	KindPhase
	// KindSyncWait is the time a rank spent blocked waiting for a pair-wise
	// synchronization message before it was allowed to send.
	KindSyncWait
)

// String names the kind as it appears in JSONL traces.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindBarrier:
		return "barrier"
	case KindPhase:
		return "phase"
	case KindSyncWait:
		return "syncwait"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MarshalText renders the kind for JSON.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the JSON form.
func (k *Kind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "send":
		*k = KindSend
	case "recv":
		*k = KindRecv
	case "barrier":
		*k = KindBarrier
	case "phase":
		*k = KindPhase
	case "syncwait":
		*k = KindSyncWait
	default:
		return fmt.Errorf("obsv: unknown event kind %q", b)
	}
	return nil
}

// Event is one recorded operation. Times are Comm.Now() seconds — wall clock
// on real transports, virtual time in the simulator — so the same analysis
// applies to both.
type Event struct {
	Kind Kind `json:"kind"`
	// Rank is the recording rank.
	Rank int `json:"rank"`
	// Peer is the destination (send), source (recv, syncwait) or -1.
	Peer int `json:"peer"`
	// Tag is the MPI tag of send/recv events.
	Tag int `json:"tag,omitempty"`
	// Bytes is the payload length (send: buffer sent; recv: receive buffer
	// capacity, which every routine in this repository sizes exactly).
	Bytes int `json:"bytes,omitempty"`
	// Phase is the schedule phase the operation belongs to, or -1 when the
	// algorithm did not mark phases.
	Phase int `json:"phase"`
	// Start and End bound the operation: post-to-completion for send/recv,
	// entry-to-exit for barriers, the blocked interval for syncwaits.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Seq numbers the rank's events 1..n in program order. (rank, Seq) is
	// the event's causal identity: senders pack it into the trace context
	// that rides the transport frame (mpi.MakeTraceCtx).
	Seq uint64 `json:"seq,omitempty"`
	// LinkSeq, on a recv event, is the Seq of the matching send event on
	// rank Peer — the cross-rank causal edge. 0 means the transport did not
	// carry a context (or the message was sent uninstrumented).
	LinkSeq uint64 `json:"link,omitempty"`
	// Deliver is the transport's completion timestamp, as opposed to End,
	// which is when the rank finished waiting. On a linked recv it is when
	// the payload reached this rank; on a traced send it is when the
	// message left (mem: the match; tcp: the socket write). An operation
	// posted early and drained late has Deliver well before End. 0 means
	// unknown.
	Deliver float64 `json:"deliver,omitempty"`
	// Err carries the operation's error text, if it failed.
	Err string `json:"err,omitempty"`
}

// Recorder collects one rank's events, counters and histograms. It is safe
// for concurrent use, but the design point is one recorder per rank so the
// mutex is effectively uncontended.
type Recorder struct {
	rank int

	mu sync.Mutex
	// chunks stores events in fixed-size blocks: appending never copies the
	// history (no slice-doubling), so the steady-state cost of record is one
	// in-place append, with one chunk allocation per eventChunkSize events.
	chunks  [][]Event
	nEvents int

	counters Counters

	// sendWait/recvWait/barrierWait/syncWait observe operation latencies in
	// nanoseconds; sendBytes observes send payload sizes in bytes.
	sendWait    Histogram
	recvWait    Histogram
	barrierWait Histogram
	syncWait    Histogram
	sendBytes   Histogram

	bytesSent uint64
	bytesRecv uint64
}

// NewRecorder builds an empty recorder for a rank.
func NewRecorder(rank int) *Recorder { return &Recorder{rank: rank} }

// Rank returns the rank the recorder belongs to.
func (r *Recorder) Rank() int { return r.rank }

// Counters returns the recorder's named counter set (nil-safe: a nil
// recorder returns nil, and Counters methods accept a nil receiver).
func (r *Recorder) Counters() *Counters {
	if r == nil {
		return nil
	}
	return &r.counters
}

// Events returns a copy of every recorded event, in recording order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nEvents == 0 {
		return nil
	}
	out := make([]Event, 0, r.nEvents)
	for _, ch := range r.chunks {
		out = append(out, ch...)
	}
	return out
}

// NumEvents returns the number of recorded events.
func (r *Recorder) NumEvents() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nEvents
}

// eventChunkSize is the block size of the recorder's event storage: one
// allocation per this many events on the record path.
const eventChunkSize = 256

// record appends an event and feeds the derived histograms and byte tallies.
func (r *Recorder) record(e Event) {
	if !Enabled || r == nil {
		return
	}
	ns := uint64((e.End - e.Start) * 1e9)
	r.mu.Lock()
	if k := len(r.chunks); k == 0 || len(r.chunks[k-1]) == cap(r.chunks[k-1]) {
		// The first chunk is small — a single alltoall records on the order
		// of 64 events per rank — later chunks use the full block size.
		size := 64
		if k > 0 {
			size = eventChunkSize
		}
		r.chunks = append(r.chunks, make([]Event, 0, size)) // amortized: one chunk per eventChunkSize events
	}
	last := len(r.chunks) - 1
	r.chunks[last] = append(r.chunks[last], e)
	r.nEvents++
	switch e.Kind {
	case KindSend:
		r.sendWait.Observe(ns)
		r.sendBytes.Observe(uint64(e.Bytes))
		r.bytesSent += uint64(e.Bytes)
	case KindRecv:
		r.recvWait.Observe(ns)
		r.bytesRecv += uint64(e.Bytes)
	case KindBarrier:
		r.barrierWait.Observe(ns)
	case KindSyncWait:
		r.syncWait.Observe(ns)
	}
	r.mu.Unlock()
}

// SendWait returns a snapshot of the send-completion latency histogram
// (nanoseconds).
func (r *Recorder) SendWait() Histogram { return r.snap(&r.sendWait) }

// RecvWait returns a snapshot of the receive-completion latency histogram
// (nanoseconds).
func (r *Recorder) RecvWait() Histogram { return r.snap(&r.recvWait) }

// BarrierWait returns a snapshot of the barrier latency histogram
// (nanoseconds).
func (r *Recorder) BarrierWait() Histogram { return r.snap(&r.barrierWait) }

// SyncWait returns a snapshot of the synchronization-stall histogram
// (nanoseconds).
func (r *Recorder) SyncWait() Histogram { return r.snap(&r.syncWait) }

// SendBytes returns a snapshot of the send payload size histogram (bytes).
func (r *Recorder) SendBytes() Histogram { return r.snap(&r.sendBytes) }

// BytesSent and BytesRecv return the cumulative payload volumes.
func (r *Recorder) BytesSent() uint64 { r.mu.Lock(); defer r.mu.Unlock(); return r.bytesSent }

// BytesRecv returns the cumulative bytes posted for receiving.
func (r *Recorder) BytesRecv() uint64 { r.mu.Lock(); defer r.mu.Unlock(); return r.bytesRecv }

func (r *Recorder) snap(h *Histogram) Histogram {
	if r == nil {
		return Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return *h
}

// MergedEvents concatenates the events of several recorders, ordered by
// start time (ties by rank) — the canonical form for JSONL traces and phase
// analysis.
func MergedEvents(recs ...*Recorder) []Event {
	var out []Event
	for _, r := range recs {
		out = append(out, r.Events()...)
	}
	sortEvents(out)
	return out
}

// Marker is implemented by instrumented communicators: algorithms that know
// their schedule structure (alltoall.Scheduled) mark phase boundaries and
// synchronization stalls through it, turning phase drift into data. Times
// are Comm.Now() seconds.
type Marker interface {
	// MarkPhase records that the rank entered the given schedule phase;
	// subsequent send/recv events are attributed to it.
	MarkPhase(phase int)
	// MarkSyncWait records a blocked interval waiting for the pair-wise
	// synchronization message from peer.
	MarkSyncWait(peer int, start, end float64)
}

// MarkerFor returns the Marker behind a communicator, or nil when the comm
// is not instrumented (or the layer is compiled out).
func MarkerFor(c mpi.Comm) Marker {
	m, _ := c.(Marker)
	return m
}

// OpPhaser lets schedule-aware algorithms attribute a single upcoming
// operation to a phase other than the current one. alltoall.Scheduled
// pre-posts every data receive before entering phase 0; without the hint
// those receives would all be attributed to phase -1 even though each
// belongs to the phase whose message it catches.
type OpPhaser interface {
	// SetNextOpPhase overrides the phase recorded for the next posted
	// Isend/Irecv only; the override is consumed by that operation.
	SetNextOpPhase(phase int)
}

// PhaserFor returns the OpPhaser behind a communicator, or nil when the
// comm is not instrumented (or the layer is compiled out).
func PhaserFor(c mpi.Comm) OpPhaser {
	p, _ := c.(OpPhaser)
	return p
}

// Instrument wraps a communicator so that every operation is recorded into
// r. With a nil recorder — or when the package is built with -tags obsv_off
// — the communicator is returned unchanged, so instrumentation has strictly
// zero cost when unused. The wrapper forwards mpi.Killer, and mpi.Flusher
// exactly when the transport has it.
func Instrument(c mpi.Comm, r *Recorder) mpi.Comm {
	if !Enabled || r == nil || c == nil {
		return c
	}
	ic := &icomm{inner: c, rec: r, phase: -1, nextPhase: -1}
	// Flush must be surfaced only when the transport has it: a no-op Flush
	// would make the scheduler skip a wait that is load-bearing on
	// transports without a writer stage (the simulator).
	if fl, ok := c.(mpi.Flusher); ok {
		return &icommFlush{ic, fl}
	}
	return ic
}

// icommFlush additionally forwards the wire-entry watermark wait
// (mpi.Flusher). The wait itself is not recorded as an event: the send and
// sync events around it already bound any stall.
type icommFlush struct {
	*icomm
	fl mpi.Flusher
}

func (c *icommFlush) Flush(dst int, d time.Duration) error {
	return c.fl.Flush(dst, d)
}

// icomm is the instrumenting decorator.
type icomm struct {
	inner mpi.Comm
	rec   *Recorder
	// phase is the current schedule phase set through MarkPhase; a Comm is
	// owned by one goroutine, so no lock is needed.
	phase int
	// nextPhase, when >= 0, overrides the phase of the next posted
	// operation only (OpPhaser).
	nextPhase int
	// seq numbers this rank's events 1..n in program order. A send's
	// (rank, seq) is packed into its outgoing trace context.
	seq uint64
	// chunk bump-allocates request wrappers 64 at a time: one heap object
	// per 64 operations instead of one per operation keeps the wrapper's
	// allocation and GC-scan cost off the per-message path. Outstanding
	// *ireq pointers stay valid because a full chunk is abandoned (kept
	// alive by those pointers), never grown in place.
	chunk []ireq
}

// opPhase returns the phase to attribute the next posted operation to,
// consuming any one-shot SetNextOpPhase override.
func (c *icomm) opPhase() int {
	if c.nextPhase >= 0 {
		p := c.nextPhase
		c.nextPhase = -1
		return p
	}
	return c.phase
}

// SetNextOpPhase implements OpPhaser.
func (c *icomm) SetNextOpPhase(phase int) { c.nextPhase = phase }

// newReq wraps a request in the next slot of the current chunk.
func (c *icomm) newReq(inner mpi.Request, ev Event) *ireq {
	if len(c.chunk) == cap(c.chunk) {
		c.chunk = make([]ireq, 0, 64) // bump-allocator refill: one heap object per 64 requests
	}
	c.chunk = append(c.chunk, ireq{inner: inner, c: c, ev: ev})
	return &c.chunk[len(c.chunk)-1]
}

func (c *icomm) Rank() int    { return c.inner.Rank() }
func (c *icomm) Size() int    { return c.inner.Size() }
func (c *icomm) Now() float64 { return c.inner.Now() }

// Kill passes through to the underlying transport (mpi.Killer).
func (c *icomm) Kill() error {
	if k, ok := c.inner.(mpi.Killer); ok {
		return k.Kill()
	}
	return fmt.Errorf("obsv: transport cannot kill ranks")
}

// MarkPhase implements Marker.
func (c *icomm) MarkPhase(phase int) {
	now := c.inner.Now()
	c.phase = phase
	c.seq++
	c.rec.record(Event{Kind: KindPhase, Rank: c.inner.Rank(), Peer: -1, Phase: phase,
		Seq: c.seq, Start: now, End: now})
}

// MarkSyncWait implements Marker.
func (c *icomm) MarkSyncWait(peer int, start, end float64) {
	c.seq++
	c.rec.record(Event{Kind: KindSyncWait, Rank: c.inner.Rank(), Peer: peer,
		Phase: c.phase, Seq: c.seq, Start: start, End: end})
}

// Isend records the send and stamps its (rank, seq) identity into the op's
// trace context: every transport carries Ctx to the matching receive.
func (c *icomm) Isend(op mpi.Op) mpi.Request {
	c.seq++
	ev := Event{Kind: KindSend, Rank: c.inner.Rank(), Peer: op.Peer, Tag: op.Tag,
		Bytes: len(op.Buf), Phase: c.opPhase(), Seq: c.seq, Start: c.inner.Now()}
	op.Ctx = mpi.MakeTraceCtx(ev.Rank, c.seq)
	return c.newReq(c.inner.Isend(op), ev)
}

func (c *icomm) Irecv(op mpi.Op) mpi.Request {
	c.seq++
	ev := Event{Kind: KindRecv, Rank: c.inner.Rank(), Peer: op.Peer, Tag: op.Tag,
		Bytes: len(op.Buf), Phase: c.opPhase(), Seq: c.seq, Start: c.inner.Now()}
	return c.newReq(c.inner.Irecv(op), ev)
}

func (c *icomm) Barrier() error {
	start := c.inner.Now()
	err := c.inner.Barrier()
	c.seq++
	ev := Event{Kind: KindBarrier, Rank: c.inner.Rank(), Peer: -1,
		Phase: c.phase, Seq: c.seq, Start: start, End: c.inner.Now()}
	if err != nil {
		ev.Err = err.Error()
	}
	c.rec.record(ev)
	return err
}

// ireq records the operation when its wait completes. A request's Wait may
// be called at most once (mpi.Request contract), so completion is recorded
// exactly once per operation — no event loss, no duplication.
type ireq struct {
	inner mpi.Request
	c     *icomm
	ev    Event
	done  bool
}

func (r *ireq) finish(info mpi.TraceInfo, err error) {
	if r.done {
		return
	}
	r.done = true
	r.ev.End = r.c.inner.Now()
	if r.ev.Kind == KindRecv && info.Ctx != 0 {
		// Link the receive to its sender's span. The rank check rejects a
		// context that somehow crossed sources (it cannot on the transports
		// in this repository, but a linked trace must never lie).
		if rank, seq := mpi.SplitTraceCtx(info.Ctx); rank == r.ev.Peer {
			r.ev.LinkSeq = seq
			r.ev.Deliver = info.DeliveredAt
		}
	}
	if r.ev.Kind == KindSend && info.DeliveredAt > 0 {
		// A send whose Wait drained long after the match would otherwise
		// report the drain as its duration; the transport's completion stamp
		// is the honest end of the operation. The context check confirms the
		// info describes this very send.
		if rank, seq := mpi.SplitTraceCtx(info.Ctx); rank == r.ev.Rank && seq == r.ev.Seq {
			r.ev.Deliver = info.DeliveredAt
		}
	}
	if err != nil {
		r.ev.Err = err.Error()
	}
	r.c.rec.record(r.ev)
}

// Wait records the operation with whatever the transport's wait learned. A
// timed-out operation is recorded with its timeout error: the event marks
// when the rank gave up, not when (or whether) the transport finished.
func (r *ireq) Wait(d time.Duration) (mpi.TraceInfo, error) {
	info, err := r.inner.Wait(d)
	r.finish(info, err)
	return info, err
}
