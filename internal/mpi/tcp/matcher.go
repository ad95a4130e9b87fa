package tcp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// matcher pairs incoming frames with posted receives for one rank.
type matcher struct {
	// pool receives payload buffers back once their bytes have been copied
	// into the user's receive buffer.
	pool *bufPool
	// stats counts match-time payload copies (frames that arrived before
	// their receive was posted and had to be staged).
	stats *stats
	// now reads the rank's clock (Comm.Now seconds). Used to stamp the
	// delivery time of traced frames only, so the untraced path stays free
	// of clock reads.
	now func() float64

	mu sync.Mutex
	// arrived holds frames with no posted receive yet, FIFO per key.
	arrived map[matchKey][]arrivedMsg
	// posted holds receives with no arrived frame yet, FIFO per key.
	posted map[matchKey][]*recvOp
	// srcErr holds sticky per-source transport errors: a dead peer fails
	// only the receives naming it, not traffic from healthy peers.
	srcErr map[int]error
	// zeroCopy[src] counts the receives from src in posted of at least
	// zeroCopyMin bytes: while it is non-zero, the link's reader reads no
	// further than the header it needs. Changed under mu; the reader loads
	// it without.
	zeroCopy []atomic.Int32
}

// newMatcher returns the matcher of a rank of an n-rank world, with the
// pool and counters of sh and the rank's clock now.
func newMatcher(n int, sh *shared, now func() float64) *matcher {
	return &matcher{
		pool:     &sh.pool,
		stats:    &sh.stats,
		now:      now,
		arrived:  make(map[matchKey][]arrivedMsg),
		posted:   make(map[matchKey][]*recvOp),
		srcErr:   make(map[int]error),
		zeroCopy: make([]atomic.Int32, n),
	}
}

// arrivedMsg is a delivered frame waiting for its receive: the payload plus
// the trace context it carried and its delivery timestamp (stamped only
// when traced, so a late-posted receive still learns the true arrival
// time, not its own post time).
type arrivedMsg struct {
	payload []byte
	ctx     uint64
	at      float64
}

type matchKey struct {
	src int
	tag int
}

// recvOp is one posted receive. It doubles as the request handed back to
// the caller (the embedded mpi.Completion), recycled through the rank's
// freelist. The matcher writes Info — the matched frame's trace
// context and delivery time — before completing the op.
type recvOp struct {
	mpi.Completion
	free *mpi.Freelist[recvOp]
	buf  []byte
}

// getRecvOp returns a recycled receive op or makes a fresh one.
func getRecvOp(free *mpi.Freelist[recvOp], m mpi.Op) *recvOp {
	o := free.Get()
	if o == nil {
		o = &recvOp{free: free}
		o.Init(o)
	}
	o.buf = m.Buf
	return o
}

// Recycle returns a consumed op to its freelist (mpi.Recycler).
func (o *recvOp) Recycle() {
	o.buf = nil
	o.free.Put(o)
}

// fail records a transport failure for one source: every pending and
// future receive from that source errors out; other sources are unaffected.
func (m *matcher) fail(src int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.srcErr[src] != nil {
		return
	}
	m.srcErr[src] = err
	for key, q := range m.posted {
		if key.src != src {
			continue
		}
		for _, op := range q {
			op.Complete(err)
		}
		delete(m.posted, key)
	}
	m.zeroCopy[src].Store(0)
}

// track counts op into or out of its source's zeroCopy. Caller holds mu.
func (m *matcher) track(src int, op *recvOp, delta int32) {
	if len(op.buf) >= zeroCopyMin {
		m.zeroCopy[src].Add(delta)
	}
}

// zeroCopyPosted reports whether a receive from src of at least
// zeroCopyMin bytes is posted.
func (m *matcher) zeroCopyPosted(src int) bool { return m.zeroCopy[src].Load() > 0 }

// deliver hands an arrived frame to a posted receive or queues it. A
// matched payload goes back to the pool the moment its bytes are copied
// into the receiver's buffer; an unmatched one is retained in the arrived
// queue and returned at post time. Traced frames (ctx != 0) get a delivery
// timestamp here — the moment the payload reached this rank — so a receive
// waited long after arrival still reports the true delivery time.
func (m *matcher) deliver(key matchKey, payload []byte, ctx uint64) {
	var at float64
	if ctx != 0 {
		at = m.now()
	}
	m.mu.Lock()
	if q := m.posted[key]; len(q) > 0 {
		var op *recvOp
		op, m.posted[key] = mpi.PopFront(q)
		m.track(key.src, op, -1)
		m.mu.Unlock()
		m.finish(op, arrivedMsg{payload: payload, ctx: ctx, at: at})
		return
	}
	m.arrived[key] = append(m.arrived[key], arrivedMsg{payload: payload, ctx: ctx, at: at})
	m.mu.Unlock()
}

// finish completes the match of a staged frame with its receive: the
// match-time copy into the op's buffer, the payload's return to the pool,
// the trace stamp, the completion. The matcher lock is not held.
func (m *matcher) finish(op *recvOp, msg arrivedMsg) {
	err := op.place(msg.payload, m.stats)
	m.pool.put(msg.payload)
	if msg.ctx != 0 {
		op.Info = mpi.TraceInfo{Ctx: msg.ctx, DeliveredAt: msg.at}
	}
	op.Complete(err)
}

// post registers a receive, matching an already-arrived frame if any.
// Frames that arrived before the source died still match.
func (m *matcher) post(key matchKey, op *recvOp) {
	m.mu.Lock()
	if q := m.arrived[key]; len(q) > 0 {
		var msg arrivedMsg
		msg, m.arrived[key] = mpi.PopFront(q)
		m.mu.Unlock()
		m.finish(op, msg)
		return
	}
	if err := m.srcErr[key.src]; err != nil {
		m.mu.Unlock()
		op.Complete(err)
		return
	}
	m.posted[key] = append(m.posted[key], op)
	m.track(key.src, op, 1)
	m.mu.Unlock()
}

// claim pops the oldest posted receive for key, transferring ownership to
// the caller (the read loop, which will fill its buffer straight off the
// socket). Returns nil when no receive is posted — the caller falls back to
// staging the payload. For one key, frames only ever arrive from a single
// read loop, so the pop order is the match order.
func (m *matcher) claim(key matchKey) *recvOp {
	m.mu.Lock()
	q := m.posted[key]
	if len(q) == 0 {
		m.mu.Unlock()
		return nil
	}
	op, q := mpi.PopFront(q)
	m.posted[key] = q
	m.track(key.src, op, -1)
	m.mu.Unlock()
	return op
}

// unclaim returns a claimed-but-unfilled op to the head of its queue after
// a socket error interrupted its payload read: the receive cursor did not
// advance, so the retransmission (on the next connection epoch) must find
// the same op first. If the source failed terminally while the op was
// claimed, it is completed with that error instead — matcher.fail could not
// see it.
func (m *matcher) unclaim(key matchKey, op *recvOp) {
	m.mu.Lock()
	if err := m.srcErr[key.src]; err != nil {
		m.mu.Unlock()
		op.Complete(err)
		return
	}
	q := append(m.posted[key], nil)
	copy(q[1:], q)
	q[0] = op
	m.posted[key] = q
	m.track(key.src, op, 1)
	m.mu.Unlock()
}

// complete finishes a claimed op whose buffer the read loop has filled:
// stamp the trace context/delivery time, then deliver the completion.
func (m *matcher) complete(op *recvOp, ctx uint64, err error) {
	if ctx != 0 {
		op.Info = mpi.TraceInfo{Ctx: ctx, DeliveredAt: m.now()}
	}
	op.Complete(err)
}

// place copies a staged payload into the op's buffer. This is the
// match-time copy counted against the ≤1-copy budget.
func (o *recvOp) place(payload []byte, st *stats) error {
	if len(payload) > 0 {
		st.payloadCopies.Add(1)
	}
	if copy(o.buf, payload) < len(payload) {
		return fmt.Errorf("tcp: message truncated: receiver buffer %d < %d", len(o.buf), len(payload))
	}
	return nil
}

// loopback delivers a self-send through the matcher, via a pooled copy.
func (m *matcher) loopback(rank int, op mpi.Op) mpi.Request {
	payload := m.pool.get(len(op.Buf))
	copy(payload, op.Buf)
	if len(payload) > 0 {
		m.stats.payloadCopies.Add(1)
	}
	m.deliver(matchKey{src: rank, tag: op.Tag}, payload, op.Ctx)
	return mpi.Completed(nil)
}
