package tcp

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// outFrame is one queued outbound frame. A data frame doubles as the send
// request handed back to the caller (the embedded mpi.Completion), and it
// has two holders: the caller, until its Wait consumes the completion, and
// the stream, until the frame has left the queue, the retransmit window and
// any writer batch — retired by the cumulative ack, failed with the stream,
// or let go by the batch of a failed stream. The window may hold a frame
// long after its request was waited, and a request may be waited long after
// its frame was acked; whichever holder lets go last recycles the frame to
// the rank's freelist. A timed-out wait abandons it to the garbage
// collector. When it completes depends on who owns the payload memory:
//
//   - copied frames (small, non-pool-aligned buffers) complete on the first
//     successful write — the pooled copy makes the caller's buffer reusable
//     immediately, and delivery is guaranteed by retransmitting the copy;
//   - borrowed frames (the zero-copy path: the caller's slice rides the
//     writev batch directly) complete only when the cumulative ack retires
//     them. Until then MPI's no-modify rule keeps the borrowed bytes
//     stable, so a post-reconnect retransmission can resend them verbatim —
//     no copy-on-rewind is ever needed.
type outFrame struct {
	mpi.Completion
	free *mpi.Freelist[outFrame]
	// holds counts the holders that have not let go yet (see the type
	// comment); the one that takes it to zero recycles the frame.
	holds atomic.Int32
	tag   int
	seq   uint64
	// ctx is the causal trace context carried in the frame header (0 =
	// untraced). Retransmissions reuse the frame, so the context survives
	// re-delivery unchanged — which is why the wire reads this field and
	// never Completion.Info, which the caller's Wait consumes.
	ctx uint64
	// buf is the payload: the caller's bytes when borrowed, a pooled copy
	// otherwise.
	buf []byte
	// size is the payload length on the wire.
	size      int
	completed bool
	consulted bool // fault injector consulted (first transmission)
	// poolable marks buf as owned by the payload pool: it is returned there
	// when the cumulative ack prunes the frame (never earlier — rewind may
	// retransmit any still-unacked frame).
	poolable bool
	// borrowed marks the payload as caller-owned memory: completion is
	// deferred to the cumulative ack (see the type comment).
	borrowed bool
	// ackReq asks the peer to return its cumulative ack promptly rather than
	// on its next data frame; set when the frame gets its sequence number
	// (see collect) and repeated by every retransmission.
	ackReq bool
	// written records at least one fully successful write. When the stream
	// fails terminally, a written borrowed frame completes with nil — the
	// copy path completed at exactly that point, and send completion never
	// promised delivery — while an unwritten one fails typed.
	written bool
	// writing marks the frame as part of the writer's in-flight batch; the
	// ack path must not release its buffer underneath the write. Guarded by
	// the stream mutex.
	writing bool
	// ackFreed records that the ack pruned the frame while it was being
	// written; the writer releases the buffer when the write completes.
	ackFreed bool
}

// sendStream orders a link's outbound frames and tracks the retransmit
// window.
type sendStream struct {
	mu      sync.Mutex
	cond    *sync.Cond
	nextSeq uint64
	// queue[qhead:] is the pending-frame FIFO. Popping advances qhead (the
	// slot is nilled); when the queue drains both reset to zero, so the
	// backing array is reused instead of reallocated by every append that
	// follows a front-advance.
	queue   []*outFrame
	qhead   int
	unacked []*outFrame
	resend  int // index into unacked to retransmit from
	// ackUpTo is the cumulative ack every outbound header carries: the read
	// loop records the newest value after each delivery. ackDirty marks an
	// ack the peer asked for (or a duplicate's re-ack) that is still owed:
	// the writer's next write carries it, on its data frames when the batch
	// has any and in an ack frame of its own when it has none. Values are
	// monotonic, so collapsing a backlog of acks into the latest one loses
	// nothing.
	ackUpTo  uint64
	ackDirty bool
	// rewinds counts rewind() calls. The writer snapshots it when it
	// collects a batch and aborts the write if it changed while blocked in
	// acquire: a reconnect happened, and the batch's frames must now be
	// preceded by the retransmissions the rewind scheduled.
	rewinds uint64
	// enq counts frames accepted into the queue; wrote counts frames that
	// have completed at least one full socket write. comm.Flush waits for
	// wrote to catch up with enq's value at call time: "everything I sent
	// has been handed to the kernel", a much cheaper ordering point than
	// delivery-acknowledged completion.
	enq   uint64
	wrote uint64
	// busy marks a collected batch the writer has not released yet. The
	// stream is drained — nothing of it still owed to the wire — exactly
	// when it has no work and is not busy; close waits for that before its
	// goodbye.
	busy   bool
	failed error
}

// hasWorkLocked reports whether the writer has anything to write. Caller
// holds st.mu.
func (st *sendStream) hasWorkLocked() bool {
	return st.resend < len(st.unacked) || st.qhead < len(st.queue) || st.ackDirty
}

// getDataFrame returns the frame (and request) for one send, recycled when
// the freelist has one.
func getDataFrame(free *mpi.Freelist[outFrame], m mpi.Op) *outFrame {
	fr := free.Get()
	switch {
	case fr == nil:
		fr = &outFrame{free: free}
		fr.Init(fr)
	case frameReused != nil:
		frameReused(fr)
	}
	fr.tag, fr.ctx, fr.buf, fr.size = m.Tag, m.Ctx, m.Buf, len(m.Buf)
	fr.holds.Store(2)
	return fr
}

// frameReused, when set (by tests), sees every frame getDataFrame takes
// from the freelist, before it is reused.
var frameReused func(*outFrame)

// Recycle is the caller letting go: its Wait consumed the completion
// (mpi.Recycler).
func (fr *outFrame) Recycle() { fr.release() }

// release lets go of one hold. The last holder clears the frame and returns
// it to its freelist; neither holder touches it afterwards.
func (fr *outFrame) release() {
	if fr.holds.Add(-1) != 0 {
		return
	}
	*fr = outFrame{Completion: fr.Completion, free: fr.free}
	fr.free.Put(fr)
}

// finish delivers the frame's completion, once. A traced frame that made it
// out is stamped with the sender-local time (seconds since the rank's
// epoch): the sender's honest "my bytes left at T" mark — a request whose
// Wait is drained much later must not misreport its send as having lasted
// until the drain. Callers serialize through the stream that owns the
// frame.
func (fr *outFrame) finish(err error, epoch time.Time) {
	if fr.completed {
		return
	}
	fr.completed = true
	if fr.ctx != 0 && err == nil {
		fr.Info = mpi.TraceInfo{Ctx: fr.ctx, DeliveredAt: time.Since(epoch).Seconds()}
	}
	fr.Complete(err)
}

// rewind schedules every unacknowledged frame for retransmission.
func (st *sendStream) rewind() {
	st.mu.Lock()
	st.resend = 0
	st.rewinds++
	st.cond.Broadcast()
	st.mu.Unlock()
}

// retireFrameLocked retires a frame the cumulative ack pruned. The ack
// proves delivery: a pooled send copy goes back to the pool, the frame
// counts as written if no write was counted for it yet (a write that failed
// after its bytes left), and it completes — the deferred completion of a
// borrowed frame; a copied one completed at its first write, unless that
// write failed. The caller lets go of the stream's hold afterwards. Caller
// holds the stream mutex; done is buffered, so the send cannot block
// under it.
func (lk *link) retireFrameLocked(fr *outFrame) {
	if fr.poolable {
		lk.nd.pool.put(fr.buf)
		fr.buf = nil
	}
	if !fr.written {
		fr.written = true
		lk.st.wrote++
	}
	fr.finish(nil, lk.nd.start)
}

// ackStream prunes unacknowledged frames below the cumulative ack,
// retiring each and letting go of it. A frame the writer is concurrently
// writing is only marked (ackFreed); the writer retires it when the write
// completes — releasing mid-write would hand the bytes to another message
// (or let the caller modify them) while writev still references them.
func (lk *link) ackStream(upTo uint64) {
	st := &lk.st
	st.mu.Lock()
	k := 0
	for k < len(st.unacked) && st.unacked[k].seq < upTo {
		k++
	}
	if k > 0 {
		for _, fr := range st.unacked[:k] {
			if fr.writing {
				fr.ackFreed = true
			} else {
				lk.retireFrameLocked(fr)
				fr.release()
			}
		}
		// Shift the survivors down instead of re-slicing forward: the
		// backing array keeps its full capacity, so the steady state appends
		// in collect stop reallocating it.
		n := copy(st.unacked, st.unacked[k:])
		for i := n; i < len(st.unacked); i++ {
			st.unacked[i] = nil
		}
		st.unacked = st.unacked[:n]
		st.resend -= k
		if st.resend < 0 {
			st.resend = 0
		}
	}
	st.mu.Unlock()
}

// noteAck records the cumulative ack the stream's headers carry from now
// on. upTo values are monotonic per pair, so only the newest matters. An
// urgent ack — the peer asked for it, or a duplicate is re-acked even when
// the value is unchanged — also wakes the writer, which sends it on its
// next write whether or not it has data to carry it.
func (st *sendStream) noteAck(upTo uint64, urgent bool) {
	st.mu.Lock()
	if st.failed == nil {
		st.ackUpTo = upTo
		if urgent {
			st.ackDirty = true
			st.cond.Signal()
		}
	}
	st.mu.Unlock()
}

// writerMaxBatch bounds the frames per vectored write: 64 frames is 129
// iovecs worst case, well under IOV_MAX, and bounds how much payload memory
// a single batch pins against ack-driven release. It is also the window of
// lazily acked copied frames: once the retransmit window holds this many,
// every new frame asks for a prompt ack (see collect).
const writerMaxBatch = 64

// writeBatch is the writer's reusable scratch: the frames of the current
// vectored write, their headers (one arena, resliced per frame) and the
// iovec list handed to net.Buffers.
type writeBatch struct {
	frames   []*outFrame
	nRetrans int
	ack      uint64 // the cumulative ack every header of the batch carries
	ackDue   bool   // the batch carries an urgent ack; re-armed if the write fails
	haveAck  bool   // the urgent ack needs an ack frame: no data frame carries it
	rewinds  uint64 // st.rewinds snapshot; mismatch after acquire = stale batch
	dup      bool   // write frames[0] twice (injected duplicate)

	hdrs   []byte
	iovecs net.Buffers
	// sent and bytes count the data frames laid out and their payload.
	sent, bytes uint64
}

// collect fills the batch from the stream: pending retransmissions first,
// then queued frames in order (assigning sequence numbers and entering the
// retransmit window), then the cumulative ack, with an ack frame of its own
// only when an urgent one is due and no data frame carries it. Caller holds
// st.mu. Returns true when the queue head cannot be admitted because the
// retransmit window is full and nothing else is writable — the overflow
// condition that terminally fails the stream.
//
// A new frame asks for a prompt ack when it is borrowed, because its
// completion waits for that ack, or when the window already holds
// writerMaxBatch frames (half the limit, if that is smaller), so a copied
// frame pins its pooled copy for at most about one batch. Other copied
// frames completed at first write and are acked lazily, by the cumulative
// ack on the peer's next data frame.
func (b *writeBatch) collect(st *sendStream, limit, maxData int) (overflow bool) {
	b.frames = b.frames[:0]
	b.nRetrans = 0
	b.dup = false
	lazy := min(writerMaxBatch, limit/2)
	for st.resend < len(st.unacked) && len(b.frames) < maxData {
		fr := st.unacked[st.resend]
		st.resend++
		fr.writing = true
		b.frames = append(b.frames, fr)
		b.nRetrans++
	}
	for st.qhead < len(st.queue) && len(b.frames) < maxData {
		if len(st.unacked) >= limit {
			if len(b.frames) == 0 && !st.ackDirty {
				return true
			}
			break
		}
		fr := st.queue[st.qhead]
		st.queue[st.qhead] = nil
		st.qhead++
		fr.seq = st.nextSeq
		st.nextSeq++
		fr.ackReq = fr.borrowed || len(st.unacked) >= lazy
		st.unacked = append(st.unacked, fr)
		st.resend = len(st.unacked)
		fr.writing = true
		b.frames = append(b.frames, fr)
	}
	if st.qhead == len(st.queue) {
		st.queue = st.queue[:0]
		st.qhead = 0
	}
	b.ack = st.ackUpTo
	b.ackDue = st.ackDirty
	b.haveAck = st.ackDirty && len(b.frames) == 0
	st.ackDirty = false
	b.rewinds = st.rewinds
	st.busy = true
	return false
}

// buildIovecs lays the batch out for one vectored write: header, payload,
// header, payload, ..., every header carrying the cumulative ack, or the
// ack frame alone.
func (b *writeBatch) buildIovecs() {
	n := len(b.frames)
	if b.dup {
		n++
	}
	if b.haveAck {
		n++
	}
	b.hdrs = frameHeaders(b.hdrs, n)
	b.iovecs = b.iovecs[:0]
	hdr := b.hdrs
	b.sent, b.bytes = 0, 0
	emit := func(fr *outFrame) {
		b.iovecs = appendFrame(b.iovecs, hdr[:headerLen], fr, b.ack)
		hdr = hdr[headerLen:]
		b.sent++
		b.bytes += uint64(fr.size)
	}
	for _, fr := range b.frames {
		emit(fr)
	}
	if b.dup && len(b.frames) > 0 {
		emit(b.frames[0])
	}
	if b.haveAck {
		putFrameHeader(hdr[:headerLen], frameHeader{kind: frameAck, ack: b.ack})
		b.iovecs = append(b.iovecs, hdr[:headerLen])
	}
}

// release clears the in-flight marks of the batch, retiring frames whose
// ack arrived mid-write, and (when complete is true) delivers data-frame
// completions with err. Borrowed frames skip the successful-write
// completion — their caller's buffer stays pinned until the cumulative ack
// retires them — but do complete on terminal errors, where no
// retransmission will ever need the bytes again. A stream that failed while
// the batch was out left the batch's frames to this release
// (failStreamLocked skips them): a written frame completes with nil, since
// no ack will come for it, and an unwritten one with the stream's error.
// reack re-arms the urgent ack the batch carried after a failed write, so
// it is retried on the next (post-reconnect) cycle. The stream lets go of a
// frame here when the ack pruned it mid-write or the stream failed: it is
// in no queue or window any more, and the batch empties.
func (lk *link) releaseBatch(b *writeBatch, err error, complete, reack bool) {
	st := &lk.st
	st.mu.Lock()
	st.busy = false
	for _, fr := range b.frames {
		fr.writing = false
		acked := fr.ackFreed
		if acked {
			lk.retireFrameLocked(fr)
		}
		if complete && err == nil && !fr.written {
			fr.written = true
			st.wrote++
		}
		switch {
		case complete && (err != nil || !fr.borrowed):
			e := err
			if fr.borrowed && fr.written {
				// The frame hit the wire before the terminal failure: the
				// copy path would have completed it then, so report the same
				// success; delivery truth surfaces on receiver-side ops.
				e = nil
			}
			fr.finish(e, lk.nd.start)
		case st.failed != nil:
			e := st.failed
			if fr.written {
				e = nil
			}
			fr.finish(e, lk.nd.start)
		}
		if acked || st.failed != nil {
			fr.release()
		}
	}
	b.frames = b.frames[:0]
	if reack && b.ackDue && st.failed == nil {
		st.ackDirty = true
	}
	// Wake Flush and drain waiters, if any (the writer, the cond's usual
	// waiter, is the caller).
	st.cond.Broadcast()
	st.mu.Unlock()
}

// waitLocked blocks until done() holds, the stream fails, or d (when
// positive) elapses, and reports whether done() held. Caller holds st.mu.
// Only a timed wait that blocks arms a timer and allocates.
func (st *sendStream) waitLocked(d time.Duration, done func() bool) bool {
	if d > 0 && st.failed == nil && !done() {
		return st.waitTimedLocked(d, done)
	}
	for st.failed == nil && !done() {
		st.cond.Wait()
	}
	return done()
}

// waitTimedLocked is waitLocked's bounded wait: a timer breaks it off.
func (st *sendStream) waitTimedLocked(d time.Duration, done func() bool) bool {
	expired := false
	timer := time.AfterFunc(d, func() {
		st.mu.Lock()
		expired = true
		st.cond.Broadcast()
		st.mu.Unlock()
	})
	defer timer.Stop()
	for st.failed == nil && !done() && !expired {
		st.cond.Wait()
	}
	return done()
}

// failStreamLocked fails the link's outbound stream: queued and
// unacknowledged frames complete with err and the stream lets go of them,
// future sends are rejected, the writer exits. A frame in the writer's
// in-flight batch is left to releaseBatch: its write may already have
// returned, and a copied or zero-size frame whose bytes reached the kernel
// completes with nil, not with the link's error. Caller holds the stream
// mutex.
func (lk *link) failStreamLocked(err error) {
	st := &lk.st
	if st.failed != nil {
		return
	}
	st.failed = err
	for _, fr := range st.queue[st.qhead:] {
		fr.finish(err, lk.nd.start)
		fr.release()
	}
	for _, fr := range st.unacked {
		if fr.writing {
			continue
		}
		if fr.borrowed && fr.written {
			// Written before the failure: the copy path completed here.
			fr.finish(nil, lk.nd.start)
		} else {
			fr.finish(err, lk.nd.start)
		}
		fr.release()
	}
	st.queue = nil
	st.qhead = 0
	st.unacked = nil
	st.resend = 0
	st.cond.Broadcast()
}

// writer drains the link's outbound stream for the lifetime of the rank.
// Frames are coalesced opportunistically: every pass writes whatever is
// queued at that moment — retransmissions first, then queued frames in
// order, each header carrying the cumulative ack, or a lone ack frame when
// the peer asked for one and no data is queued — in a single vectored
// write. An idle stream therefore flushes each frame immediately (no delay
// timers); batching emerges exactly when the socket is the bottleneck and
// frames accumulate behind the in-flight write. MPI's non-overtaking
// guarantee holds because this is the only goroutine writing the pair's
// frames for its direction.
func (lk *link) writer() {
	nd, st := lk.nd, &lk.st
	defer nd.wg.Done()
	maxData := writerMaxBatch
	if nd.cfg.Faults != nil {
		// Fault decisions are per frame and can sleep, break the link or
		// duplicate; keep one data frame per write so injection points stay
		// exactly where the plan put them.
		maxData = 1
	}
	b := &lk.batch
	// iov is the consumable slice header handed to WriteTo (which advances
	// it as it writes). Its address escapes through the net.Conn interface,
	// so it is declared once per writer, not once per batch, to keep the
	// heap allocation out of the loop.
	var iov net.Buffers
	for {
		st.mu.Lock()
		for st.failed == nil && !st.hasWorkLocked() {
			st.cond.Wait()
		}
		if st.failed != nil {
			st.mu.Unlock()
			return
		}
		overflow := b.collect(st, nd.cfg.Res.RetransmitLimit, maxData)
		st.mu.Unlock()
		if overflow {
			st.mu.Lock()
			lk.failStreamLocked(&mpi.RankError{Rank: lk.peer, Err: fmt.Errorf(
				"tcp: retransmit buffer overflow (%d frames) toward rank %d",
				nd.cfg.Res.RetransmitLimit, lk.peer)})
			st.mu.Unlock()
			return
		}
		if b.nRetrans > 0 {
			nd.stats.retransmits.Add(uint64(b.nRetrans))
		}

		conn, epoch, err := lk.acquire()
		if err != nil {
			// The link is terminally down; fail has drained or will drain
			// the stream. Complete any in-flight frames that escaped it.
			lk.releaseBatch(b, err, true, false)
			return
		}

		st.mu.Lock()
		stale := st.rewinds != b.rewinds
		st.mu.Unlock()
		if stale {
			// A reconnect rewound the stream while this batch waited for the
			// link: retransmissions now precede these frames in sequence
			// order. Put the batch back (the frames already sit in unacked,
			// below the rewound resend cursor) and re-collect.
			lk.releaseBatch(b, nil, false, true)
			continue
		}

		if maxData == 1 && len(b.frames) == 1 && b.nRetrans == 0 && !b.frames[0].consulted {
			b.frames[0].consulted = true
			op, d := nd.cfg.Faults.FrameFault(nd.rank, lk.peer)
			switch op {
			case mpi.FaultDelay:
				select {
				case <-time.After(d):
				case <-nd.ctx.Done():
				}
			case mpi.FaultDropConn:
				// The frame sits in unacked; it is retransmitted after the
				// reconnect, or failed with the link.
				lk.broken(epoch, fmt.Errorf("tcp: injected connection drop %d->%d", nd.rank, lk.peer), false)
				lk.releaseBatch(b, nil, false, true)
				continue
			case mpi.FaultDuplicate:
				b.dup = true
			}
		}

		b.buildIovecs()
		iov = b.iovecs
		if _, werr := iov.WriteTo(conn); werr != nil {
			// Data frames stay in unacked and are retransmitted after the
			// reconnect (or failed terminally); an urgent ack is re-armed.
			lk.broken(epoch, werr, false)
			lk.releaseBatch(b, nil, false, true)
			continue
		}
		nd.stats.writevs.Add(1)
		nd.stats.framesSent.Add(b.sent)
		nd.stats.bytesSent.Add(b.bytes)
		if b.haveAck {
			nd.stats.acksSent.Add(1)
		}
		lk.releaseBatch(b, nil, true, false)
	}
}
