package tcp

import (
	"sync"
	"sync/atomic"
)

// Size-classed payload pool. Every buffer the data plane allocates per
// message — receive payloads read off the socket, resilient-mode send
// copies, self-send loopback copies — comes from here and is returned the
// moment its last reader is done with it:
//
//   - a receive payload is returned after copyPayload hands its bytes to the
//     user's Irecv buffer (immediately when the receive was already posted,
//     at match time when the frame waited in the arrived queue);
//   - a duplicate frame discarded by the sequence cursor is returned at once;
//   - a send copy is returned when the cumulative ack prunes it from the
//     retransmit window — never earlier, because rewind() may retransmit any
//     still-unacked frame on a fresh connection epoch. A frame being written
//     when its ack lands is released by the writer once the write completes
//     (outFrame.writing/ackFreed, both guarded by the stream lock).
//
// Classes are powers of two from 64 B to 1 MiB; larger payloads fall back to
// the garbage collector (at that size the copy dwarfs the allocation).
// Freelists are plain mutex-guarded slices rather than sync.Pool: Put on a
// sync.Pool boxes the slice header (one allocation per recycle, exactly what
// the pool exists to remove), and a bounded freelist keeps worst-case memory
// explicit.
const (
	poolMinShift = 6  // 64 B
	poolMaxShift = 20 // 1 MiB
	poolClasses  = poolMaxShift - poolMinShift + 1
	// poolClassCap bounds each class's freelist; overflow is dropped to the
	// GC so a burst cannot pin memory forever.
	poolClassCap = 256
)

// bufPool is one world's payload pool. The zero value is ready to use.
type bufPool struct {
	classes [poolClasses]struct {
		mu   sync.Mutex
		free [][]byte
	}
	// gets/puts/misses are test/diagnostic counters; atomic because they
	// span classes with independent locks.
	stats struct {
		gets   atomic.Uint64
		misses atomic.Uint64
		puts   atomic.Uint64
	}
}

// poolAligned reports whether b's backing array is an exact pool class
// (power-of-two capacity in the pooled range). Such a slice is what get()
// would have handed out anyway, so the send path can borrow it directly
// into a writev batch instead of copying it into a fresh pool buffer —
// worthwhile even for control-sized (≤64B) messages.
func poolAligned(b []byte) bool {
	c := cap(b)
	return c >= 1<<poolMinShift && c <= 1<<poolMaxShift && c&(c-1) == 0
}

// classFor returns the class index whose buffers hold n bytes, or -1 when n
// is out of the pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<poolMaxShift {
		return -1
	}
	c := 0
	for s := 1 << poolMinShift; s < n; s <<= 1 {
		c++
	}
	return c
}

// get returns a length-n buffer, recycled when a suitable one is pooled.
// n == 0 returns nil (zero-length frames carry no payload).
func (p *bufPool) get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		if n == 0 {
			return nil
		}
		return make([]byte, n)
	}
	cl := &p.classes[c]
	p.stats.gets.Add(1)
	cl.mu.Lock()
	if k := len(cl.free); k > 0 {
		b := cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
		cl.mu.Unlock()
		return b[:n]
	}
	cl.mu.Unlock()
	p.stats.misses.Add(1)
	return make([]byte, n, 1<<(poolMinShift+c)) // pool miss populates the class; steady state hits the freelist
}

// put returns a buffer to its class. Buffers whose capacity is not an exact
// class size (foreign allocations, oversize payloads) are dropped to the GC,
// so put is safe to call on anything.
func (p *bufPool) put(b []byte) {
	c := cap(b)
	if c < 1<<poolMinShift || c > 1<<poolMaxShift || c&(c-1) != 0 {
		return
	}
	cls := 0
	for s := 1 << poolMinShift; s < c; s <<= 1 {
		cls++
	}
	cl := &p.classes[cls]
	p.stats.puts.Add(1)
	cl.mu.Lock()
	if len(cl.free) < poolClassCap {
		cl.free = append(cl.free, b[:0])
	}
	cl.mu.Unlock()
}
