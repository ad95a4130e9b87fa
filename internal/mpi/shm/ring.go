// Package shm is an in-process world: its ranks exchange AAPC blocks
// through lock-free single-producer single-consumer rings over heap
// segments, so a message costs a memcpy and two atomic cursor updates — no
// socket, no syscall, no kernel transition.
//
// Synchronization is pure atomics on each segment's header words.
package shm

import (
	"sync/atomic"
	"unsafe"
)

// Segment header layout (all uint64, 8-byte aligned):
//
//	[0:8]   tail — bytes produced (written by the producer only)
//	[8:16]  head — bytes consumed (written by the consumer only)
//	[16:24] closed — non-zero once either side closed the ring
//
// Cursors grow monotonically; data lives at segment[headerBytes:] and is
// addressed modulo the data capacity. Producer and consumer each own one
// cursor, so the only cross-party communication is one release-store and
// one acquire-load per operation.
const headerBytes = 24

// MinSegment is the smallest usable segment: header plus room for one
// maximally small record.
const MinSegment = headerBytes + recordHeader + 1

// recordHeader is the per-record framing in record mode: u32 payload size
// plus i64 tag.
const recordHeader = 12

// Ring is one directed SPSC byte ring over a segment. At most one goroutine
// may produce and one consume; the two may differ freely.
//
// The single-producer/single-consumer rules the ring's correctness rests on:
//
//   - every access to a cursor (tail, head) goes through sync/atomic — a
//     plain read of a word the other side stores atomically is a data race,
//     even when it only sizes free space;
//   - only the producer stores tail, and only the consumer stores head; the
//     producer method is WriteRecord, the consumer methods PeekRecord and
//     ReadRecord, and neither side calls the other's;
//   - a side stores its cursor last: the producer after its bytes are in the
//     data area (release: publish them), the consumer after it has copied
//     them out (release: free the space). Storing it earlier hands the other
//     side bytes it may still be writing or reading.
//
// TestRingRecordSPSC runs a producer and a consumer goroutine through a
// small ring, checking every byte; under the race detector it also checks
// the atomics.
type Ring struct {
	tail   *uint64 // bytes produced; stored by the producer only
	head   *uint64 // bytes consumed; stored by the consumer only
	closed *uint64
	data   []byte
	cap    uint64
}

// NewRing allocates an in-process ring whose data area holds at least
// dataCap bytes. The segment is backed by a uint64 slice, which the Go
// allocator aligns, so the header words are 8-byte aligned.
func NewRing(dataCap int) *Ring {
	size := max(headerBytes+dataCap, MinSegment)
	words := make([]uint64, (size+7)/8)
	seg := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	return &Ring{
		tail:   (*uint64)(unsafe.Pointer(&seg[0])),
		head:   (*uint64)(unsafe.Pointer(&seg[8])),
		closed: (*uint64)(unsafe.Pointer(&seg[16])),
		data:   seg[headerBytes:],
		cap:    uint64(size - headerBytes),
	}
}

// Close marks the ring closed. Idempotent, callable from either side.
func (r *Ring) Close() { atomic.StoreUint64(r.closed, 1) }

// Closed reports whether either side closed the ring.
func (r *Ring) Closed() bool { return atomic.LoadUint64(r.closed) != 0 }

// Buffered returns the bytes currently readable.
func (r *Ring) Buffered() int {
	return int(atomic.LoadUint64(r.tail) - atomic.LoadUint64(r.head))
}

// copyIn copies p into the data area starting at absolute cursor pos,
// wrapping once. Caller has established that the space is free.
func (r *Ring) copyIn(pos uint64, p []byte) {
	off := pos % r.cap
	n := copy(r.data[off:], p)
	if n < len(p) {
		copy(r.data, p[n:])
	}
}

// copyOut copies into p from the data area starting at absolute cursor
// pos, wrapping once. Caller has established that the bytes are readable.
func (r *Ring) copyOut(pos uint64, p []byte) {
	off := pos % r.cap
	n := copy(p, r.data[off:])
	if n < len(p) {
		copy(p[n:], r.data)
	}
}

// WriteRecord publishes one [size u32][tag i64][payload] record atomically:
// either the whole record enters the ring or nothing does (false when free
// space is insufficient). Record and stream modes must not be mixed on one
// ring. Producer side only.
func (r *Ring) WriteRecord(tag int64, p []byte) bool {
	need := recordHeader + len(p)
	if need > int(r.cap) {
		return false // can never fit; caller must bound record sizes
	}
	tail := atomic.LoadUint64(r.tail)
	head := atomic.LoadUint64(r.head)
	if int(r.cap-(tail-head)) < need {
		return false
	}
	var hdr [recordHeader]byte
	putU32(hdr[0:4], uint32(len(p)))
	putU64(hdr[4:12], uint64(tag))
	r.copyIn(tail, hdr[:])
	r.copyIn(tail+recordHeader, p)
	atomic.StoreUint64(r.tail, tail+uint64(need))
	return true
}

// PeekRecord returns the next record's tag and payload size without
// consuming it; ok is false when the ring holds no complete record.
// Consumer side only.
func (r *Ring) PeekRecord() (tag int64, size int, ok bool) {
	head := atomic.LoadUint64(r.head)
	tail := atomic.LoadUint64(r.tail)
	if tail-head < recordHeader {
		return 0, 0, false
	}
	var hdr [recordHeader]byte
	r.copyOut(head, hdr[:])
	return int64(getU64(hdr[4:12])), int(getU32(hdr[0:4])), true
}

// ReadRecord consumes the next record, copying its payload into p, and
// returns the bytes placed: the smaller of the payload and len(p). The whole
// record is consumed even when p is too small to hold it (the caller reports
// truncation). Consumer side only; the caller has established via
// PeekRecord that a record is present.
func (r *Ring) ReadRecord(p []byte) int {
	head := atomic.LoadUint64(r.head)
	var hdr [recordHeader]byte
	r.copyOut(head, hdr[:])
	size := int(getU32(hdr[0:4]))
	n := min(size, len(p))
	r.copyOut(head+recordHeader, p[:n])
	atomic.StoreUint64(r.head, head+recordHeader+uint64(size))
	return n
}

// Byte-order helpers (little endian, matching the tcp frame encoding).
// encoding/binary is avoided here only to keep the record path free of
// bounds-check noise in the hot loop; the layouts are identical.
func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	_ = b[7]
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
