package shm

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// TestRingRecordSPSC is the record-mode counterpart: one producer and one
// consumer goroutine pass 20,000 records through a ring, and the consumer
// checks every tag, size and payload byte. A cursor published before its
// side is done with the bytes lets the other side overwrite or read them
// mid-copy, which corrupts a payload here; under the race detector the test
// also fails any cursor access that bypasses sync/atomic. Each case shapes
// the traffic differently:
//   - mixed: random sizes, empty ones included, through a 257-byte ring, so
//     records wrap its end at every offset;
//   - full: every record fills the ring, so each write waits for the ring
//     to drain completely and each read frees the whole ring;
//   - many-small: sizes up to 64 bytes in a 4096-byte ring, so dozens of
//     records are in flight and the producer writes while the consumer reads.
func TestRingRecordSPSC(t *testing.T) {
	cases := []struct {
		name    string
		dataCap int
		size    func(rng *rand.Rand, full int) int // full: a ring-sized payload
	}{
		{"mixed", 257, func(rng *rand.Rand, full int) int { return rng.Intn(full + 1) }},
		{"full", 257, func(_ *rand.Rand, full int) int { return full }},
		{"many-small", 4096, func(rng *rand.Rand, _ int) int { return rng.Intn(65) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing(tc.dataCap)
			full := int(r.cap) - recordHeader
			// Both sides draw the same size sequence from their own source.
			sizes := func() func() int {
				rng := rand.New(rand.NewSource(11))
				return func() int { return tc.size(rng, full) }
			}
			recordSPSC(t, r, 20000, sizes, full)
		})
	}
}

// recordSPSC runs records through r from a producer goroutine and checks
// them on the calling goroutine. sizes returns a fresh, deterministic size
// sequence; no size exceeds maxPayload.
func recordSPSC(t *testing.T, r *Ring, records int, sizes func() func() int, maxPayload int) {
	tagOf := func(i int) int64 { return int64(uint64(i+1) * 0x9E3779B97F4A7C15) }
	fill := func(p []byte, i int) {
		for j := range p {
			p[j] = byte(i*31 + j)
		}
	}
	defer r.Close() // stops the producer if the consumer fails
	go func() {
		next := sizes()
		src := make([]byte, maxPayload)
		for i := 0; i < records; i++ {
			p := src[:next()]
			fill(p, i)
			for !r.WriteRecord(tagOf(i), p) {
				if r.Closed() {
					return
				}
				runtime.Gosched()
			}
		}
	}()
	next := sizes()
	got, want := make([]byte, maxPayload), make([]byte, maxPayload)
	for i := 0; i < records; i++ {
		tag, size, ok := r.PeekRecord()
		for !ok {
			runtime.Gosched()
			tag, size, ok = r.PeekRecord()
		}
		if n := next(); tag != tagOf(i) || size != n {
			t.Fatalf("record %d: peek = (%#x, %d), want (%#x, %d)", i, tag, size, tagOf(i), n)
		}
		if placed := r.ReadRecord(got[:size]); placed != size {
			t.Fatalf("record %d: read placed %d of %d bytes", i, placed, size)
		}
		fill(want[:size], i)
		if !bytes.Equal(got[:size], want[:size]) {
			t.Fatalf("record %d: payload corrupted through ring", i)
		}
	}
	if n := r.Buffered(); n != 0 {
		t.Fatalf("%d bytes left in the drained ring", n)
	}
}

// Ring record scripts: after one capacity byte, each (op, arg) byte pair is
// a WriteRecord of an arg-byte payload, a PeekRecord, or a PeekRecord then
// ReadRecord into an arg-byte buffer (op taken modulo 3).
const (
	opWrite byte = iota
	opPeek
	opRead
)

// ringScripts are the ring's record cases, run by TestRingRecords and
// seeded into FuzzRingRecord's corpus.
var ringScripts = map[string][]byte{
	// A record larger than the ring is refused; the rest, an empty one
	// included, come out in order.
	"order": {64, opWrite, 64, opWrite, 5, opWrite, 0, opWrite, 4, opRead, 5, opPeek, 0, opRead, 0, opRead, 4, opPeek, 0},
	// The second record wraps the ring's end.
	"wrap": {100, opWrite, 60, opRead, 60, opWrite, 32, opPeek, 0, opRead, 32},
	// A receive smaller than the record places its prefix and consumes the
	// whole record.
	"truncate": {128, opWrite, 10, opRead, 4},
	// A full ring refuses a record without disturbing those it holds, and
	// takes it once a read frees the space.
	"full": {64, opWrite, 30, opWrite, 30, opRead, 200, opWrite, 30, opWrite, 8, opRead, 30, opRead, 8},
}

// TestRingRecords checks record-mode framing on the scripted cases.
func TestRingRecords(t *testing.T) {
	for name, script := range ringScripts {
		t.Run(name, func(t *testing.T) { runRingScript(t, script) })
	}
}

// FuzzRingRecord runs arbitrary record scripts against the ring.
func FuzzRingRecord(f *testing.F) {
	for _, script := range ringScripts {
		f.Add(script)
	}
	f.Fuzz(runRingScript)
}

// runRingScript plays a record script on a ring of at most 255 data bytes,
// so records wrap, and checks every call against a FIFO model of the
// records the ring holds: a write is accepted exactly when the record fits
// in the free space, peeks and reads see the records in write order, a read
// places min(receive, payload) bytes equal to the payload's prefix, and
// Buffered() tracks the model, returning to 0 once the ring is drained.
func runRingScript(t *testing.T, script []byte) {
	if len(script) == 0 {
		return
	}
	r := NewRing(max(int(script[0]), recordHeader+1))
	type record struct {
		tag     int64
		payload []byte
	}
	var held []record
	used, writes := 0, 0
	read := func(size int) {
		t.Helper()
		tag, n, ok := r.PeekRecord()
		if ok != (len(held) > 0) {
			t.Fatalf("peek ok = %v with %d records held", ok, len(held))
		}
		if !ok {
			return
		}
		want := held[0]
		if tag != want.tag || n != len(want.payload) {
			t.Fatalf("peek = (%#x, %d), want (%#x, %d)", tag, n, want.tag, len(want.payload))
		}
		if size < 0 {
			return
		}
		buf := bytes.Repeat([]byte{0xEE}, size)
		placed := r.ReadRecord(buf)
		if placed != min(size, n) || !bytes.Equal(buf[:placed], want.payload[:placed]) {
			t.Fatalf("read of a %d-byte record into %d bytes placed %d: % x", n, size, placed, buf[:placed])
		}
		if bytes.Count(buf[placed:], []byte{0xEE}) != size-placed {
			t.Fatalf("read wrote past the %d bytes it placed", placed)
		}
		held, used = held[1:], used-recordHeader-n
	}
	for ops := script[1:]; len(ops) >= 2; ops = ops[2:] {
		arg := int(ops[1])
		switch ops[0] % 3 {
		case opWrite:
			writes++
			rec := record{tag: int64(uint64(writes) * 0x9E3779B97F4A7C15), payload: make([]byte, arg)}
			for i := range rec.payload {
				rec.payload[i] = byte(writes + i)
			}
			fits := used+recordHeader+arg <= int(r.cap)
			if ok := r.WriteRecord(rec.tag, rec.payload); ok != fits {
				t.Fatalf("write of %d bytes with %d of %d used: ok = %v", arg, used, r.cap, ok)
			}
			if fits {
				held, used = append(held, rec), used+recordHeader+arg
			}
		case opPeek:
			read(-1)
		case opRead:
			read(arg)
		}
		if r.Buffered() != used {
			t.Fatalf("Buffered() = %d, model holds %d", r.Buffered(), used)
		}
	}
	for len(held) > 0 {
		read(len(held[0].payload))
	}
	if r.Buffered() != 0 {
		t.Fatalf("drained ring has %d bytes buffered", r.Buffered())
	}
}
