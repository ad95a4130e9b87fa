package shm

import (
	"errors"
	"io"
	"os"
	"testing"
	"time"
)

// fuzzRingBytes is the data capacity of each ring of a fuzzed pair segment.
const fuzzRingBytes = 64

// pairSeed lays out a pair segment whose two rings carry the given cursor
// and closed words, [tail, head, closed] per ring, lo→hi first.
func pairSeed(words [2][3]uint64) []byte {
	seg := make([]byte, pairSegmentSize(fuzzRingBytes))
	ringSeg := headerBytes + fuzzRingBytes
	for r, ws := range words {
		for i, w := range ws {
			off := pairHeader + r*ringSeg + 8*i
			putU64(seg[off:off+8], w)
		}
	}
	return seg
}

// FuzzPairSegment fills a pair segment — cursor and closed words included —
// with what a broken or hostile co-located peer could leave in /dev/shm,
// attaches both sides to it and reads and writes through each under a 1 ms
// deadline. Neither call may panic; a read places at most what was asked
// for and never more than a ring holds; a write reports success only with
// every byte taken, and a ring takes no more than it holds; and every error
// is EOF, a closed pipe or the deadline.
func FuzzPairSegment(f *testing.F) {
	f.Add(pairSeed([2][3]uint64{}), uint16(16), uint16(16))
	f.Add(pairSeed([2][3]uint64{{40, 8, 0}, {100, 90, 0}}), uint16(64), uint16(32))
	f.Add(pairSeed([2][3]uint64{{1 << 20, 0, 0}, {0, 1 << 20, 0}}), uint16(1000), uint16(1000))
	f.Add(pairSeed([2][3]uint64{{0, 1 << 40, 0}, {1 << 63, 5, 0}}), uint16(200), uint16(8))
	f.Add(pairSeed([2][3]uint64{{10, 0, 1}, {0, 0, 1}}), uint16(4), uint16(4))
	f.Fuzz(func(t *testing.T, raw []byte, nRead, nWrite uint16) {
		seg := NewSegment(pairSegmentSize(fuzzRingBytes))
		copy(seg, raw)
		loToHi, hiToLo, err := attachPair(seg, fuzzRingBytes)
		if err != nil {
			t.Fatalf("attaching an aligned segment of the right size: %v", err)
		}
		for _, c := range []*Conn{NewConn(hiToLo, loToHi, "lo", "hi"), NewConn(loToHi, hiToLo, "hi", "lo")} {
			c.SetDeadline(time.Now().Add(time.Millisecond))
			p := make([]byte, nRead)
			n, err := c.Read(p)
			if n < 0 || n > len(p) || n > int(c.rx.cap) {
				t.Fatalf("Read into %d bytes from a %d-byte ring returned %d", len(p), c.rx.cap, n)
			}
			checkPairErr(t, "Read", err)
			w, err := c.Write(make([]byte, nWrite))
			if w < 0 || w > int(nWrite) || (err == nil && w != int(nWrite)) {
				t.Fatalf("Write of %d bytes returned %d, %v", nWrite, w, err)
			}
			checkPairErr(t, "Write", err)
			if n := c.tx.TryWrite(make([]byte, 2*fuzzRingBytes)); n > fuzzRingBytes {
				t.Fatalf("a %d-byte ring took %d bytes", fuzzRingBytes, n)
			}
		}
	})
}

// checkPairErr fails unless err is nil, EOF, a closed pipe or an expired
// deadline.
func checkPairErr(t *testing.T, op string, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: unexpected error %v", op, err)
	}
}
