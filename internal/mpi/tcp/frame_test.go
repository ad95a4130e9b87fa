package tcp

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// rawHeader encodes a header with no validation at all — what a corrupt or
// hostile peer could put on the wire.
func rawHeader(kind byte, tag int64, seq uint64, size int64, ctx uint64) []byte {
	hdr := make([]byte, headerLen)
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(tag))
	binary.LittleEndian.PutUint64(hdr[9:17], seq)
	binary.LittleEndian.PutUint64(hdr[17:25], uint64(size))
	binary.LittleEndian.PutUint64(hdr[25:33], ctx)
	return hdr
}

// FuzzFrameHeader drives the one frame-header decoder with arbitrary bytes.
// It must never panic; whatever it accepts must be something a sender of
// this package could have written (known kind, payload length in range,
// control frames bare) and must re-encode to the very same bytes.
func FuzzFrameHeader(f *testing.F) {
	f.Add(rawHeader(frameData, 5, 0, 4096, 0))
	f.Add(rawHeader(frameAck, 0, 17, 0, 0))
	f.Add(rawHeader(frameBye, 0, 0, 0, 0))
	f.Add(rawHeader(frameData, 1, 2, -1, 0))                // negative size
	f.Add(rawHeader(frameData, 1, 2, maxFramePayload+1, 0)) // oversized
	f.Add(rawHeader(7, 1, 2, 8, 0))                         // unknown kind
	f.Add(rawHeader(frameAck, 0, 9, 64, 0))                 // ack carrying a length
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < headerLen {
			return
		}
		hdr := data[:headerLen]
		h, err := parseFrameHeader(hdr)
		if err != nil {
			return
		}
		if h.kind > frameBye || h.size < 0 || h.size > maxFramePayload || (h.kind != frameData && h.size != 0) {
			t.Fatalf("accepted a header no sender writes: %+v", h)
		}
		var again [headerLen]byte
		putFrameHeader(again[:], h.kind, h.tag, h.seq, h.size, h.ctx)
		if !bytes.Equal(again[:], hdr) {
			t.Fatalf("decode/encode round trip changed the header: % x -> % x", hdr, again)
		}
	})
}

// TestBadFrameKindFailsTyped feeds a rank a header with an unknown kind
// byte, as a corrupt peer would: the pair must fail closed with an error
// that names the reader, the kind and the peer — in that order — instead of
// trusting the length that follows.
func TestBadFrameKindFailsTyped(t *testing.T) {
	comms, closeWorld, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld()
	pending := mpi.Irecv(comms[0], make([]byte, 8), 1, 3)
	// Rank 1's stream toward 0 is idle, so the raw write cannot interleave
	// with a frame of its writer.
	conn, _, err := comms[1].(*node).links[0].acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(rawHeader(7, 3, 0, 8, 0)); err != nil {
		t.Fatal(err)
	}
	err = mpi.WaitTimeout(pending, 5*time.Second)
	re, ok := mpi.AsRankError(err)
	if !ok || re.Rank != 1 {
		t.Fatalf("receive behind a corrupt frame: got %v, want RankError{Rank: 1}", err)
	}
	if want := "tcp: rank 0: unknown frame kind 7 from 1"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not say %q", err, want)
	}
	// Rank 0 has given the pair up; rank 1 only sees a closed socket. Its
	// redials must go unanswered and run out, not be adopted forever.
	wantRankError(t, "receive from the rank that gave up", mpi.Irecv(comms[1], make([]byte, 8), 0, 3), 0, 5*time.Second)
	wantRankError(t, "send toward it", mpi.Isend(comms[1], make([]byte, 4096), 0, 4), 0, time.Second)
	if s := comms[1].(*node).TransportStats(); s.Reconnects != 0 {
		t.Fatalf("%d reconnects to a link that is down for good", s.Reconnects)
	}
}
