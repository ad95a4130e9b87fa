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
// hostile peer could put on the wire. kind is the raw kind byte, ack-request
// flag included.
func rawHeader(kind byte, tag int64, seq uint64, size int64, ctx, ack uint64) []byte {
	hdr := make([]byte, headerLen)
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(tag))
	binary.LittleEndian.PutUint64(hdr[9:17], seq)
	binary.LittleEndian.PutUint64(hdr[17:25], uint64(size))
	binary.LittleEndian.PutUint64(hdr[25:33], ctx)
	binary.LittleEndian.PutUint64(hdr[33:41], ack)
	return hdr
}

// frameHeaderCases are the scripted decoder cases, and FuzzFrameHeader's
// seeds: what each sender of this package writes, and the headers the
// decoder must refuse.
var frameHeaderCases = []struct {
	name string
	hdr  []byte
	ok   bool
}{
	{"data", rawHeader(frameData, 5, 0, 4096, 0, 0), true},
	{"data acking and asking", rawHeader(frameData|frameAckReq, 5, 3, 64, 11, 17), true},
	{"ack", rawHeader(frameAck, 0, 0, 0, 0, 17), true},
	{"bye", rawHeader(frameBye, 0, 0, 0, 0, 0), true},
	{"negative size", rawHeader(frameData, 1, 2, -1, 0, 0), false},
	{"oversized", rawHeader(frameData, 1, 2, maxFramePayload+1, 0, 0), false},
	{"unknown kind", rawHeader(7, 1, 2, 8, 0, 0), false},
	{"unknown kind asking", rawHeader(7|frameAckReq, 1, 2, 8, 0, 0), false},
	{"ack carrying a length", rawHeader(frameAck, 0, 0, 64, 0, 9), false},
	{"ack asking for an ack", rawHeader(frameAck|frameAckReq, 0, 0, 0, 0, 17), false},
	{"bye asking for an ack", rawHeader(frameBye|frameAckReq, 0, 0, 0, 0, 0), false},
}

// TestFrameHeaderCases runs the scripted cases: the accepted headers decode
// to their fields, the others are refused.
func TestFrameHeaderCases(t *testing.T) {
	for _, c := range frameHeaderCases {
		h, err := parseFrameHeader(c.hdr)
		if (err == nil) != c.ok {
			t.Errorf("%s: parseFrameHeader = %+v, %v; want accepted %v", c.name, h, err, c.ok)
		}
	}
	h, err := parseFrameHeader(frameHeaderCases[1].hdr)
	want := frameHeader{kind: frameData, ackReq: true, tag: 5, seq: 3, size: 64, ctx: 11, ack: 17}
	if err != nil || h != want {
		t.Errorf("data acking and asking decoded to %+v, %v; want %+v", h, err, want)
	}
}

// FuzzFrameHeader drives the one frame-header decoder with arbitrary bytes.
// It must never panic; whatever it accepts must be something a sender of
// this package could have written (known kind, payload length in range,
// control frames bare and not asking for an ack) and must re-encode to the
// very same bytes, ack-request flag and ack included.
func FuzzFrameHeader(f *testing.F) {
	for _, c := range frameHeaderCases {
		f.Add(c.hdr)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < headerLen {
			return
		}
		hdr := data[:headerLen]
		h, err := parseFrameHeader(hdr)
		if err != nil {
			return
		}
		if h.kind > frameBye || h.size < 0 || h.size > maxFramePayload || (h.kind != frameData && (h.size != 0 || h.ackReq)) {
			t.Fatalf("accepted a header no sender writes: %+v", h)
		}
		var again [headerLen]byte
		putFrameHeader(again[:], h)
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
	if _, err := conn.Write(rawHeader(7, 3, 0, 8, 0, 0)); err != nil {
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
