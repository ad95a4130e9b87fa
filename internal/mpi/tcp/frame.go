package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Frame wire format: kind (1 byte) | tag (int64) | seq (uint64) |
// payload length (int64) | trace ctx (uint64) | ack (uint64) | payload.
// Every frame carries the sender's cumulative ack in ack: every data frame
// of the opposite direction with a smaller sequence number has been
// delivered. A data frame's kind byte may carry frameAckReq, asking the
// receiver to return that ack promptly, in an ack frame of its own when it
// has no data frame to carry it. An ack frame is a bare header whose only
// value is ack (tag, seq and ctx 0); a bye frame is a bare header, the last
// thing a closing rank writes on a link. The trace context is an opaque
// causal identifier (mpi.MakeTraceCtx) handed to the matching receiver;
// retransmissions repeat the original frame, context and ack request
// included, and the duplicate-discard below the matcher keeps
// re-deliveries from ever reaching a receive twice.
const headerLen = 41

const (
	frameData byte = 0
	frameAck  byte = 1
	frameBye  byte = 2
	// frameAckReq is the kind byte's ack-request flag, valid on data frames
	// only.
	frameAckReq byte = 0x80
)

const maxFramePayload = 1 << 30

// frameHeader is a decoded frame header.
type frameHeader struct {
	kind   byte
	ackReq bool
	tag    int
	seq    uint64
	size   int
	ctx    uint64
	ack    uint64
}

// parseFrameHeader is the one decoder of what a peer puts on the wire. It
// rejects whatever no sender of this package emits — an unknown kind, a
// negative or oversized length, a control frame claiming a payload or
// asking for an ack — so the read loop never sizes a buffer from, or skips
// bytes on the word of, a corrupt or hostile stream.
func parseFrameHeader(hdr []byte) (frameHeader, error) {
	h := frameHeader{
		kind:   hdr[0] &^ frameAckReq,
		ackReq: hdr[0]&frameAckReq != 0,
		tag:    int(int64(binary.LittleEndian.Uint64(hdr[1:9]))),
		seq:    binary.LittleEndian.Uint64(hdr[9:17]),
		size:   int(int64(binary.LittleEndian.Uint64(hdr[17:25]))),
		ctx:    binary.LittleEndian.Uint64(hdr[25:33]),
		ack:    binary.LittleEndian.Uint64(hdr[33:41]),
	}
	switch {
	case h.kind > frameBye:
		return h, fmt.Errorf("unknown frame kind %d", h.kind)
	case h.size < 0 || h.size > maxFramePayload:
		return h, fmt.Errorf("bad frame size %d", h.size)
	case h.kind != frameData && h.size != 0:
		return h, fmt.Errorf("control frame (kind %d) with a %d-byte payload", h.kind, h.size)
	case h.kind != frameData && h.ackReq:
		return h, fmt.Errorf("control frame (kind %d) asking for an ack", h.kind)
	}
	return h, nil
}

// putFrameHeader encodes h into hdr (headerLen bytes).
func putFrameHeader(hdr []byte, h frameHeader) {
	hdr[0] = h.kind
	if h.ackReq {
		hdr[0] |= frameAckReq
	}
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(int64(h.tag)))
	binary.LittleEndian.PutUint64(hdr[9:17], h.seq)
	binary.LittleEndian.PutUint64(hdr[17:25], uint64(int64(h.size)))
	binary.LittleEndian.PutUint64(hdr[25:33], h.ctx)
	binary.LittleEndian.PutUint64(hdr[33:41], h.ack)
}

// appendFrame lays one data frame out for a vectored write: the header,
// carrying the cumulative ack, is encoded into hdr (headerLen bytes of the
// caller's arena), then hdr and the payload are appended to iov. The
// payload rides the iovec list by reference into writev.
func appendFrame(iov net.Buffers, hdr []byte, fr *outFrame, ack uint64) net.Buffers {
	putFrameHeader(hdr, frameHeader{
		kind: frameData, ackReq: fr.ackReq,
		tag: fr.tag, seq: fr.seq, size: fr.size, ctx: fr.ctx, ack: ack,
	})
	iov = append(iov, hdr)
	if len(fr.buf) > 0 {
		iov = append(iov, fr.buf)
	}
	return iov
}

// frameHeaders returns an n-frame header arena, reusing hdrs once it has
// grown to the high-water batch size.
func frameHeaders(hdrs []byte, n int) []byte {
	if cap(hdrs) < n*headerLen {
		return make([]byte, n*headerLen)
	}
	return hdrs[:n*headerLen]
}

// Pair handshake, the first bytes on every socket a rank dials: from
// (uint32) | to (uint32) | flags (uint32). hsInitial opens the pair's first
// connection; hsReconnect replaces a broken one, and the accepting rank
// echoes it back (from and to swapped) once it has let go of the old socket.
const (
	handshakeLen        = 12
	hsInitial    uint32 = 0
	hsReconnect  uint32 = 1
)

func writeHandshake(conn net.Conn, from, to int, flags uint32) error {
	var hdr [handshakeLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(from))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(to))
	binary.LittleEndian.PutUint32(hdr[8:12], flags)
	_, err := conn.Write(hdr[:])
	return err
}

// readHandshake reads one handshake, giving the peer d to produce it.
func readHandshake(conn net.Conn, d time.Duration) (from, to int, flags uint32, err error) {
	var hdr [handshakeLen]byte
	conn.SetReadDeadline(time.Now().Add(d))
	_, err = io.ReadFull(conn, hdr[:])
	conn.SetReadDeadline(time.Time{})
	from = int(binary.LittleEndian.Uint32(hdr[0:4]))
	to = int(binary.LittleEndian.Uint32(hdr[4:8]))
	return from, to, binary.LittleEndian.Uint32(hdr[8:12]), err
}
