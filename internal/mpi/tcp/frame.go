package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Frame wire format: kind (1 byte) | tag (int64) | seq (uint64) |
// payload length (int64) | trace ctx (uint64) | payload. Ack frames carry
// the cumulative ack in seq (every data frame with a smaller sequence
// number has been delivered) and no payload or trace context (ctx 0); a bye
// frame is a bare header, the last thing a closing rank writes on a link.
// The trace context is an opaque causal identifier (mpi.MakeTraceCtx)
// handed to the matching receiver; retransmissions repeat the original
// frame verbatim, context included, and the duplicate-discard below the
// matcher keeps re-deliveries from ever reaching a receive twice.
const headerLen = 33

const (
	frameData byte = 0
	frameAck  byte = 1
	frameBye  byte = 2
)

const maxFramePayload = 1 << 30

// frameHeader is a decoded frame header.
type frameHeader struct {
	kind byte
	tag  int
	seq  uint64
	size int
	ctx  uint64
}

// parseFrameHeader is the one decoder of what a peer puts on the wire. It
// rejects whatever no sender of this package emits — an unknown kind, a
// negative or oversized length, a control frame claiming a payload — so the
// read loop never sizes a buffer from, or skips bytes on the word of, a
// corrupt or hostile stream.
func parseFrameHeader(hdr []byte) (frameHeader, error) {
	h := frameHeader{
		kind: hdr[0],
		tag:  int(int64(binary.LittleEndian.Uint64(hdr[1:9]))),
		seq:  binary.LittleEndian.Uint64(hdr[9:17]),
		size: int(int64(binary.LittleEndian.Uint64(hdr[17:25]))),
		ctx:  binary.LittleEndian.Uint64(hdr[25:33]),
	}
	switch {
	case h.kind > frameBye:
		return h, fmt.Errorf("unknown frame kind %d", h.kind)
	case h.size < 0 || h.size > maxFramePayload:
		return h, fmt.Errorf("bad frame size %d", h.size)
	case h.kind != frameData && h.size != 0:
		return h, fmt.Errorf("control frame (kind %d) with a %d-byte payload", h.kind, h.size)
	}
	return h, nil
}

// putFrameHeader encodes a header into hdr (headerLen bytes).
func putFrameHeader(hdr []byte, kind byte, tag int, seq uint64, size int, ctx uint64) {
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(int64(tag)))
	binary.LittleEndian.PutUint64(hdr[9:17], seq)
	binary.LittleEndian.PutUint64(hdr[17:25], uint64(int64(size)))
	binary.LittleEndian.PutUint64(hdr[25:33], ctx)
}

// appendFrame lays one data frame out for a vectored write: the header is
// encoded into hdr (headerLen bytes of the caller's arena), then hdr and the
// payload are appended to iov. The payload rides the iovec list by reference
// into writev.
func appendFrame(iov net.Buffers, hdr []byte, fr *outFrame) net.Buffers {
	putFrameHeader(hdr, frameData, fr.tag, fr.seq, fr.size, fr.ctx)
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
