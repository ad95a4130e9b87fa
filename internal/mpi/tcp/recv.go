package tcp

import (
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
)

// readLoop receives the peer's frames on one connection epoch. Every
// header's cumulative ack prunes the retransmit window, data frames pass
// the sequence cursor (duplicates are discarded and re-acked), a bye ends
// the link without a redial.
// Frames are parsed out of the connection's frameReader, so a burst of
// small frames takes one read(2). A payload whose receive is already posted
// lands in the user's buffer: by copy when the read took it along with its
// header (below zeroCopyMin), straight off the socket otherwise. A payload
// with no receive posted is staged in a pooled buffer until the match.
func (lk *link) readLoop(conn net.Conn, epoch int) {
	nd, st, m, p := lk.nd, &lk.st, lk.nd.matcher, lk.peer
	defer nd.wg.Done()
	defer lk.reader.Done()
	in := newFrameReader(conn, func() bool { return !m.zeroCopyPosted(p) })
	for {
		hdr, err := in.header()
		if err != nil {
			lk.broken(epoch, fmt.Errorf("tcp: rank %d reading from %d: %w", nd.rank, p, err), false)
			return
		}
		h, err := parseFrameHeader(hdr)
		if err != nil {
			// A corrupt stream: reconnecting cannot fix it.
			lk.broken(epoch, fmt.Errorf("tcp: rank %d: %w from %d", nd.rank, err, p), true)
			return
		}
		if h.ack > lk.ackSeen {
			lk.ackSeen = h.ack
			lk.ackStream(h.ack)
		}
		switch h.kind {
		case frameAck:
			continue
		case frameBye:
			lk.broken(epoch, errPeerClosed, true)
			return
		}
		// Resolve the sequence cursor BEFORE touching the payload bytes, so
		// an in-order frame can be read straight into the posted receive
		// buffer. The cursor only advances after the full payload has been
		// read — a link break mid-read leaves recvNext untouched and the
		// retransmission re-delivers the same frame.
		cur := lk.recvNext
		switch {
		case h.seq < cur:
			// Idempotent re-delivery: already matched, drain the bytes but
			// re-ack so the sender prunes its window.
			if err := in.discard(h.size); err != nil {
				lk.broken(epoch, fmt.Errorf("tcp: rank %d draining duplicate from %d: %w", nd.rank, p, err), false)
				return
			}
			nd.stats.dupDiscards.Add(1)
			st.noteAck(cur, true)
			continue
		case h.seq > cur:
			lk.broken(epoch, fmt.Errorf("tcp: rank %d: sequence gap from %d: got %d want %d", nd.rank, p, h.seq, cur), true)
			return
		}
		key := matchKey{src: p, tag: h.tag}
		op := m.claim(key)
		var payload []byte
		var opErr error
		if op != nil {
			err, opErr = nd.readIntoOp(in, op, h.size)
		} else {
			// No receive posted yet: stage the payload in a pooled buffer;
			// the match-time copy into the late-posted receive is the single
			// copy of this path, unless the read took the payload along.
			payload = nd.pool.get(h.size)
			var copied int
			if copied, err = in.payload(payload); copied > 0 {
				nd.stats.payloadCopies.Add(1)
			}
		}
		if err != nil {
			// Nothing was delivered and the cursor did not move. A claimed op
			// goes back to the head of its queue so the retransmission (or
			// the pair failure) finds it.
			if op != nil {
				m.unclaim(key, op)
			}
			nd.pool.put(payload)
			lk.broken(epoch, fmt.Errorf("tcp: rank %d reading payload from %d: %w", nd.rank, p, err), false)
			return
		}
		// The ack is recorded before the receive completes, so a reply the
		// receiver sends at once carries it.
		lk.recvNext++
		st.noteAck(lk.recvNext, h.ackReq)
		if op != nil {
			m.complete(op, h.ctx, opErr)
		} else {
			m.deliver(key, payload, h.ctx)
		}
	}
}

// readIntoOp reads a size-byte payload into a claimed receive op. The two
// return values separate the failure domains: sockErr is a connection error
// (the op was not completed, the caller must unclaim it and break the
// link); opErr is a per-operation delivery error (truncation) with the
// stream itself still healthy. Bytes the read took along with the header
// are copied; the rest land straight off the socket, and only a truncation
// drains the excess. TestZeroCopyAliasing checks that a payload behind a
// header read while the op was posted is read into op.buf and nowhere else.
func (nd *node) readIntoOp(in *frameReader, op *recvOp, size int) (sockErr, opErr error) {
	if size <= len(op.buf) {
		copied, err := in.payload(op.buf[:size])
		switch {
		case err != nil:
			return err, nil
		case copied > 0:
			nd.stats.payloadCopies.Add(1)
		case size > 0:
			nd.stats.zeroCopyRecvs.Add(1)
		}
		return nil, nil
	}
	// Truncation: fill what fits, drain the excess to keep the stream
	// parseable, report the same error the copy path would.
	if _, err := in.payload(op.buf); err != nil {
		return err, nil
	}
	if err := in.discard(size - len(op.buf)); err != nil {
		return err, nil
	}
	return nil, fmt.Errorf("tcp: message truncated: receiver buffer %d < %d", len(op.buf), size)
}

// readBufLen sizes a connection's read buffer: room for a burst of small
// frames — the one-byte syncs and 64 B blocks of a per-message-bound
// all-to-all — in one read(2).
const readBufLen = 4096

// frameReader parses one connection's frames out of a small buffer. A read
// takes whatever the connection holds, up to the buffer's end, so a small
// frame's payload, and the frames behind it, arrive with its header. While
// a receive of at least zeroCopyMin bytes from the peer is posted, ahead
// reports false and a read takes no more than the header it completes: a
// large payload behind it is then read off the socket into its posted
// buffer and nowhere else. On a socket, the gate is read when the read(2)
// is issued, not when a blocking read began: a reader parked since the
// mesh came up must not wake holding the head of a large frame whose
// receive was posted while it slept.
type frameReader struct {
	conn net.Conn
	// ahead is the read-ahead gate; nil never reads ahead.
	ahead func() bool
	// raw, for a socket, issues the read(2) itself (a socket without raw
	// access never reads ahead): onReadable runs when the socket is
	// readable, with p, need, n and err as its arguments and results.
	raw        syscall.RawConn
	onReadable func(fd uintptr) bool
	p          []byte
	need, n    int
	err        error
	// buf[r:w] is read but not yet parsed.
	buf  []byte
	r, w int
}

func newFrameReader(conn net.Conn, ahead func() bool) *frameReader {
	in := &frameReader{conn: conn, ahead: ahead, buf: make([]byte, readBufLen)}
	if _, socket := conn.(syscall.Conn); socket {
		if in.raw = socketRaw(conn); in.raw == nil {
			in.ahead = nil
		} else {
			in.onReadable = in.readRaw
		}
	}
	return in
}

// header returns the next frame header. The slice aliases the buffer: it is
// valid until the next call.
func (in *frameReader) header() ([]byte, error) {
	if in.w-in.r < headerLen {
		// Move the partial header to the front, then read the rest.
		in.w = copy(in.buf, in.buf[in.r:in.w])
		in.r = 0
		for in.w < headerLen {
			n, err := in.read(in.buf[in.w:], headerLen-in.w)
			in.w += n
			if err != nil {
				return nil, err
			}
		}
	}
	h := in.buf[in.r : in.r+headerLen]
	in.r += headerLen
	return h, nil
}

// read reads at least one byte into span(p, need).
func (in *frameReader) read(p []byte, need int) (int, error) {
	if in.raw == nil {
		return in.conn.Read(in.span(p, need))
	}
	in.p, in.need = p, need
	if err := in.raw.Read(in.onReadable); err != nil {
		return 0, err
	}
	return in.n, in.err
}

// span is what a read may fill of p, which holds at least need bytes: all
// of it if the gate lets the read run ahead, else need bytes.
func (in *frameReader) span(p []byte, need int) []byte {
	if in.ahead == nil || !in.ahead() {
		return p[:need]
	}
	return p
}

// readRaw is read's readiness callback on a socket: it reads the gate at
// the moment of the read(2), and reports false to wait for data.
func (in *frameReader) readRaw(fd uintptr) bool {
	p := in.span(in.p, in.need)
	for {
		n, err := sysRead(fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return false
		case err != nil:
			in.n, in.err = 0, os.NewSyscallError("read", err)
		case n == 0:
			in.n, in.err = 0, io.EOF
		default:
			in.n, in.err = n, nil
		}
		return true
	}
}

// payload fills dst with the frame's next len(dst) payload bytes: those the
// buffer holds by copy, the rest straight off the connection. It reports
// how many were copied.
func (in *frameReader) payload(dst []byte) (copied int, err error) {
	copied = copy(dst, in.buf[in.r:in.w])
	in.r += copied
	if copied < len(dst) {
		_, err = io.ReadFull(in.conn, dst[copied:])
	}
	return copied, err
}

// discard skips the frame's next n payload bytes.
func (in *frameReader) discard(n int) error {
	k := min(n, in.w-in.r)
	in.r += k
	n -= k
	if n > 0 {
		in.r, in.w = 0, 0
	}
	for n > 0 {
		k, err := in.conn.Read(in.buf[:min(n, len(in.buf))])
		n -= k
		if err != nil {
			return err
		}
	}
	return nil
}
