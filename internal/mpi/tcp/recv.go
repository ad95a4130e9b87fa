package tcp

import (
	"fmt"
	"io"
	"net"
)

// readLoop receives the peer's frames on one connection epoch. Every
// header's cumulative ack prunes the retransmit window, data frames pass
// the sequence cursor (duplicates are discarded and re-acked), a bye ends
// the link without a redial.
// A payload whose receive is already posted is read straight into the
// user's buffer; otherwise it is staged in a pooled buffer until the match.
func (lk *link) readLoop(conn net.Conn, epoch int) {
	nd, st, m, p := lk.nd, &lk.st, lk.nd.matcher, lk.peer
	defer nd.wg.Done()
	defer lk.reader.Done()
	// hdr escapes through the net.Conn interface; declaring it outside the
	// loop costs one heap allocation per connection instead of one per frame.
	var hdr [headerLen]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			lk.broken(epoch, fmt.Errorf("tcp: rank %d reading from %d: %w", nd.rank, p, err), false)
			return
		}
		h, err := parseFrameHeader(hdr[:])
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
			if _, err := io.CopyN(io.Discard, conn, int64(h.size)); err != nil {
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
			// Zero-copy placement: the receive is already posted, so the
			// payload is read off the socket directly into its buffer.
			err, opErr = nd.readIntoOp(conn, op, h.size)
		} else {
			// No receive posted yet: stage the payload in a pooled buffer;
			// the match-time copy into the late-posted receive is the single
			// copy of this path.
			payload = nd.pool.get(h.size)
			_, err = io.ReadFull(conn, payload)
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

// readIntoOp reads a size-byte payload off the socket straight into a
// claimed receive op. The two return values separate the failure domains:
// sockErr is a connection error (the op was not completed, the caller must
// unclaim it and break the link); opErr is a per-operation delivery error
// (truncation) with the stream itself still healthy. The payload lands
// straight off the socket; only a truncation drains the excess.
// TestZeroCopyAliasing checks that a payload that fits is read into op.buf
// and nowhere else.
func (nd *node) readIntoOp(conn net.Conn, op *recvOp, size int) (sockErr, opErr error) {
	if size <= len(op.buf) {
		if _, err := io.ReadFull(conn, op.buf[:size]); err != nil {
			return err, nil
		}
		if size > 0 {
			nd.stats.zeroCopyRecvs.Add(1)
		}
		return nil, nil
	}
	// Truncation: fill what fits, drain the excess to keep the stream
	// parseable, report the same error the copy path would.
	if _, err := io.ReadFull(conn, op.buf); err != nil {
		return err, nil
	}
	if _, err := io.CopyN(io.Discard, conn, int64(size-len(op.buf))); err != nil {
		return err, nil
	}
	return nil, fmt.Errorf("tcp: message truncated: receiver buffer %d < %d", len(op.buf), size)
}
