package tcp

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// Link states. A link is born connecting: its first socket arrives the way
// a broken one's replacement does.
const (
	linkConnecting = iota
	linkUp
	linkDown
)

const (
	// redialTimeout bounds one redial attempt: the dial and the wait for the
	// accepting rank's handshake echo.
	redialTimeout = 2 * time.Second
	// closeLinger bounds a closing rank's patience: its streams drain and its
	// peers answer the goodbye within it, or the links are just closed.
	closeLinger = 2 * time.Second
)

// link is one rank's end of its connection to one peer: the socket end, its
// lifecycle state, and the outbound stream that rides it.
// The two ends of a pair run this same state machine, each over its own
// end, and meet only on the wire — never in memory — so they can live in
// different processes. epoch increments every time a fresh connection is
// installed, so a stale reader or writer can tell it raced a replacement.
//
// Lock order: adopting → mu → st.mu → pool class mu, never the reverse.
// adopt holds adopting across broken and install, which take mu; install
// holds mu across st.rewind, which takes st.mu; isend and the ack path hold
// st.mu while the pool's get and put take a class lock. downLocked releases
// mu before it takes st.mu, and releases st.mu before matcher.fail.
// matcher.mu is a leaf taken with none of these held: the read loop
// claims, delivers and unclaims with no lock, and deliver and post drop
// matcher.mu before finish returns the payload to the pool.
type link struct {
	nd   *node
	peer int

	mu    sync.Mutex
	cond  *sync.Cond
	epoch int
	conn  net.Conn
	state int
	// err is why the link went down.
	err error
	// giveUp ends the lower rank's wait for the peer's dial; it is stopped
	// when the link leaves linkConnecting.
	giveUp *time.Timer
	// adopting serialises the adoptions of the peer's dials: a dial the peer
	// has already abandoned for a newer one must not race it.
	adopting sync.Mutex
	// reader tracks this end's live read loop. A fresh connection is
	// installed only after the old epoch's reader has exited (its socket is
	// already closed), so at most one reader ever processes the link's frames
	// and recvNext — the next sequence number expected FROM the peer, advanced
	// only after a payload has landed in user memory — is the reader's alone.
	// So is ackSeen, the largest cumulative ack the peer's headers have
	// carried: only a larger one is worth a pass over the retransmit window.
	reader   sync.WaitGroup
	recvNext uint64
	ackSeen  uint64

	st sendStream
	// batch is the writer's scratch. Its frames are written under st.mu
	// (collect, releaseBatch), so a holder of st.mu may read them.
	batch writeBatch
}

// acquire returns the current connection, blocking while the link is
// connecting, or why the link is down for good.
func (lk *link) acquire() (net.Conn, int, error) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	for lk.state == linkConnecting {
		lk.cond.Wait()
	}
	return lk.conn, lk.epoch, lk.err
}

// setStateLocked moves the link out of linkConnecting, waking writers
// blocked in acquire and ending the wait for a dial. Caller holds lk.mu.
func (lk *link) setStateLocked(state int) {
	lk.state = state
	if lk.giveUp != nil {
		lk.giveUp.Stop()
	}
	lk.cond.Broadcast()
}

// downLocked takes the link down for good and fails this end of the pair —
// its outbound stream and every receive naming the peer — blaming rank. The
// caller holds lk.mu, which downLocked releases. Taking a down link down
// again changes nothing: the first cause sticks.
func (lk *link) downLocked(rank int, cause error) {
	if lk.conn != nil {
		lk.conn.Close()
	}
	if lk.state != linkDown {
		lk.err = &mpi.RankError{Rank: rank, Err: cause}
		lk.setStateLocked(linkDown)
	}
	err := lk.err
	lk.mu.Unlock()
	lk.st.mu.Lock()
	lk.failStreamLocked(err)
	lk.st.mu.Unlock()
	lk.nd.matcher.fail(lk.peer, err)
}

// down takes the link down whatever state it is in: a kill, a close.
func (lk *link) down(rank int, cause error) {
	lk.mu.Lock()
	lk.downLocked(rank, cause)
}

// anyEpoch, passed to broken, means the link's current epoch, whichever.
const anyEpoch = -1

// broken handles a connection error seen on the given epoch. A protocol
// violation or a peer's goodbye (fatal) and a closing rank fail the pair;
// any other break is transient — the pair's higher rank redials, its lower
// rank waits to adopt the fresh socket, and both retransmit what was not
// acknowledged.
func (lk *link) broken(epoch int, cause error, fatal bool) {
	nd := lk.nd
	lk.mu.Lock()
	if lk.state != linkUp || (lk.epoch != epoch && epoch != anyEpoch) {
		lk.mu.Unlock()
		return
	}
	if fatal || nd.ctx.Err() != nil {
		lk.downLocked(lk.peer, cause)
		return
	}
	lk.conn.Close()
	lk.state = linkConnecting
	if nd.rank < lk.peer {
		// The peer's whole backoff schedule without a redial: it is gone.
		w := nd.cfg.Res.window()
		lk.expectDialLocked(w, fmt.Errorf("tcp: rank %d did not redial within %v: %w", lk.peer, w, cause))
	} else {
		nd.wg.Add(1) // under lk.mu: shutdown takes it after cancelling ctx, so it waits for this
		go lk.redial(lk.epoch, cause)
	}
	lk.mu.Unlock()
}

// expectDialLocked gives the peer, the pair's higher rank, d to dial this
// connecting link — adopt takes the dial — before the link fails with err.
// Caller holds lk.mu.
func (lk *link) expectDialLocked(d time.Duration, err error) {
	epoch := lk.epoch
	lk.giveUp = time.AfterFunc(d, func() { lk.connectFailed(epoch, err) })
}

// redial brings the higher rank's link, broken at epoch, back — exponential
// backoff + jitter between attempts — or fails it.
func (lk *link) redial(epoch int, cause error) {
	nd, res := lk.nd, lk.nd.cfg.Res
	defer nd.wg.Done()
	for attempt := 0; attempt < res.MaxReconnects; attempt++ {
		d := res.delay(attempt)
		if res.Jitter > 0 {
			d = time.Duration(float64(d) * (1 + res.Jitter*(2*rand.Float64()-1)))
		}
		nd.stats.backoffSleeps.Add(1)
		nd.stats.backoffNanos.Add(uint64(d))
		select {
		case <-time.After(d):
		case <-nd.ctx.Done():
			lk.connectFailed(epoch, errClosed)
			return
		}
		conn, err := lk.dial(hsReconnect, redialTimeout)
		if err != nil {
			cause = err
			continue
		}
		if lk.install(conn) {
			nd.stats.reconnects.Add(1)
		}
		return
	}
	lk.connectFailed(epoch, fmt.Errorf("tcp: pair (%d,%d) reconnect failed after %d attempts: %w",
		lk.peer, nd.rank, res.MaxReconnects, cause))
}

// connectFailed gives up on the connection awaited since epoch — unless the
// link left linkConnecting meanwhile (the give-up raced an adoption, a kill).
func (lk *link) connectFailed(epoch int, err error) {
	lk.mu.Lock()
	if lk.state != linkConnecting || lk.epoch != epoch {
		lk.mu.Unlock()
		return
	}
	if epoch > 0 { // a mesh that never came up is not a failed reconnect
		lk.nd.stats.reconnectFailures.Add(1)
	}
	lk.downLocked(lk.peer, err)
}

// dial opens a socket to the peer's listener and says who is calling and
// why (flags). A redial also waits for the echo that says the peer has let
// go of the old socket and taken this one; the mesh's first dials do not pay
// that round trip — a peer that never reads them shows on first use. The
// mesh and every redial go through here.
func (lk *link) dial(flags uint32, timeout time.Duration) (net.Conn, error) {
	nd := lk.nd
	conn, err := net.DialTimeout("tcp", nd.addrs[lk.peer], timeout)
	if err != nil {
		return nil, fmt.Errorf("tcp: rank %d dialing %d: %w", nd.rank, lk.peer, err)
	}
	tuneConn(conn)
	if err = writeHandshake(conn, nd.rank, lk.peer, flags); err == nil && flags == hsReconnect {
		_, _, _, err = readHandshake(conn, timeout) // the echo
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcp: rank %d: handshake with %d: %w", nd.rank, lk.peer, err)
	}
	return conn, nil
}

// adopt is the accepting side of a dial: the pair's higher rank has opened a
// fresh socket. If it is a redial this end may not have noticed the break
// yet — then the redial is the notice — and is owed an echo, which goes out
// before install wakes this end's writer, so it is the first thing the
// dialer reads. A link that is not waiting for a connection (it is down for
// good) closes the socket unanswered: the dialer's attempt fails, and its
// budget runs out.
func (lk *link) adopt(conn net.Conn, redial bool) {
	lk.adopting.Lock()
	defer lk.adopting.Unlock()
	if redial {
		lk.broken(anyEpoch, fmt.Errorf("tcp: rank %d redialed", lk.peer), false)
	}
	lk.mu.Lock()
	waiting := lk.state == linkConnecting
	lk.mu.Unlock()
	if !waiting || (redial && writeHandshake(conn, lk.nd.rank, lk.peer, hsReconnect) != nil) {
		conn.Close()
		return
	}
	lk.install(conn)
}

// install makes conn the link's live connection once the old epoch's reader
// is gone: next epoch, stream rewound, reader started. It reports false, and
// closes conn, when the link left linkConnecting meanwhile — killed, failed
// or closed.
func (lk *link) install(conn net.Conn) bool {
	lk.reader.Wait()
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.state != linkConnecting {
		conn.Close()
		return false
	}
	lk.conn = conn
	lk.epoch++
	// Rewind before waking a writer blocked in acquire: it must observe
	// resend=0 (and the bumped rewind generation) no later than it observes
	// the fresh connection, or it could write post-gap frames before the
	// retransmissions that fill the gap.
	lk.st.rewind()
	lk.nd.wg.Add(1)
	lk.reader.Add(1)
	go lk.readLoop(conn, lk.epoch)
	lk.setStateLocked(linkUp)
	return true
}

// goodbye is a closing rank's farewell on one link. On a live link it waits
// (until deadline) for the stream to drain — queued frames and the final
// cumulative ack are owed to the peer — retires the stream, and writes a bye
// as the link's last frame. The ack is sent even when no one asked for it,
// so the peer retires what this end received before the bye fails its
// stream: its pooled copies go back to its pool and its frames leave the
// window as delivered, not failed (TestGoodbyeCarriesFinalAck). The peer
// answers by closing its end, which ends
// this end's reader; the read deadline ends it if the peer does not. A link
// that is not up, or does not drain in time, is simply taken down.
func (lk *link) goodbye(deadline time.Time) {
	lk.mu.Lock()
	conn, up := lk.conn, lk.state == linkUp
	lk.mu.Unlock()
	if up {
		// Drained, the stream is failed under the same lock hold: its writer
		// exits without another write, so the bye cannot interleave with one.
		st := &lk.st
		st.mu.Lock()
		st.ackDirty = true
		st.cond.Broadcast()
		up = st.waitLocked(max(time.Until(deadline), time.Millisecond),
			func() bool { return !st.busy && !st.hasWorkLocked() })
		if up {
			lk.failStreamLocked(&mpi.RankError{Rank: lk.peer, Err: errClosed})
		}
		st.mu.Unlock()
	}
	if !up {
		lk.down(lk.peer, errClosed)
		return
	}
	var bye [headerLen]byte
	putFrameHeader(bye[:], frameHeader{kind: frameBye})
	conn.SetDeadline(deadline)
	conn.Write(bye[:])
}

// sockBufSize is the requested kernel socket buffer size per direction.
// One full-window burst of large frames fits in the send buffer, so a
// 64 KiB writev completes in one syscall instead of trickling out at the
// default buffer's pace, and the receiver drains whole frames per wakeup.
const sockBufSize = 1 << 20

// tuneConn applies the data-plane socket options to a freshly established
// connection: TCP_NODELAY so the 41-byte ack frames and the small sync
// frames the scheduled algorithm's pairwise synchronization rides on are
// never Nagle-delayed behind an unacked large frame, and enlarged kernel
// buffers (see sockBufSize). Best effort: a conn type without the knobs is
// used as-is.
func tuneConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		tc.SetReadBuffer(sockBufSize)
		tc.SetWriteBuffer(sockBufSize)
	}
}
