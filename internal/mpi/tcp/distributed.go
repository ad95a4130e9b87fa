package tcp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/shm"
)

// Distributed mode: each rank lives in its own process (or goroutine) and
// finds its peers through a rendezvous coordinator, after which the ranks
// form a full TCP mesh exactly like the in-process World. This is the
// deployable analogue of an MPI launcher: start a coordinator for n ranks,
// start n processes that Join it, and run any algorithm over the returned
// Comm.
//
// Rendezvous protocol (all integers little-endian uint32, strings
// length-prefixed):
//
//  1. Each joiner opens its own listener, dials the coordinator and sends
//     its listener address, its host identity, and whether it can map
//     shared-memory segments.
//  2. After n joiners, the coordinator assigns ranks in arrival order and
//     sends every joiner its rank, the world size, a world token, and all
//     addresses, hosts and shm flags — the host map.
//  3. Joiner r links to every peer: pairs on the same host with shm
//     capability on both sides ride a shared-memory pair segment (the
//     lower rank creates it under the world token, the higher rank
//     attaches), so co-located traffic never touches a socket; everyone
//     else dials (r > p, with the usual from/to handshake) or accepts
//     (r < p) TCP exactly as before.
//
// Failure model: the coordinator tracks joiner health during rendezvous —
// a joiner that disconnects before the world is complete, or a rendezvous
// that exceeds its deadline, triggers a clean abort broadcast (rank
// abortRank) so every waiting joiner errors out instead of hanging.
// JoinRetry dials a not-yet-started coordinator with backoff. Peer failures
// after the mesh is up surface as typed *mpi.RankError through the matcher.

// abortRank is the rank value the coordinator broadcasts to cancel a
// rendezvous.
const abortRank = ^uint32(0)

// Coordinator is the rendezvous point for one distributed world.
type Coordinator struct {
	ln      net.Listener
	n       int
	timeout time.Duration
	done    chan error
}

// CoordinatorOption customizes a Coordinator.
type CoordinatorOption func(*Coordinator)

// WithRendezvousTimeout aborts the rendezvous (with a broadcast to every
// joined rank) if the world is not complete within d. Zero means wait
// forever.
func WithRendezvousTimeout(d time.Duration) CoordinatorOption {
	return func(c *Coordinator) { c.timeout = d }
}

// StartCoordinator listens on addr (e.g. "127.0.0.1:0") for a world of n
// ranks. It returns immediately; rendezvous proceeds in the background and
// Wait reports its outcome.
func StartCoordinator(addr string, n int, opts ...CoordinatorOption) (*Coordinator, error) {
	if n < 1 {
		return nil, fmt.Errorf("tcp: coordinator world size %d", n)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{ln: ln, n: n, done: make(chan error, 1)}
	for _, o := range opts {
		o(c)
	}
	go c.serve()
	return c, nil
}

// Addr returns the coordinator's listen address for joiners.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Wait blocks until every rank has been given the address book (or the
// rendezvous failed) and returns the outcome.
func (c *Coordinator) Wait() error { return <-c.done }

// Close stops the coordinator's listener.
func (c *Coordinator) Close() error { return c.ln.Close() }

func (c *Coordinator) serve() {
	defer c.ln.Close()
	type joinMsg struct {
		conn  net.Conn
		addr  string
		host  string
		shmOK bool
		err   error
	}
	// Buffered generously so late accept/handshake goroutines never block
	// after serve has returned.
	joinCh := make(chan joinMsg, 2*c.n+4)
	deathCh := make(chan int, c.n)
	go func() {
		for {
			conn, err := c.ln.Accept()
			if err != nil {
				joinCh <- joinMsg{err: err}
				return
			}
			go func(conn net.Conn) {
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				addr, err := readString(conn)
				var host string
				if err == nil {
					host, err = readString(conn)
				}
				var shmFlag uint32
				if err == nil {
					shmFlag, err = readUint32(conn)
				}
				conn.SetReadDeadline(time.Time{})
				if err != nil {
					conn.Close()
					return
				}
				joinCh <- joinMsg{conn: conn, addr: addr, host: host, shmOK: shmFlag != 0}
			}(conn)
		}
	}()
	var timeoutCh <-chan time.Time
	if c.timeout > 0 {
		tm := time.NewTimer(c.timeout)
		defer tm.Stop()
		timeoutCh = tm.C
	}
	type joiner struct {
		conn  net.Conn
		addr  string
		host  string
		shmOK bool
	}
	joiners := make([]joiner, 0, c.n)
	abort := func(reason error) {
		for _, j := range joiners {
			// Best-effort clean abort broadcast: joiners waiting for their
			// rank read abortRank and fail with a typed error instead of
			// hanging on a closed socket.
			j.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			writeUint32(j.conn, abortRank)
			j.conn.Close()
		}
		c.done <- reason
	}
	for len(joiners) < c.n {
		select {
		case m := <-joinCh:
			if m.err != nil {
				abort(fmt.Errorf("tcp: coordinator accept: %w", m.err))
				return
			}
			idx := len(joiners)
			joiners = append(joiners, joiner{conn: m.conn, addr: m.addr, host: m.host, shmOK: m.shmOK})
			// Health monitor: joiners send nothing after their address, so
			// a successful read — or any error — before rendezvous
			// completion means the joiner is gone.
			go func(conn net.Conn, idx int) {
				var b [1]byte
				conn.Read(b[:])
				deathCh <- idx
			}(m.conn, idx)
		case idx := <-deathCh:
			abort(fmt.Errorf("tcp: joiner %d (of %d joined, world %d) died before rendezvous completed",
				idx, len(joiners), c.n))
			return
		case <-timeoutCh:
			abort(fmt.Errorf("tcp: rendezvous timed out with %d of %d ranks", len(joiners), c.n))
			return
		}
	}
	token := worldToken(c.ln.Addr().String())
	for rank, j := range joiners {
		err := writeUint32(j.conn, uint32(rank))
		if err == nil {
			err = writeUint32(j.conn, uint32(c.n))
		}
		if err == nil {
			err = writeString(j.conn, token)
		}
		for _, peer := range joiners {
			if err != nil {
				break
			}
			err = writeString(j.conn, peer.addr)
		}
		for _, peer := range joiners {
			if err != nil {
				break
			}
			err = writeString(j.conn, peer.host)
		}
		for _, peer := range joiners {
			if err != nil {
				break
			}
			flag := uint32(0)
			if peer.shmOK {
				flag = 1
			}
			err = writeUint32(j.conn, flag)
		}
		if err != nil {
			// A joiner died mid-book: abort the rest so nobody hangs
			// waiting for addresses that will never come.
			abort(fmt.Errorf("tcp: sending address book to rank %d: %w", rank, err))
			return
		}
		j.conn.Close()
	}
	c.done <- nil
}

// JoinOption customizes a Join.
type JoinOption func(*joinConfig)

type joinConfig struct {
	host   string
	useShm bool
}

// WithHostID overrides the host identity advertised to the coordinator.
// Ranks advertising the same identity (and shm capability) link through
// shared-memory pair segments instead of sockets. Defaults to the AAPC_HOST
// environment variable, then os.Hostname.
func WithHostID(host string) JoinOption {
	return func(c *joinConfig) { c.host = host }
}

// WithoutSharedMemory disables shared-memory links for this rank: every
// pair involving it uses TCP even when co-located. The choice is advertised
// through the rendezvous, so both sides of each pair agree.
func WithoutSharedMemory() JoinOption {
	return func(c *joinConfig) { c.useShm = false }
}

// shmLinkRingBytes is the per-direction ring capacity of a distributed
// shared-memory link: a few large frames of headroom so the writer rarely
// stalls behind the reader.
const shmLinkRingBytes = 1 << 20

// shmAttachTimeout bounds the higher rank's wait for the lower rank to
// publish their pair segment.
const shmAttachTimeout = 10 * time.Second

// worldToken derives the filename-safe token namespacing one world's pair
// segments from the coordinator's listen address.
func worldToken(coordAddr string) string {
	h := fnv.New64a()
	h.Write([]byte(coordAddr))
	return fmt.Sprintf("%016x", h.Sum64())
}

// segmentPath names the pair segment file for ranks lo < hi of the world
// identified by token.
func segmentPath(token string, lo, hi int) string {
	return filepath.Join(shm.SegmentDir(), fmt.Sprintf("aapc-pair-%s-%d-%d", token, lo, hi))
}

// hostIdentity resolves the identity advertised to the coordinator.
func hostIdentity(cfg *joinConfig) string {
	if cfg.host != "" {
		return cfg.host
	}
	if h := os.Getenv("AAPC_HOST"); h != "" {
		return h
	}
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return "unknown-host"
}

// Join connects this process to a distributed world through the coordinator
// and returns its communicator once the full mesh is up. The cleanup
// function closes all links. Join fails fast if the coordinator is
// unreachable; use JoinRetry to tolerate a coordinator that starts later.
func Join(coordAddr string, opts ...JoinOption) (mpi.Comm, func() error, error) {
	return join(coordAddr, 0, opts...)
}

// JoinRetry is Join with startup retry: dialing the coordinator is retried
// with exponential backoff until it succeeds or the window elapses. Errors
// after the dial (an aborted rendezvous, a failed mesh) are not retried.
func JoinRetry(coordAddr string, window time.Duration, opts ...JoinOption) (mpi.Comm, func() error, error) {
	return join(coordAddr, window, opts...)
}

func join(coordAddr string, retryWindow time.Duration, opts ...JoinOption) (mpi.Comm, func() error, error) {
	cfg := joinConfig{useShm: true}
	for _, o := range opts {
		o(&cfg)
	}
	host := hostIdentity(&cfg)
	shmOK := cfg.useShm && shm.MapAvailable() && os.Getenv("AAPC_SHM") != "0"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	coord, err := dialRetry(coordAddr, retryWindow)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	err = writeString(coord, ln.Addr().String())
	if err == nil {
		err = writeString(coord, host)
	}
	if err == nil {
		flag := uint32(0)
		if shmOK {
			flag = 1
		}
		err = writeUint32(coord, flag)
	}
	if err != nil {
		ln.Close()
		coord.Close()
		return nil, nil, err
	}
	rank32, err := readUint32(coord)
	if err != nil {
		ln.Close()
		coord.Close()
		return nil, nil, err
	}
	if rank32 == abortRank {
		ln.Close()
		coord.Close()
		return nil, nil, fmt.Errorf("tcp: rendezvous aborted by coordinator")
	}
	n32, err := readUint32(coord)
	if err != nil {
		ln.Close()
		coord.Close()
		return nil, nil, err
	}
	rank, n := int(rank32), int(n32)
	token, err := readString(coord)
	if err != nil {
		ln.Close()
		coord.Close()
		return nil, nil, err
	}
	addrs := make([]string, n)
	for i := range addrs {
		if addrs[i], err = readString(coord); err != nil {
			ln.Close()
			coord.Close()
			return nil, nil, err
		}
	}
	hosts := make([]string, n)
	for i := range hosts {
		if hosts[i], err = readString(coord); err != nil {
			ln.Close()
			coord.Close()
			return nil, nil, err
		}
	}
	shmFlags := make([]bool, n)
	for i := range shmFlags {
		flag, err := readUint32(coord)
		if err != nil {
			ln.Close()
			coord.Close()
			return nil, nil, err
		}
		shmFlags[i] = flag != 0
	}
	coord.Close()

	// The host map decides each pair's medium from broadcast data alone, so
	// both sides always agree: shared memory when co-located and capable on
	// both ends, TCP otherwise.
	useShm := make([]bool, n)
	for p := 0; p < n; p++ {
		useShm[p] = p != rank && shmFlags[p] && shmFlags[rank] && hosts[p] == hosts[rank]
	}

	ep := &endpoint{
		rank:     rank,
		n:        n,
		start:    time.Now(),
		conns:    make([]net.Conn, n),
		shmLink:  useShm,
		outq:     make([]*outQueue, n),
		recvNext: make([]uint64, n),
	}
	ep.matcher = &matcher{
		pool:    &ep.pool,
		stats:   &ep.stats,
		now:     func() float64 { return time.Since(ep.start).Seconds() },
		arrived: make(map[matchKey][]arrivedMsg),
		posted:  make(map[matchKey][]*recvOp),
	}
	for p := range ep.outq {
		ep.outq[p] = &outQueue{}
	}

	// Create the pair segments this rank owns (the lower rank of each
	// co-located pair) before anything else: attachers poll for them, so
	// publishing first keeps the mesh free of ordering deadlocks.
	for p := rank + 1; p < n; p++ {
		if !useShm[p] {
			continue
		}
		conn, err := shm.CreatePairConn(segmentPath(token, rank, p), shmLinkRingBytes,
			fmt.Sprintf("shm:%d", rank), fmt.Sprintf("shm:%d", p))
		if err != nil {
			ln.Close()
			ep.close()
			return nil, nil, fmt.Errorf("tcp: rank %d creating shm link to %d: %w", rank, p, err)
		}
		ep.conns[p] = conn
		ep.stats.shmLinks.Add(1)
	}

	// Dial lower ranks (attaching shm segments for co-located ones); accept
	// higher ranks over TCP. Run both sides concurrently to avoid
	// rendezvous ordering deadlocks.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for p := 0; p < rank; p++ {
			if useShm[p] {
				conn, err := shm.OpenPairConn(segmentPath(token, p, rank), shmLinkRingBytes,
					fmt.Sprintf("shm:%d", rank), fmt.Sprintf("shm:%d", p), shmAttachTimeout)
				if err != nil {
					errs <- fmt.Errorf("tcp: rank %d attaching shm link to %d: %w", rank, p, err)
					return
				}
				ep.conns[p] = conn
				ep.stats.shmLinks.Add(1)
				continue
			}
			conn, err := net.Dial("tcp", addrs[p])
			if err != nil {
				errs <- fmt.Errorf("tcp: rank %d dialing %d: %w", rank, p, err)
				return
			}
			tuneConn(conn)
			if err := writeHandshake(conn, rank, p, hsInitial); err != nil {
				errs <- err
				return
			}
			ep.conns[p] = conn
		}
	}()
	go func() {
		defer wg.Done()
		expect := 0
		for p := rank + 1; p < n; p++ {
			if !useShm[p] {
				expect++
			}
		}
		for i := 0; i < expect; i++ {
			conn, err := ln.Accept()
			if err != nil {
				errs <- fmt.Errorf("tcp: rank %d accepting: %w", rank, err)
				return
			}
			tuneConn(conn)
			var hdr [handshakeLen]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				errs <- err
				return
			}
			from := int(binary.LittleEndian.Uint32(hdr[0:4]))
			to := int(binary.LittleEndian.Uint32(hdr[4:8]))
			if to != rank || from <= rank || from >= n || useShm[from] {
				errs <- fmt.Errorf("tcp: rank %d: bad mesh handshake %d->%d", rank, from, to)
				return
			}
			ep.conns[from] = conn
		}
	}()
	wg.Wait()
	ln.Close()
	select {
	case err := <-errs:
		ep.close()
		return nil, nil, err
	default:
	}
	for p, conn := range ep.conns {
		if p != rank {
			go ep.readLoop(conn, p)
		}
	}
	return &distComm{ep: ep}, ep.close, nil
}

// dialRetry dials addr, retrying with exponential backoff for up to window
// when window > 0.
func dialRetry(addr string, window time.Duration) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err == nil || window <= 0 {
		return conn, err
	}
	deadline := time.Now().Add(window)
	backoff := 10 * time.Millisecond
	for {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("tcp: coordinator unreachable after %v: %w", window, err)
		}
		time.Sleep(backoff)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
	}
}

// endpoint is one rank's half of a distributed mesh. It reuses the frame
// format and matcher of the in-process World. Frames carry sequence numbers
// and the receive path discards duplicates, so a future retransmitting peer
// cannot double-match; reconnection itself is currently an in-process World
// feature.
type endpoint struct {
	rank, n int
	start   time.Time
	conns   []net.Conn
	// shmLink[p] marks the link to peer p as a shared-memory pair segment
	// (co-located ranks); false means TCP.
	shmLink []bool
	outq    []*outQueue
	// recvNext[p] is the next sequence number expected from peer p; only
	// p's read loop touches entry p.
	recvNext []uint64
	matcher  *matcher
	// pool recycles receive payloads and self-send copies, exactly like the
	// in-process World's.
	pool bufPool
	// recvOps recycles posted-receive operations, exactly like the
	// in-process World's.
	recvOps mpi.Freelist[recvOp]
	// stats counts data-plane activity (frames, bytes, vectored writes,
	// duplicate discards); surfaced through distComm.TransportStats.
	stats stats

	closeOnce sync.Once
}

// outQueue orders a rank's outbound frames toward one peer and assigns
// their sequence numbers.
type outQueue struct {
	mu       sync.Mutex
	frames   []*outFrame
	nextSeq  uint64
	draining bool
}

func (ep *endpoint) close() error {
	ep.closeOnce.Do(func() {
		for _, c := range ep.conns {
			if c != nil {
				c.Close()
			}
		}
	})
	return nil
}

func (ep *endpoint) readLoop(conn net.Conn, p int) {
	for {
		var hdr [headerLen]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			ep.matcher.fail(p, &mpi.RankError{Rank: p,
				Err: fmt.Errorf("tcp: rank %d reading from %d: %w", ep.rank, p, err)})
			return
		}
		kind := hdr[0]
		tag := int(int64(binary.LittleEndian.Uint64(hdr[1:9])))
		seq := binary.LittleEndian.Uint64(hdr[9:17])
		size := int(int64(binary.LittleEndian.Uint64(hdr[17:25])))
		ctx := binary.LittleEndian.Uint64(hdr[25:33])
		if size < 0 || size > maxFramePayload {
			ep.matcher.fail(p, &mpi.RankError{Rank: p,
				Err: fmt.Errorf("tcp: rank %d: bad frame size %d from %d", ep.rank, size, p)})
			return
		}
		switch kind {
		case frameAck:
			// Distributed peers do not retransmit yet; acks are ignored.
		case frameData:
			payload := ep.pool.get(size)
			if _, err := io.ReadFull(conn, payload); err != nil {
				ep.pool.put(payload)
				ep.matcher.fail(p, &mpi.RankError{Rank: p,
					Err: fmt.Errorf("tcp: rank %d reading payload from %d: %w", ep.rank, p, err)})
				return
			}
			if seq < ep.recvNext[p] {
				ep.pool.put(payload)
				ep.stats.dupDiscards.Add(1)
				continue // duplicate re-delivery: discard, never double-match
			}
			ep.recvNext[p] = seq + 1
			ep.matcher.deliver(matchKey{src: p, tag: tag}, payload, ctx)
		default:
			ep.matcher.fail(p, &mpi.RankError{Rank: p,
				Err: fmt.Errorf("tcp: rank %d: unknown frame kind %d from %d", ep.rank, kind, p)})
			return
		}
	}
}

// drain flushes the queue toward peer p. Each cycle pops every queued frame
// (up to writerMaxBatch) and issues one vectored write for the whole batch,
// so concurrent senders behind a slow socket coalesce into a single syscall.
func (ep *endpoint) drain(p int) {
	q := ep.outq[p]
	conn := ep.conns[p]
	var (
		batch  []*outFrame
		hdrs   []byte
		iovecs net.Buffers
	)
	for {
		q.mu.Lock()
		if len(q.frames) == 0 {
			q.draining = false
			q.mu.Unlock()
			return
		}
		n := len(q.frames)
		if n > writerMaxBatch {
			n = writerMaxBatch
		}
		batch = append(batch[:0], q.frames[:n]...)
		for i := 0; i < n; i++ {
			q.frames[i] = nil
		}
		q.frames = q.frames[n:]
		q.mu.Unlock()

		hdrs = frameHeaders(hdrs, n)
		iovecs = iovecs[:0]
		for i, fr := range batch {
			iovecs = appendFrame(iovecs, hdrs[i*headerLen:(i+1)*headerLen], fr)
		}
		// WriteTo consumes the slice it is handed; iovecs itself is rebuilt
		// next cycle from the retained backing array.
		iov := iovecs
		_, err := iov.WriteTo(conn)
		if err == nil {
			ep.stats.writevs.Add(1)
			ep.stats.framesSent.Add(uint64(len(batch)))
			var bytes uint64
			for _, fr := range batch {
				bytes += uint64(fr.size)
			}
			ep.stats.bytesSent.Add(bytes)
			if ep.shmLink != nil && ep.shmLink[p] {
				ep.stats.shmBytesSent.Add(bytes)
			} else {
				ep.stats.tcpBytesSent.Add(bytes)
			}
		}
		if err != nil {
			err = &mpi.RankError{Rank: p, Err: err}
		}
		for _, fr := range batch {
			fr.finish(err, ep.start)
		}
	}
}

// distComm adapts an endpoint to mpi.Comm.
type distComm struct {
	ep         *endpoint
	barrierGen int
}

func (c *distComm) Rank() int    { return c.ep.rank }
func (c *distComm) Size() int    { return c.ep.n }
func (c *distComm) Now() float64 { return time.Since(c.ep.start).Seconds() }

// Kill simulates the death of this rank's process: all sockets close, so
// every peer's pending and future receives from it fail with a typed
// *mpi.RankError (mpi.Killer).
func (c *distComm) Kill() error { return c.ep.close() }

// TransportStats snapshots this rank's data-plane counters.
// (FramesSent+AcksSent)/Writevs is the write-coalescing factor.
func (c *distComm) TransportStats() Stats { return c.ep.stats.snapshot() }

func (c *distComm) Isend(op mpi.Op) mpi.Request {
	if op.Tag < 0 {
		return errReservedTag(op.Tag)
	}
	return c.isend(op)
}

// isend queues the op's payload toward op.Peer. The frame references the
// caller's storage until the vectored write completes — distributed peers do
// not retransmit, so like the in-process non-resilient mode every send
// borrows, a strided layout as one iovec per block.
//
//aapc:nocopy
func (c *distComm) isend(op mpi.Op) mpi.Request {
	if err := op.Canon(c.ep.n); err != nil {
		return mpi.Completed(err)
	}
	if op.Peer == c.ep.rank {
		return c.ep.matcher.loopback(c.ep.rank, op)
	}
	fr := newDataFrame(op)
	if fr.size > 0 {
		c.ep.stats.borrowedSends.Add(1)
	}
	q := c.ep.outq[op.Peer]
	q.mu.Lock()
	fr.seq = q.nextSeq
	q.nextSeq++
	q.frames = append(q.frames, fr)
	if !q.draining {
		q.draining = true
		go c.ep.drain(op.Peer)
	}
	q.mu.Unlock()
	return fr
}

func (c *distComm) Irecv(op mpi.Op) mpi.Request {
	if op.Tag < 0 {
		return errReservedTag(op.Tag)
	}
	return c.irecv(op)
}

// irecv posts a receive; the read loop stages every payload through the pool
// and the match scatters it into the op's layout.
func (c *distComm) irecv(op mpi.Op) mpi.Request {
	if err := op.Canon(c.ep.n); err != nil {
		return mpi.Completed(err)
	}
	ro := getRecvOp(&c.ep.recvOps, op)
	c.ep.matcher.post(matchKey{src: op.Peer, tag: op.Tag}, ro)
	return ro
}

// Barrier is the same dissemination barrier as the in-process transport.
func (c *distComm) Barrier() error {
	n := c.ep.n
	if n == 1 {
		return nil
	}
	gen := c.barrierGen
	c.barrierGen++
	round := 0
	for dist := 1; dist < n; dist <<= 1 {
		tag := -(gen*64 + round + 1)
		dst := (c.ep.rank + dist) % n
		src := (c.ep.rank - dist + n) % n
		sr := c.isend(mpi.Op{Peer: dst, Tag: tag})
		rr := c.irecv(mpi.Op{Peer: src, Tag: tag})
		if err := mpi.Wait(sr); err != nil {
			return err
		}
		if err := mpi.Wait(rr); err != nil {
			return err
		}
		round++
	}
	return nil
}

// Wire helpers.

func writeUint32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readUint32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeString(w io.Writer, s string) error {
	if err := writeUint32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	n, err := readUint32(r)
	if err != nil {
		return "", err
	}
	if n > 4096 {
		return "", fmt.Errorf("tcp: unreasonable string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
