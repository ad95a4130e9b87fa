// Package tcp provides an mpi transport over real loopback TCP sockets: one
// connection per rank pair, length-prefixed frames, and a dissemination
// barrier built from the transport's own messages. Among the repository's
// transports it is the closest analogue to the paper's LAM/MPI-over-Ethernet
// stack — bytes really cross the kernel's network path — while still running
// in a single process.
//
// The transport is resilient by default: every data frame carries a
// per-pair sequence number, receivers acknowledge delivery, and a broken
// pair socket is redialed with bounded exponential backoff + jitter while
// unacknowledged frames are retransmitted. Sequence numbers make
// re-delivery idempotent — a retried frame that already arrived is
// discarded, never double-matched. A pair that cannot be reconnected (or a
// rank killed through KillRank) fails closed: every operation naming the
// dead peer returns a typed *mpi.RankError instead of hanging.
//
// User tags must be non-negative; negative tags are reserved for the
// barrier protocol.
package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
)

// Frame wire format: kind (1 byte) | tag (int64) | seq (uint64) |
// payload length (int64) | trace ctx (uint64) | payload. Ack frames carry
// the cumulative ack in seq (every data frame with a smaller sequence
// number has been delivered) and no payload or trace context (ctx 0).
// The trace context is an opaque causal identifier (mpi.MakeTraceCtx)
// handed to the matching receiver; retransmissions repeat the original
// frame verbatim, context included, and the duplicate-discard below the
// matcher keeps re-deliveries from ever reaching a receive twice.
const headerLen = 33

const (
	frameData byte = 0
	frameAck  byte = 1
)

// Pair handshake: from (uint32) | to (uint32) | flags (uint32).
const (
	handshakeLen           = 12
	hsInitial       uint32 = 0
	hsReconnect     uint32 = 1
	maxFramePayload        = 1 << 30
)

// Resilience holds the reconnect/retransmit knobs of a world.
type Resilience struct {
	// MaxReconnects bounds redial attempts per connection break.
	MaxReconnects int
	// BackoffBase is the first redial delay; attempt k waits
	// BackoffBase<<k, capped at BackoffMax.
	BackoffBase time.Duration
	// BackoffMax caps the redial delay.
	BackoffMax time.Duration
	// Jitter is the random fraction (0..1) added to or subtracted from each
	// backoff delay to avoid lock-step retry storms.
	Jitter float64
	// RetransmitLimit bounds the unacknowledged frames buffered per
	// directed pair; exceeding it fails the pair instead of growing
	// without bound.
	RetransmitLimit int
}

// DefaultResilience returns the default reconnect policy.
func DefaultResilience() Resilience {
	return Resilience{
		MaxReconnects:   6,
		BackoffBase:     2 * time.Millisecond,
		BackoffMax:      250 * time.Millisecond,
		Jitter:          0.25,
		RetransmitLimit: 1 << 14,
	}
}

// Config collects the tunable behaviour of a World.
type Config struct {
	// OpDeadline, when positive, bounds every wait inside Barrier. Zero
	// means unbounded.
	OpDeadline time.Duration
	// Resilient enables sequence numbers, acks, retransmission and
	// reconnect. On by default.
	Resilient bool
	// Res holds the reconnect knobs (used only when Resilient).
	Res Resilience
	// Faults, when non-nil, is consulted once per outbound data frame
	// (first transmission only) to inject delays, connection drops and
	// duplicates.
	Faults mpi.FaultInjector
	// Recorder, when non-nil, receives the world's recovery counters
	// (mirrored at close) so they show up on the obsv metrics endpoint.
	Recorder *obsv.Recorder
}

// Option customizes a World.
type Option func(*Config)

// WithOpDeadline bounds every barrier wait by d.
func WithOpDeadline(d time.Duration) Option {
	return func(c *Config) { c.OpDeadline = d }
}

// WithFaults installs a fault injector consulted per outbound data frame.
func WithFaults(inj mpi.FaultInjector) Option {
	return func(c *Config) { c.Faults = inj }
}

// WithResilience overrides the reconnect policy.
func WithResilience(r Resilience) Option {
	return func(c *Config) { c.Resilient = true; c.Res = r }
}

// WithoutResilience disables sequence numbers, acks and reconnects: a
// broken pair socket immediately fails the pair, as a plain transport
// would.
func WithoutResilience() Option {
	return func(c *Config) { c.Resilient = false }
}

// WithRecorder mirrors the world's transport counters into r when the world
// closes, so recovery activity appears alongside the communication metrics
// on an obsv endpoint.
func WithRecorder(r *obsv.Recorder) Option {
	return func(c *Config) { c.Recorder = r }
}

// Stats is a snapshot of a world's transport counters: traffic volume plus
// every recovery action the resilience layer took. On a healthy loopback run
// the recovery counters stay zero; under injected faults or real socket
// trouble they quantify how hard the transport worked to hide it.
type Stats struct {
	// FramesSent and AcksSent count successfully written frames (including
	// retransmissions and injected duplicates); BytesSent is the payload
	// volume of the data frames among them.
	FramesSent uint64
	AcksSent   uint64
	BytesSent  uint64
	// Writevs counts vectored write calls. (FramesSent+AcksSent)/Writevs is
	// the write-coalescing factor: how many frames each syscall carried.
	Writevs uint64
	// Reconnects counts successful pair redials; ReconnectFailures counts
	// pairs that exhausted their redial budget and failed terminally.
	Reconnects        uint64
	ReconnectFailures uint64
	// Retransmits counts data frames rewritten after a reconnect.
	Retransmits uint64
	// DupDiscards counts received data frames dropped by the sequence
	// cursor as already-delivered (retransmission or injected duplicate).
	DupDiscards uint64
	// BackoffSleeps and BackoffNanos account the time spent waiting between
	// redial attempts.
	BackoffSleeps uint64
	BackoffNanos  uint64
	// BorrowedSends counts data frames whose payload was borrowed from the
	// caller's buffer straight into the writev batch (zero send-side
	// copies); CopiedSends counts frames that went through a pooled send
	// copy instead (small, non-pool-aligned buffers).
	BorrowedSends uint64
	CopiedSends   uint64
	// PayloadCopies counts userspace copies of payload bytes anywhere on
	// the data path: pooled send copies, self-send loopback packs, and
	// match-time copies of frames that arrived before their receive was
	// posted. On a steady-state scheduled run with pre-posted receives and
	// borrowed sends it stays zero.
	PayloadCopies uint64
	// ZeroCopyRecvs counts data frames whose payload was read off the
	// socket directly into the posted receive buffer (no staging copy).
	ZeroCopyRecvs uint64
	// ShmLinks counts mesh links riding shared-memory pair segments
	// instead of sockets (distributed mode with co-located ranks);
	// ShmBytesSent and TCPBytesSent split the distributed payload volume
	// by link kind. All three stay zero for in-process worlds.
	ShmLinks     uint64
	ShmBytesSent uint64
	TCPBytesSent uint64
}

// recovered reports whether any resilience machinery fired.
func (s Stats) recovered() bool {
	return s.Reconnects+s.ReconnectFailures+s.Retransmits+s.DupDiscards+s.BackoffSleeps > 0
}

// stats holds the world's counters; all fields are updated atomically.
type stats struct {
	framesSent        atomic.Uint64
	acksSent          atomic.Uint64
	bytesSent         atomic.Uint64
	writevs           atomic.Uint64
	reconnects        atomic.Uint64
	reconnectFailures atomic.Uint64
	retransmits       atomic.Uint64
	dupDiscards       atomic.Uint64
	backoffSleeps     atomic.Uint64
	backoffNanos      atomic.Uint64
	borrowedSends     atomic.Uint64
	copiedSends       atomic.Uint64
	payloadCopies     atomic.Uint64
	zeroCopyRecvs     atomic.Uint64
	shmLinks          atomic.Uint64
	shmBytesSent      atomic.Uint64
	tcpBytesSent      atomic.Uint64
}

func (st *stats) snapshot() Stats {
	return Stats{
		FramesSent:        st.framesSent.Load(),
		AcksSent:          st.acksSent.Load(),
		BytesSent:         st.bytesSent.Load(),
		Writevs:           st.writevs.Load(),
		Reconnects:        st.reconnects.Load(),
		ReconnectFailures: st.reconnectFailures.Load(),
		Retransmits:       st.retransmits.Load(),
		DupDiscards:       st.dupDiscards.Load(),
		BackoffSleeps:     st.backoffSleeps.Load(),
		BackoffNanos:      st.backoffNanos.Load(),
		BorrowedSends:     st.borrowedSends.Load(),
		CopiedSends:       st.copiedSends.Load(),
		PayloadCopies:     st.payloadCopies.Load(),
		ZeroCopyRecvs:     st.zeroCopyRecvs.Load(),
		ShmLinks:          st.shmLinks.Load(),
		ShmBytesSent:      st.shmBytesSent.Load(),
		TCPBytesSent:      st.tcpBytesSent.Load(),
	}
}

// World is a set of ranks connected pairwise by loopback TCP.
type World struct {
	n     int
	start time.Time
	cfg   Config
	stats stats
	// pool recycles per-message payload buffers (receive payloads, send
	// copies, self-send loopback copies) across the whole world.
	pool bufPool
	// recvOps recycles posted-receive operations across the whole world.
	recvOps mpi.Freelist[recvOp]

	listener net.Listener
	addr     string
	matchers []*matcher
	// streams[r][p] is rank r's outbound stream toward peer p (nil on the
	// diagonal). It also holds r's receive cursor for frames from p.
	streams [][]*sendStream
	// links[lo][hi] (lo < hi) is the shared connection state of the pair.
	links [][]*link

	deadMu sync.Mutex
	dead   map[int]error

	setupMu   sync.Mutex
	setupCh   chan accepted
	setupDone bool

	reconnMu   sync.Mutex
	reconnWait map[pairID]chan net.Conn

	closed    chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

type pairID struct{ lo, hi int }

type accepted struct {
	conn net.Conn
	from int
	to   int
	err  error
}

// Link states.
const (
	linkUp = iota
	linkReconnecting
	linkDown
)

// link is the shared connection of one unordered rank pair. Both ends of
// the single TCP connection live in this process: connLo belongs to the
// lower rank, connHi to the higher. epoch increments on every reconnect so
// stale readers/writers can detect they raced a replacement.
type link struct {
	lo, hi int
	mu     sync.Mutex
	cond   *sync.Cond
	epoch  int
	connLo net.Conn
	connHi net.Conn
	state  int
	err    error
	// readers tracks the pair's live read loops. A reconnect waits for the
	// old epoch's readers to exit (their sockets are already closed) before
	// installing the new connection: the receive cursor is advanced outside
	// the stream lock — after the payload lands in user memory — so at most
	// one reader per direction may ever be processing frames.
	readers sync.WaitGroup
}

// acquire returns the current connection end for rank self, blocking while
// the pair is being reconnected.
func (lk *link) acquire(self int) (net.Conn, int, error) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	for lk.state == linkReconnecting {
		lk.cond.Wait()
	}
	if lk.state == linkDown {
		return nil, 0, lk.err
	}
	if self == lk.lo {
		return lk.connLo, lk.epoch, nil
	}
	return lk.connHi, lk.epoch, nil
}

// outFrame is one queued outbound frame. A data frame doubles as the send
// request handed back to the caller (the embedded mpi.Completion; frames are
// never recycled — the retransmit window may hold one long after its request
// was waited). When it completes depends on who owns the payload memory:
//
//   - copied frames (small, non-pool-aligned buffers in resilient mode)
//     complete on the first successful write — the pooled copy makes the
//     caller's buffer reusable immediately, and delivery is guaranteed by
//     retransmitting the copy;
//   - borrowed frames (the zero-copy path: the caller's slice rides the
//     writev batch directly) complete only when the cumulative ack retires
//     them. Until then MPI's no-modify rule keeps the borrowed bytes
//     stable, so a post-reconnect retransmission can resend them verbatim —
//     no copy-on-rewind is ever needed;
//   - in non-resilient mode every frame borrows and completes at write, as
//     a plain transport would.
type outFrame struct {
	mpi.Completion
	kind byte
	tag  int
	seq  uint64
	// ctx is the causal trace context carried in the frame header (0 =
	// untraced). Retransmissions reuse the frame, so the context survives
	// re-delivery unchanged — which is why the wire reads this field and
	// never Completion.Info, which the caller's Wait consumes.
	ctx uint64
	// buf is the contiguous payload. Strided frames (non-contig datatype
	// sends) leave buf nil and carry base+dt instead: buildIovecs emits one
	// iovec per block, gathering the strided layout straight off the user's
	// matrix with no pack buffer.
	buf  []byte
	base []byte
	dt   mpi.Datatype
	// size is the payload length on the wire (len(buf) or dt.Size()).
	size      int
	completed bool
	consulted bool // fault injector consulted (first transmission)
	// poolable marks buf as owned by the world's payload pool: it is
	// returned there when the cumulative ack prunes the frame (never
	// earlier — rewind may retransmit any still-unacked frame).
	poolable bool
	// borrowed marks the payload as caller-owned memory: completion is
	// deferred to the cumulative ack (see the type comment).
	borrowed bool
	// written records at least one fully successful write. When the stream
	// fails terminally, a written borrowed frame completes with nil — the
	// copy path completed at exactly that point, and send completion never
	// promised delivery — while an unwritten one fails typed.
	written bool
	// writing marks the frame as part of the writer's in-flight batch; the
	// ack path must not release its buffer underneath the write. Guarded by
	// the stream mutex.
	writing bool
	// ackFreed records that the ack pruned the frame while it was being
	// written; the writer releases the buffer when the write completes.
	ackFreed bool
}

// sendStream orders rank src's outbound frames toward dst and tracks the
// retransmit window. recvNext is the unrelated-but-colocated receive
// cursor: the next sequence number rank src expects FROM dst, kept here so
// the read loop and ack path share one lock per directed pair.
type sendStream struct {
	src, dst int
	mu       sync.Mutex
	cond     *sync.Cond
	nextSeq  uint64
	// queue[qhead:] is the pending-frame FIFO. Popping advances qhead (the
	// slot is nilled); when the queue drains both reset to zero, so the
	// backing array is reused instead of reallocated by every append that
	// follows a front-advance.
	queue    []*outFrame
	qhead    int
	unacked  []*outFrame
	resend   int // index into unacked to retransmit from
	recvNext uint64
	// ackUpTo/ackDirty coalesce outbound cumulative acks: the read loop
	// notes the newest value, the writer piggybacks at most one ack frame
	// per vectored write. Values are monotonic, so collapsing a backlog of
	// acks into the latest one loses nothing.
	ackUpTo  uint64
	ackDirty bool
	// rewinds counts rewind() calls. The writer snapshots it when it
	// collects a batch and aborts the write if it changed while blocked in
	// acquire: a reconnect happened, and the batch's frames must now be
	// preceded by the retransmissions the rewind scheduled.
	rewinds uint64
	// enq counts frames accepted into the queue; wrote counts frames that
	// have completed at least one full socket write. comm.Flush waits for
	// wrote to catch up with enq's value at call time: "everything I sent
	// has been handed to the kernel", a much cheaper ordering point than
	// delivery-acknowledged completion.
	enq    uint64
	wrote  uint64
	failed error
	closed bool
}

// hasWorkLocked reports whether the writer has anything to write. Caller
// holds st.mu.
func (st *sendStream) hasWorkLocked() bool {
	return st.resend < len(st.unacked) || st.qhead < len(st.queue) || st.ackDirty
}

// matcher pairs incoming frames with posted receives for one rank.
type matcher struct {
	// pool receives payload buffers back once their bytes have been copied
	// into the user's receive buffer.
	pool *bufPool
	// stats counts match-time payload copies (frames that arrived before
	// their receive was posted and had to be staged).
	stats *stats
	// now reads the world clock (Comm.Now seconds). Used to stamp the
	// delivery time of traced frames only, so the untraced path stays free
	// of clock reads.
	now func() float64

	mu sync.Mutex
	// arrived holds frames with no posted receive yet, FIFO per key.
	arrived map[matchKey][]arrivedMsg
	// posted holds receives with no arrived frame yet, FIFO per key.
	posted map[matchKey][]*recvOp
	// srcErr holds sticky per-source transport errors: a dead peer fails
	// only the receives naming it, not traffic from healthy peers.
	srcErr map[int]error
}

// arrivedMsg is a delivered frame waiting for its receive: the payload plus
// the trace context it carried and its delivery timestamp (stamped only
// when traced, so a late-posted receive still learns the true arrival
// time, not its own post time).
type arrivedMsg struct {
	payload []byte
	ctx     uint64
	at      float64
}

type matchKey struct {
	src int
	tag int
}

// newDataFrame builds the frame (and request) for one send.
func newDataFrame(m mpi.Op) *outFrame {
	fr := &outFrame{kind: frameData, tag: m.Tag, ctx: m.Ctx, size: m.Size()}
	fr.Init(nil)
	if m.Type.IsZero() {
		fr.buf = m.Buf
	} else {
		fr.base, fr.dt = m.Buf, m.Type
	}
	return fr
}

// finish delivers the frame's completion, once. A traced frame that made it
// out is stamped with the sender-local time (seconds since the world or
// endpoint epoch): the sender's honest "my bytes left at T" mark — a request
// whose Wait is drained much later must not misreport its send as having
// lasted until the drain. Callers serialize through the stream (or queue)
// that owns the frame.
//
//aapc:noalloc
func (fr *outFrame) finish(err error, epoch time.Time) {
	if fr.completed {
		return
	}
	fr.completed = true
	if fr.ctx != 0 && err == nil {
		fr.Info = mpi.TraceInfo{Ctx: fr.ctx, DeliveredAt: time.Since(epoch).Seconds()}
	}
	fr.Complete(err)
}

// recvOp is one posted receive. It doubles as the request handed back to
// the caller (the embedded mpi.Completion), recycled through the world's or
// endpoint's freelist. The matcher writes Info — the matched frame's trace
// context and delivery time — before completing the op.
type recvOp struct {
	mpi.Completion
	free *mpi.Freelist[recvOp]
	buf  []byte
	// dt, when non-zero, describes the strided layout of buf that incoming
	// payload bytes are scattered into (the op is canonical: contiguous
	// typed receives were folded into a plain buf at post time).
	dt mpi.Datatype
}

// getRecvOp returns a recycled receive op or makes a fresh one.
func getRecvOp(free *mpi.Freelist[recvOp], m mpi.Op) *recvOp {
	o := free.Get()
	if o == nil {
		o = &recvOp{free: free}
		o.Init(o)
	}
	o.buf, o.dt = m.Buf, m.Type
	return o
}

// Recycle returns a consumed op to its freelist (mpi.Recycler).
func (o *recvOp) Recycle() {
	o.buf, o.dt = nil, mpi.Datatype{}
	o.free.Put(o)
}

// NewWorld builds an n-rank world over loopback TCP. The returned cleanup
// function closes every socket and waits for all transport goroutines to
// exit; it must be called exactly once.
func NewWorld(n int, opts ...Option) ([]mpi.Comm, func() error, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("tcp: world size %d", n)
	}
	cfg := Config{Resilient: true, Res: DefaultResilience()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Res.MaxReconnects < 1 {
		cfg.Res.MaxReconnects = 1
	}
	if cfg.Res.RetransmitLimit < 1 {
		cfg.Res.RetransmitLimit = DefaultResilience().RetransmitLimit
	}
	w := &World{
		n:          n,
		start:      time.Now(),
		cfg:        cfg,
		dead:       make(map[int]error),
		reconnWait: make(map[pairID]chan net.Conn),
		closed:     make(chan struct{}),
	}
	w.matchers = make([]*matcher, n)
	w.streams = make([][]*sendStream, n)
	for r := 0; r < n; r++ {
		w.matchers[r] = &matcher{
			pool:    &w.pool,
			stats:   &w.stats,
			now:     func() float64 { return time.Since(w.start).Seconds() },
			arrived: make(map[matchKey][]arrivedMsg),
			posted:  make(map[matchKey][]*recvOp),
			srcErr:  make(map[int]error),
		}
		w.streams[r] = make([]*sendStream, n)
		for p := 0; p < n; p++ {
			if p == r {
				continue
			}
			st := &sendStream{src: r, dst: p}
			st.cond = sync.NewCond(&st.mu)
			w.streams[r][p] = st
		}
	}
	w.links = make([][]*link, n)
	for lo := 0; lo < n; lo++ {
		w.links[lo] = make([]*link, n)
		for hi := lo + 1; hi < n; hi++ {
			lk := &link{lo: lo, hi: hi}
			lk.cond = sync.NewCond(&lk.mu)
			w.links[lo][hi] = lk
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	w.listener = ln
	w.addr = ln.Addr().String()
	pairs := n * (n - 1) / 2
	w.setupCh = make(chan accepted, pairs)
	w.wg.Add(1)
	go w.acceptLoop()

	// Establish one connection per pair: the higher rank dials with a
	// (from, to, initial) handshake; the accept path routes accordingly.
	for hi := 1; hi < n; hi++ {
		for lo := 0; lo < hi; lo++ {
			conn, err := net.Dial("tcp", w.addr)
			if err != nil {
				w.close()
				return nil, nil, err
			}
			tuneConn(conn)
			if err := writeHandshake(conn, hi, lo, hsInitial); err != nil {
				conn.Close()
				w.close()
				return nil, nil, err
			}
			w.links[lo][hi].connHi = conn
		}
	}
	for i := 0; i < pairs; i++ {
		select {
		case a := <-w.setupCh:
			if a.err != nil {
				w.close()
				return nil, nil, a.err
			}
			if a.from <= a.to || a.from >= n || a.to < 0 {
				w.close()
				return nil, nil, fmt.Errorf("tcp: bad handshake %d->%d", a.from, a.to)
			}
			w.links[a.to][a.from].connLo = a.conn
		case <-time.After(10 * time.Second):
			w.close()
			return nil, nil, fmt.Errorf("tcp: world setup timed out")
		}
	}
	w.setupMu.Lock()
	w.setupDone = true
	w.setupMu.Unlock()

	// One reader per connection end, one writer per directed pair.
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi < n; hi++ {
			lk := w.links[lo][hi]
			w.wg.Add(2)
			lk.readers.Add(2)
			go w.readLoop(lo, hi, lk.connLo, 0)
			go w.readLoop(hi, lo, lk.connHi, 0)
		}
	}
	for r := 0; r < n; r++ {
		for p := 0; p < n; p++ {
			if p != r {
				w.wg.Add(1)
				go w.writer(w.streams[r][p])
			}
		}
	}

	comms := make([]mpi.Comm, n)
	for r := range comms {
		comms[r] = &comm{w: w, rank: r}
	}
	return comms, w.close, nil
}

// Stats snapshots the world's transport counters. Safe to call at any time,
// including after close.
func (w *World) Stats() Stats { return w.stats.snapshot() }

func (w *World) linkFor(a, b int) *link {
	if a > b {
		a, b = b, a
	}
	return w.links[a][b]
}

// sockBufSize is the requested kernel socket buffer size per direction.
// One full-window burst of large frames fits in the send buffer, so a
// 64 KiB writev completes in one syscall instead of trickling out at the
// default buffer's pace, and the receiver drains whole frames per wakeup.
const sockBufSize = 1 << 20

// tuneConn applies the data-plane socket options to a freshly established
// connection: TCP_NODELAY so the 33-byte ack and sync frames the scheduled
// algorithm's pairwise synchronization rides on are never Nagle-delayed
// behind an unacked large frame, and enlarged kernel buffers (see
// sockBufSize). Best effort: a conn type without the knobs (tests, exotic
// stacks) is used as-is.
func tuneConn(conn net.Conn) net.Conn {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		tc.SetReadBuffer(sockBufSize)
		tc.SetWriteBuffer(sockBufSize)
	}
	return conn
}

func writeHandshake(conn net.Conn, from, to int, flags uint32) error {
	var hdr [handshakeLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(from))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(to))
	binary.LittleEndian.PutUint32(hdr[8:12], flags)
	_, err := conn.Write(hdr[:])
	return err
}

// acceptLoop accepts pair connections for the lifetime of the world:
// during setup it feeds the initial mesh, afterwards it routes reconnect
// handshakes to the waiting reconnector.
func (w *World) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.listener.Accept()
		if err != nil {
			// Listener closed: if setup is still in flight, unblock it.
			w.setupMu.Lock()
			if !w.setupDone {
				select {
				case w.setupCh <- accepted{err: err}:
				default:
				}
			}
			w.setupMu.Unlock()
			return
		}
		tuneConn(conn)
		w.wg.Add(1)
		go w.handleHandshake(conn)
	}
}

func (w *World) handleHandshake(conn net.Conn) {
	defer w.wg.Done()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [handshakeLen]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	from := int(binary.LittleEndian.Uint32(hdr[0:4]))
	to := int(binary.LittleEndian.Uint32(hdr[4:8]))
	flags := binary.LittleEndian.Uint32(hdr[8:12])
	if from < 0 || from >= w.n || to < 0 || to >= w.n || from == to {
		conn.Close()
		return
	}
	switch flags {
	case hsInitial:
		w.setupMu.Lock()
		done := w.setupDone
		w.setupMu.Unlock()
		if done {
			conn.Close()
			return
		}
		w.setupCh <- accepted{conn: conn, from: from, to: to}
	case hsReconnect:
		lo, hi := to, from
		if lo > hi {
			lo, hi = hi, lo
		}
		w.reconnMu.Lock()
		ch := w.reconnWait[pairID{lo, hi}]
		w.reconnMu.Unlock()
		if ch == nil {
			conn.Close()
			return
		}
		select {
		case ch <- conn:
		default:
			conn.Close()
		}
	default:
		conn.Close()
	}
}

func (w *World) close() error {
	w.closeOnce.Do(func() {
		close(w.closed)
		if w.listener != nil {
			w.closeErr = w.listener.Close()
		}
		errClosed := fmt.Errorf("tcp: world closed")
		for lo := 0; lo < w.n; lo++ {
			for hi := lo + 1; hi < w.n; hi++ {
				lk := w.links[lo][hi]
				lk.mu.Lock()
				if lk.state != linkDown {
					lk.state = linkDown
					lk.err = errClosed
					if lk.connLo != nil {
						lk.connLo.Close()
					}
					if lk.connHi != nil {
						lk.connHi.Close()
					}
					lk.cond.Broadcast()
				}
				lk.mu.Unlock()
				w.failPair(lk, errClosed, -1)
			}
		}
		w.wg.Wait()
		s := w.stats.snapshot()
		if s.recovered() {
			// One line, only when the resilience layer actually did work:
			// silence means a clean run.
			log.Printf("tcp: world closed after recovery activity: "+
				"reconnects=%d reconnect_failures=%d retransmits=%d dup_discards=%d backoff_sleeps=%d backoff=%s",
				s.Reconnects, s.ReconnectFailures, s.Retransmits, s.DupDiscards,
				s.BackoffSleeps, time.Duration(s.BackoffNanos))
		}
		if r := w.cfg.Recorder; r != nil {
			c := r.Counters()
			c.Add("aapc_tcp_frames_sent_total", s.FramesSent)
			c.Add("aapc_tcp_acks_sent_total", s.AcksSent)
			c.Add("aapc_tcp_payload_bytes_sent_total", s.BytesSent)
			c.Add("aapc_tcp_reconnects_total", s.Reconnects)
			c.Add("aapc_tcp_reconnect_failures_total", s.ReconnectFailures)
			c.Add("aapc_tcp_retransmits_total", s.Retransmits)
			c.Add("aapc_tcp_duplicate_discards_total", s.DupDiscards)
			c.Add("aapc_tcp_backoff_sleeps_total", s.BackoffSleeps)
			c.Add("aapc_tcp_backoff_nanoseconds_total", s.BackoffNanos)
			c.Add("aapc_tcp_borrowed_sends_total", s.BorrowedSends)
			c.Add("aapc_tcp_copied_sends_total", s.CopiedSends)
			c.Add("aapc_tcp_payload_copies_total", s.PayloadCopies)
			c.Add("aapc_tcp_zerocopy_recvs_total", s.ZeroCopyRecvs)
		}
	})
	return w.closeErr
}

func (w *World) isClosed() bool {
	select {
	case <-w.closed:
		return true
	default:
		return false
	}
}

// firstDead returns the lower-numbered dead rank among the two, or -1.
func (w *World) firstDead(a, b int) int {
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	if _, ok := w.dead[a]; ok {
		return a
	}
	if _, ok := w.dead[b]; ok {
		return b
	}
	return -1
}

func (w *World) rankDead(r int) error {
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	return w.dead[r]
}

// KillRank simulates the death of rank r: every pair involving r is torn
// down terminally and every pending or future operation naming r — on any
// rank — fails with a *mpi.RankError. Killing an already-dead rank is a
// no-op.
func (w *World) KillRank(r int) error {
	if r < 0 || r >= w.n {
		return fmt.Errorf("tcp: kill of rank %d out of range [0, %d)", r, w.n)
	}
	w.deadMu.Lock()
	if _, ok := w.dead[r]; ok {
		w.deadMu.Unlock()
		return nil
	}
	cause := fmt.Errorf("tcp: rank %d killed", r)
	w.dead[r] = cause
	w.deadMu.Unlock()
	for p := 0; p < w.n; p++ {
		if p == r {
			continue
		}
		lk := w.linkFor(r, p)
		lk.mu.Lock()
		if lk.state != linkDown {
			lk.state = linkDown
			lk.err = &mpi.RankError{Rank: r, Err: cause}
			if lk.connLo != nil {
				lk.connLo.Close()
			}
			if lk.connHi != nil {
				lk.connHi.Close()
			}
			lk.cond.Broadcast()
		}
		lk.mu.Unlock()
		w.failPair(lk, cause, r)
	}
	// Fail the dead rank's own matcher wholesale, including self traffic.
	w.matchers[r].fail(r, &mpi.RankError{Rank: r, Err: cause})
	return nil
}

// failPair terminally fails both directions of a pair. deadRank >= 0 pins
// the blame on that rank; otherwise each side blames its peer.
func (w *World) failPair(lk *link, cause error, deadRank int) {
	blame := func(victim, peer int) error {
		rank := peer
		if deadRank >= 0 {
			rank = deadRank
		}
		return &mpi.RankError{Rank: rank, Err: cause}
	}
	w.failStream(w.streams[lk.lo][lk.hi], blame(lk.lo, lk.hi))
	w.failStream(w.streams[lk.hi][lk.lo], blame(lk.hi, lk.lo))
	w.matchers[lk.lo].fail(lk.hi, blame(lk.lo, lk.hi))
	w.matchers[lk.hi].fail(lk.lo, blame(lk.hi, lk.lo))
}

// failStream fails a directed stream: queued and unacknowledged frames
// complete with err, future sends are rejected, the writer exits.
func (w *World) failStream(st *sendStream, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed != nil {
		return
	}
	st.failed = err
	for _, fr := range st.queue[st.qhead:] {
		fr.finish(err, w.start)
	}
	for _, fr := range st.unacked {
		if fr.borrowed && fr.written {
			// Written before the failure: the copy path completed here.
			fr.finish(nil, w.start)
		} else {
			fr.finish(err, w.start)
		}
	}
	st.queue = nil
	st.qhead = 0
	st.unacked = nil
	st.resend = 0
	st.cond.Broadcast()
}

// linkBroken handles a connection error on the given epoch: transient
// breaks start the reconnector, everything else fails the pair.
func (w *World) linkBroken(lk *link, epoch int, cause error) {
	lk.mu.Lock()
	if lk.state != linkUp || lk.epoch != epoch {
		lk.mu.Unlock()
		return
	}
	if lk.connLo != nil {
		lk.connLo.Close()
	}
	if lk.connHi != nil {
		lk.connHi.Close()
	}
	deadRank := w.firstDead(lk.lo, lk.hi)
	if !w.cfg.Resilient || w.isClosed() || deadRank >= 0 {
		lk.state = linkDown
		lk.err = cause
		lk.cond.Broadcast()
		lk.mu.Unlock()
		w.failPair(lk, cause, deadRank)
		return
	}
	lk.state = linkReconnecting
	lk.mu.Unlock()
	w.wg.Add(1)
	go w.reconnect(lk, cause)
}

// reconnect redials a broken pair with exponential backoff + jitter,
// retransmitting unacknowledged frames once the new socket is up.
func (w *World) reconnect(lk *link, cause error) {
	defer w.wg.Done()
	res := w.cfg.Res
	lastErr := cause
	for attempt := 0; attempt < res.MaxReconnects; attempt++ {
		d := res.BackoffBase << uint(attempt)
		if d > res.BackoffMax || d <= 0 {
			d = res.BackoffMax
		}
		if res.Jitter > 0 {
			f := 1 + res.Jitter*(2*rand.Float64()-1)
			d = time.Duration(float64(d) * f)
		}
		w.stats.backoffSleeps.Add(1)
		w.stats.backoffNanos.Add(uint64(d))
		select {
		case <-time.After(d):
		case <-w.closed:
			w.reconnectFailed(lk, fmt.Errorf("tcp: world closed during reconnect"))
			return
		}
		if dead := w.firstDead(lk.lo, lk.hi); dead >= 0 {
			w.reconnectFailed(lk, w.rankDead(dead))
			return
		}
		connHi, connLo, err := w.redial(lk)
		if err != nil {
			lastErr = err
			continue
		}
		// The old epoch's sockets are closed; wait for its readers to exit
		// before the new epoch goes live, so the pair never has two readers
		// racing one receive cursor.
		lk.readers.Wait()
		lk.mu.Lock()
		if lk.state != linkReconnecting {
			// Killed or closed while redialing.
			lk.mu.Unlock()
			connHi.Close()
			connLo.Close()
			return
		}
		lk.connHi = connHi
		lk.connLo = connLo
		lk.epoch++
		epoch := lk.epoch
		// Rewind both directions before waking writers blocked in acquire:
		// a writer must observe resend=0 (and the bumped rewind generation)
		// no later than it observes the fresh connection, or it could write
		// post-gap frames before the retransmissions that fill the gap.
		w.streams[lk.lo][lk.hi].rewind()
		w.streams[lk.hi][lk.lo].rewind()
		lk.state = linkUp
		lk.cond.Broadcast()
		lk.mu.Unlock()
		w.stats.reconnects.Add(1)
		w.wg.Add(2)
		lk.readers.Add(2)
		go w.readLoop(lk.lo, lk.hi, connLo, epoch)
		go w.readLoop(lk.hi, lk.lo, connHi, epoch)
		return
	}
	w.reconnectFailed(lk, fmt.Errorf("tcp: pair (%d,%d) reconnect failed after %d attempts: %w",
		lk.lo, lk.hi, res.MaxReconnects, lastErr))
}

func (w *World) reconnectFailed(lk *link, err error) {
	w.stats.reconnectFailures.Add(1)
	lk.mu.Lock()
	if lk.state == linkReconnecting {
		lk.state = linkDown
		lk.err = err
	}
	lk.cond.Broadcast()
	lk.mu.Unlock()
	w.failPair(lk, err, w.firstDead(lk.lo, lk.hi))
}

// redial establishes a fresh socket for the pair: the higher rank dials the
// world listener with a reconnect handshake, the accept path hands the
// peer end back. Returns (higher end, lower end).
func (w *World) redial(lk *link) (net.Conn, net.Conn, error) {
	ch := make(chan net.Conn, 1)
	id := pairID{lk.lo, lk.hi}
	w.reconnMu.Lock()
	w.reconnWait[id] = ch
	w.reconnMu.Unlock()
	defer func() {
		w.reconnMu.Lock()
		delete(w.reconnWait, id)
		w.reconnMu.Unlock()
	}()
	connHi, err := net.Dial("tcp", w.addr)
	if err != nil {
		return nil, nil, err
	}
	tuneConn(connHi)
	if err := writeHandshake(connHi, lk.hi, lk.lo, hsReconnect); err != nil {
		connHi.Close()
		return nil, nil, err
	}
	select {
	case connLo := <-ch:
		return connHi, connLo, nil
	case <-time.After(2 * time.Second):
		connHi.Close()
		return nil, nil, fmt.Errorf("tcp: reconnect handshake timed out")
	case <-w.closed:
		connHi.Close()
		return nil, nil, fmt.Errorf("tcp: world closed")
	}
}

// rewind schedules every unacknowledged frame for retransmission.
func (st *sendStream) rewind() {
	st.mu.Lock()
	st.resend = 0
	st.rewinds++
	st.cond.Broadcast()
	st.mu.Unlock()
}

// retireFrameLocked releases an acked frame's resources: pooled send copies
// go back to the pool, and borrowed frames get their deferred completion —
// the ack proves delivery, so the caller's buffer is finally free for
// reuse. Caller holds the stream mutex; done is buffered, so the send
// cannot block under it.
//
//aapc:noalloc
func (w *World) retireFrameLocked(fr *outFrame) {
	if fr.poolable && fr.buf != nil {
		w.pool.put(fr.buf)
		fr.buf = nil
	}
	if fr.borrowed {
		fr.finish(nil, w.start)
	}
}

// ackStream prunes unacknowledged frames below the cumulative ack,
// retiring each (pool release or deferred borrowed completion). A frame
// the writer is concurrently writing is only marked (ackFreed); the writer
// retires it when the write completes — releasing mid-write would hand the
// bytes to another message (or let the caller modify them) while writev
// still references them.
func (w *World) ackStream(st *sendStream, upTo uint64) {
	st.mu.Lock()
	k := 0
	for k < len(st.unacked) && st.unacked[k].seq < upTo {
		k++
	}
	if k > 0 {
		for _, fr := range st.unacked[:k] {
			if fr.writing {
				fr.ackFreed = true
			} else {
				w.retireFrameLocked(fr)
			}
		}
		// Shift the survivors down instead of re-slicing forward: the
		// backing array keeps its full capacity, so the steady state appends
		// in collect stop reallocating it.
		n := copy(st.unacked, st.unacked[k:])
		for i := n; i < len(st.unacked); i++ {
			st.unacked[i] = nil
		}
		st.unacked = st.unacked[:n]
		st.resend -= k
		if st.resend < 0 {
			st.resend = 0
		}
	}
	st.mu.Unlock()
}

// noteAck records a cumulative ack to piggyback on the stream's next write.
// upTo values are monotonic per pair, so only the newest matters; >= (not >)
// keeps the re-ack of a discarded duplicate flowing even when the value is
// unchanged, preserving the pre-coalescing belt-and-braces behaviour.
func (st *sendStream) noteAck(upTo uint64) {
	st.mu.Lock()
	if st.failed == nil && !st.closed && upTo >= st.ackUpTo {
		st.ackUpTo = upTo
		st.ackDirty = true
		st.cond.Signal()
	}
	st.mu.Unlock()
}

// writerMaxBatch bounds the frames per vectored write: 64 frames is 129
// iovecs worst case, well under IOV_MAX, and bounds how much payload memory
// a single batch pins against ack-driven release.
const writerMaxBatch = 64

// writeBatch is the writer's reusable scratch: the frames of the current
// vectored write, their headers (one arena, resliced per frame), the iovec
// list handed to net.Buffers, and a singleton frame for coalesced acks.
type writeBatch struct {
	frames   []*outFrame
	nRetrans int
	haveAck  bool
	ackSeq   uint64
	rewinds  uint64 // st.rewinds snapshot; mismatch after acquire = stale batch
	dup      bool   // write frames[0] twice (injected duplicate)

	hdrs   []byte
	iovecs net.Buffers
	ack    outFrame
}

// collect fills the batch from the stream: pending retransmissions first,
// then queued frames in order (assigning sequence numbers and entering the
// retransmit window), then the coalesced ack if one is due. Caller holds
// st.mu. Returns true when the queue head cannot be admitted because the
// retransmit window is full and nothing else is writable — the overflow
// condition that terminally fails the stream.
//
//aapc:noalloc
//aapc:nocopy frames move by pointer; payload bytes are never touched
func (b *writeBatch) collect(st *sendStream, resilient bool, limit, maxData int) (overflow bool) {
	b.frames = b.frames[:0]
	b.nRetrans = 0
	b.haveAck = false
	b.dup = false
	for st.resend < len(st.unacked) && len(b.frames) < maxData {
		fr := st.unacked[st.resend]
		st.resend++
		fr.writing = true
		b.frames = append(b.frames, fr)
		b.nRetrans++
	}
	for st.qhead < len(st.queue) && len(b.frames) < maxData {
		if resilient && len(st.unacked) >= limit {
			if len(b.frames) == 0 && !st.ackDirty {
				return true
			}
			break
		}
		fr := st.queue[st.qhead]
		st.queue[st.qhead] = nil
		st.qhead++
		fr.seq = st.nextSeq
		st.nextSeq++
		if resilient {
			st.unacked = append(st.unacked, fr)
			st.resend = len(st.unacked)
		}
		fr.writing = true
		b.frames = append(b.frames, fr)
	}
	if st.qhead == len(st.queue) {
		st.queue = st.queue[:0]
		st.qhead = 0
	}
	if st.ackDirty {
		b.haveAck = true
		b.ackSeq = st.ackUpTo
		st.ackDirty = false
	}
	b.rewinds = st.rewinds
	return false
}

// appendFrame lays one frame out for a vectored write: the header is
// encoded into hdr (headerLen bytes of the caller's arena), then hdr and the
// payload are appended to iov. A strided frame (base+dt) contributes one
// iovec per block — the writev gathers the caller's matrix layout directly,
// so the wire sees a contiguous payload that never existed in a pack buffer.
// Go's runtime caps each writev at IOV_MAX iovecs and loops, so block counts
// beyond it cost extra syscalls, never correctness.
//
//aapc:noalloc
//aapc:nocopy payload rides the iovec list by reference into writev
func appendFrame(iov net.Buffers, hdr []byte, fr *outFrame) net.Buffers {
	hdr[0] = fr.kind
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(int64(fr.tag)))
	binary.LittleEndian.PutUint64(hdr[9:17], fr.seq)
	binary.LittleEndian.PutUint64(hdr[17:25], uint64(int64(fr.size)))
	binary.LittleEndian.PutUint64(hdr[25:33], fr.ctx)
	iov = append(iov, hdr)
	switch {
	case fr.base != nil:
		for i := 0; i < fr.dt.Count(); i++ {
			iov = append(iov, fr.dt.Block(fr.base, i))
		}
	case len(fr.buf) > 0:
		iov = append(iov, fr.buf)
	}
	return iov
}

// frameHeaders returns an n-frame header arena, reusing hdrs once it has
// grown to the high-water batch size.
//
//aapc:noalloc
func frameHeaders(hdrs []byte, n int) []byte {
	if cap(hdrs) < n*headerLen {
		return make([]byte, n*headerLen)
	}
	return hdrs[:n*headerLen]
}

// buildIovecs lays the batch out for one vectored write: header, payload,
// header, payload, ..., with the coalesced ack last.
//
//aapc:noalloc
//aapc:nocopy
func (b *writeBatch) buildIovecs() {
	n := len(b.frames)
	if b.dup {
		n++
	}
	if b.haveAck {
		n++
	}
	b.hdrs = frameHeaders(b.hdrs, n)
	b.iovecs = b.iovecs[:0]
	hdr := b.hdrs
	emit := func(fr *outFrame) {
		b.iovecs = appendFrame(b.iovecs, hdr[:headerLen], fr)
		hdr = hdr[headerLen:]
	}
	for _, fr := range b.frames {
		emit(fr)
	}
	if b.dup && len(b.frames) > 0 {
		emit(b.frames[0])
	}
	if b.haveAck {
		b.ack = outFrame{kind: frameAck, seq: b.ackSeq}
		emit(&b.ack)
	}
}

// release clears the in-flight marks of the batch, retiring frames whose
// ack arrived mid-write, and (when complete is true) delivers data-frame
// completions with err. Borrowed frames skip the successful-write
// completion — their caller's buffer stays pinned until the cumulative ack
// retires them — but do complete on terminal errors, where no
// retransmission will ever need the bytes again. reack re-arms the
// coalesced ack after a failed write so it is retried on the next
// (post-reconnect) cycle.
//
//aapc:noalloc
//aapc:nocopy
func (w *World) releaseBatch(st *sendStream, b *writeBatch, err error, complete, reack bool) {
	advanced := false
	st.mu.Lock()
	for _, fr := range b.frames {
		fr.writing = false
		if fr.ackFreed {
			fr.ackFreed = false
			w.retireFrameLocked(fr)
		}
		if complete && err == nil && !fr.written {
			fr.written = true
			st.wrote++
			advanced = true
		}
		if complete && (err != nil || !fr.borrowed) {
			e := err
			if fr.borrowed && fr.written {
				// The frame hit the wire before the terminal failure: the
				// copy path would have completed it then, so report the same
				// success; delivery truth surfaces on receiver-side ops.
				e = nil
			}
			fr.finish(e, w.start)
		}
	}
	if reack && b.haveAck && st.failed == nil && !st.closed {
		if b.ackSeq >= st.ackUpTo {
			st.ackUpTo = b.ackSeq
		}
		st.ackDirty = true
	}
	if advanced {
		// Wake Flush waiters; the writer re-checks hasWorkLocked and goes
		// back to sleep if the broadcast was only for them.
		st.cond.Broadcast()
	}
	st.mu.Unlock()
}

// writer drains one directed stream for the lifetime of the world. Frames
// are coalesced opportunistically: every pass writes whatever is queued at
// that moment — retransmissions first, then queued frames in order, plus at
// most one piggybacked cumulative ack — in a single vectored write. An idle
// stream therefore flushes each frame immediately (no delay timers);
// batching emerges exactly when the socket is the bottleneck and frames
// accumulate behind the in-flight write. MPI's non-overtaking guarantee
// holds because this is the only goroutine writing the pair's frames for
// its direction.
func (w *World) writer(st *sendStream) {
	defer w.wg.Done()
	lk := w.linkFor(st.src, st.dst)
	maxData := writerMaxBatch
	if w.cfg.Faults != nil {
		// Fault decisions are per frame and can sleep, break the link or
		// duplicate; keep one data frame per write so injection points stay
		// exactly where the plan put them.
		maxData = 1
	}
	var b writeBatch
	// iov is the consumable slice header handed to WriteTo (which advances
	// it as it writes). Its address escapes through the net.Conn interface,
	// so it is declared once per writer, not once per batch, to keep the
	// heap allocation out of the loop.
	var iov net.Buffers
	for {
		st.mu.Lock()
		for st.failed == nil && !st.closed && !st.hasWorkLocked() {
			st.cond.Wait()
		}
		if st.failed != nil || st.closed {
			st.mu.Unlock()
			return
		}
		overflow := b.collect(st, w.cfg.Resilient, w.cfg.Res.RetransmitLimit, maxData)
		st.mu.Unlock()
		if overflow {
			w.failStream(st, &mpi.RankError{Rank: st.dst, Err: fmt.Errorf(
				"tcp: retransmit buffer overflow (%d frames) toward rank %d",
				w.cfg.Res.RetransmitLimit, st.dst)})
			return
		}
		if b.nRetrans > 0 {
			w.stats.retransmits.Add(uint64(b.nRetrans))
		}

		conn, epoch, err := lk.acquire(st.src)
		if err != nil {
			// Pair is terminally down; failPair has drained or will drain
			// the stream. Complete any in-flight frames that escaped it.
			w.releaseBatch(st, &b, err, true, false)
			return
		}

		st.mu.Lock()
		stale := st.rewinds != b.rewinds
		st.mu.Unlock()
		if stale {
			// A reconnect rewound the stream while this batch waited for the
			// link: retransmissions now precede these frames in sequence
			// order. Put the batch back (the frames already sit in unacked,
			// below the rewound resend cursor) and re-collect.
			w.releaseBatch(st, &b, nil, false, true)
			continue
		}

		if maxData == 1 && len(b.frames) == 1 && b.nRetrans == 0 {
			fr := b.frames[0]
			if !fr.consulted {
				fr.consulted = true
				op, d := w.cfg.Faults.FrameFault(st.src, st.dst)
				switch op {
				case mpi.FaultDelay:
					select {
					case <-time.After(d):
					case <-w.closed:
					}
				case mpi.FaultDropConn:
					werr := fmt.Errorf("tcp: injected connection drop %d->%d", st.src, st.dst)
					w.linkBroken(lk, epoch, werr)
					if !w.cfg.Resilient {
						w.releaseBatch(st, &b, &mpi.RankError{Rank: st.dst, Err: werr}, true, false)
						return
					}
					// Frame sits in unacked; retransmitted after reconnect.
					w.releaseBatch(st, &b, nil, false, true)
					continue
				case mpi.FaultDuplicate:
					b.dup = true
				}
			}
		}

		b.buildIovecs()
		iov = b.iovecs
		_, werr := iov.WriteTo(conn)
		if werr != nil {
			w.linkBroken(lk, epoch, werr)
			if !w.cfg.Resilient {
				w.releaseBatch(st, &b, werr, true, false)
				return
			}
			// Data frames stay in unacked and are retransmitted after the
			// reconnect (or failed terminally); the ack is re-armed.
			w.releaseBatch(st, &b, nil, false, true)
			continue
		}
		w.stats.writevs.Add(1)
		frames := uint64(len(b.frames))
		var bytes uint64
		for _, fr := range b.frames {
			bytes += uint64(fr.size)
		}
		if b.dup && len(b.frames) > 0 {
			frames++
			bytes += uint64(b.frames[0].size)
		}
		w.stats.framesSent.Add(frames)
		w.stats.bytesSent.Add(bytes)
		if b.haveAck {
			w.stats.acksSent.Add(1)
		}
		w.releaseBatch(st, &b, nil, true, false)
	}
}

// readLoop receives frames sent by peer p to rank r on one connection
// epoch. Data frames pass the sequence cursor (duplicates are discarded and
// re-acked), ack frames prune the reverse retransmit window. Payloads are
// read into pooled buffers; the matcher returns each one once its bytes are
// copied into the user's receive buffer.
func (w *World) readLoop(r, p int, conn net.Conn, epoch int) {
	defer w.wg.Done()
	lk := w.linkFor(r, p)
	defer lk.readers.Done()
	st := w.streams[r][p]
	m := w.matchers[r]
	// hdr escapes through the net.Conn interface; declaring it outside the
	// loop costs one heap allocation per connection instead of one per frame.
	var hdr [headerLen]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			w.linkBroken(lk, epoch, fmt.Errorf("tcp: rank %d reading from %d: %w", r, p, err))
			return
		}
		kind := hdr[0]
		tag := int(int64(binary.LittleEndian.Uint64(hdr[1:9])))
		seq := binary.LittleEndian.Uint64(hdr[9:17])
		size := int(int64(binary.LittleEndian.Uint64(hdr[17:25])))
		ctx := binary.LittleEndian.Uint64(hdr[25:33])
		if size < 0 || size > maxFramePayload {
			w.linkBroken(lk, epoch, fmt.Errorf("tcp: rank %d: bad frame size %d from %d", r, size, p))
			return
		}
		switch kind {
		case frameAck:
			w.ackStream(st, seq)
		case frameData:
			// Peek: resolve the sequence cursor BEFORE touching the payload
			// bytes, so an in-order frame can be read straight into the
			// posted receive buffer. The cursor only advances after the full
			// payload has been read — a link break mid-read leaves recvNext
			// untouched and the retransmission re-delivers the same frame.
			if w.cfg.Resilient {
				st.mu.Lock()
				cur := st.recvNext
				st.mu.Unlock()
				switch {
				case seq < cur:
					// Idempotent re-delivery: already matched, drain the
					// bytes but re-ack so the sender prunes its window.
					if err := drainPayload(conn, size, &w.pool); err != nil {
						w.linkBroken(lk, epoch, fmt.Errorf("tcp: rank %d draining duplicate from %d: %w", r, p, err))
						return
					}
					w.stats.dupDiscards.Add(1)
					st.noteAck(cur)
					continue
				case seq > cur:
					w.hardFail(lk, epoch, fmt.Errorf(
						"tcp: rank %d: sequence gap from %d: got %d want %d", r, p, seq, cur))
					return
				}
			}
			key := matchKey{src: p, tag: tag}
			if op := m.claim(key); op != nil {
				// Zero-copy placement: the receive is already posted, so the
				// payload is read off the socket directly into its buffer.
				sockErr, opErr := w.readIntoOp(conn, op, size)
				if sockErr != nil {
					// The op was not completed and no bytes were delivered;
					// put it back at the head of its queue so the
					// retransmission (or the pair failure) finds it.
					m.unclaim(key, op)
					w.linkBroken(lk, epoch, fmt.Errorf("tcp: rank %d reading payload from %d: %w", r, p, sockErr))
					return
				}
				if w.cfg.Resilient {
					st.mu.Lock()
					st.recvNext++
					next := st.recvNext
					st.mu.Unlock()
					m.complete(op, ctx, opErr)
					st.noteAck(next)
				} else {
					m.complete(op, ctx, opErr)
				}
				continue
			}
			// No receive posted yet: stage the payload in a pooled buffer;
			// the match-time copy into the late-posted receive is the single
			// copy of this path.
			payload := w.pool.get(size)
			if _, err := io.ReadFull(conn, payload); err != nil {
				w.pool.put(payload)
				w.linkBroken(lk, epoch, fmt.Errorf("tcp: rank %d reading payload from %d: %w", r, p, err))
				return
			}
			if w.cfg.Resilient {
				st.mu.Lock()
				st.recvNext++
				next := st.recvNext
				st.mu.Unlock()
				m.deliver(key, payload, ctx)
				st.noteAck(next)
			} else {
				m.deliver(key, payload, ctx)
			}
		default:
			w.hardFail(lk, epoch, fmt.Errorf("tcp: rank %d: unknown frame kind %d from %d", r, p, kind))
			return
		}
	}
}

// hardFail terminally fails a pair on a protocol violation — reconnecting
// cannot fix a corrupted stream.
func (w *World) hardFail(lk *link, epoch int, cause error) {
	lk.mu.Lock()
	if lk.state == linkUp && lk.epoch == epoch {
		lk.state = linkDown
		lk.err = cause
		if lk.connLo != nil {
			lk.connLo.Close()
		}
		if lk.connHi != nil {
			lk.connHi.Close()
		}
		lk.cond.Broadcast()
	}
	lk.mu.Unlock()
	w.failPair(lk, cause, -1)
}

// fail records a transport failure for one source: every pending and
// future receive from that source errors out; other sources are unaffected.
func (m *matcher) fail(src int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.srcErr == nil {
		m.srcErr = make(map[int]error)
	}
	if m.srcErr[src] != nil {
		return
	}
	m.srcErr[src] = err
	for key, q := range m.posted {
		if key.src != src {
			continue
		}
		for _, op := range q {
			op.Complete(err)
		}
		delete(m.posted, key)
	}
}

// deliver hands an arrived frame to a posted receive or queues it. A
// matched payload goes back to the pool the moment its bytes are copied
// into the receiver's buffer; an unmatched one is retained in the arrived
// queue and returned at post time. Traced frames (ctx != 0) get a delivery
// timestamp here — the moment the payload reached this rank — so a receive
// waited long after arrival still reports the true delivery time.
func (m *matcher) deliver(key matchKey, payload []byte, ctx uint64) {
	var at float64
	if ctx != 0 {
		at = m.now()
	}
	m.mu.Lock()
	if q := m.posted[key]; len(q) > 0 {
		var op *recvOp
		op, m.posted[key] = mpi.PopFront(q)
		m.mu.Unlock()
		m.finish(op, arrivedMsg{payload: payload, ctx: ctx, at: at})
		return
	}
	m.arrived[key] = append(m.arrived[key], arrivedMsg{payload: payload, ctx: ctx, at: at})
	m.mu.Unlock()
}

// finish completes the match of a staged frame with its receive: the
// match-time copy into the op's layout, the payload's return to the pool,
// the trace stamp, the completion. The matcher lock is not held.
func (m *matcher) finish(op *recvOp, msg arrivedMsg) {
	err := op.place(msg.payload, m.stats)
	m.pool.put(msg.payload)
	if msg.ctx != 0 {
		op.Info = mpi.TraceInfo{Ctx: msg.ctx, DeliveredAt: msg.at}
	}
	op.Complete(err)
}

// post registers a receive, matching an already-arrived frame if any.
// Frames that arrived before the source died still match.
func (m *matcher) post(key matchKey, op *recvOp) {
	m.mu.Lock()
	if q := m.arrived[key]; len(q) > 0 {
		var msg arrivedMsg
		msg, m.arrived[key] = mpi.PopFront(q)
		m.mu.Unlock()
		m.finish(op, msg)
		return
	}
	if err := m.srcErr[key.src]; err != nil {
		m.mu.Unlock()
		op.Complete(err)
		return
	}
	m.posted[key] = append(m.posted[key], op)
	m.mu.Unlock()
}

// claim pops the oldest posted receive for key, transferring ownership to
// the caller (the read loop, which will fill its buffer straight off the
// socket). Returns nil when no receive is posted — the caller falls back to
// staging the payload. For one key, frames only ever arrive from a single
// read loop, so the pop order is the match order.
func (m *matcher) claim(key matchKey) *recvOp {
	m.mu.Lock()
	q := m.posted[key]
	if len(q) == 0 {
		m.mu.Unlock()
		return nil
	}
	op, q := mpi.PopFront(q)
	m.posted[key] = q
	m.mu.Unlock()
	return op
}

// unclaim returns a claimed-but-unfilled op to the head of its queue after
// a socket error interrupted its payload read: the receive cursor did not
// advance, so the retransmission (on the next connection epoch) must find
// the same op first. If the source failed terminally while the op was
// claimed, it is completed with that error instead — matcher.fail could not
// see it.
func (m *matcher) unclaim(key matchKey, op *recvOp) {
	m.mu.Lock()
	if err := m.srcErr[key.src]; err != nil {
		m.mu.Unlock()
		op.Complete(err)
		return
	}
	q := append(m.posted[key], nil)
	copy(q[1:], q)
	q[0] = op
	m.posted[key] = q
	m.mu.Unlock()
}

// complete finishes a claimed op whose buffer the read loop has filled:
// stamp the trace context/delivery time, then deliver the completion.
func (m *matcher) complete(op *recvOp, ctx uint64, err error) {
	if ctx != 0 {
		op.Info = mpi.TraceInfo{Ctx: ctx, DeliveredAt: m.now()}
	}
	op.Complete(err)
}

// readIntoOp reads a size-byte payload off the socket straight into a
// claimed receive op. The two return values separate the failure domains:
// sockErr is a connection error (the op was not completed, the caller must
// unclaim it and break the link); opErr is a per-operation delivery error
// (truncation) with the stream itself still healthy. Contiguous receives
// land straight off the socket; staging is confined to the strided-scatter
// and truncation fallbacks.
//
//aapc:nocopy
func (w *World) readIntoOp(conn net.Conn, op *recvOp, size int) (sockErr, opErr error) {
	if !op.dt.IsZero() {
		// Strided destination: stage contiguously, scatter into the blocks —
		// the single copy of the typed receive path.
		payload := w.pool.get(size)
		if _, err := io.ReadFull(conn, payload); err != nil {
			w.pool.put(payload)
			return err, nil
		}
		opErr = op.place(payload, &w.stats)
		w.pool.put(payload)
		return nil, opErr
	}
	if size <= len(op.buf) {
		if _, err := io.ReadFull(conn, op.buf[:size]); err != nil {
			return err, nil
		}
		if size > 0 {
			w.stats.zeroCopyRecvs.Add(1)
		}
		return nil, nil
	}
	// Truncation: fill what fits, drain the excess to keep the stream
	// parseable, report the same error the copy path would.
	if _, err := io.ReadFull(conn, op.buf); err != nil {
		return err, nil
	}
	if err := drainPayload(conn, size-len(op.buf), &w.pool); err != nil {
		return err, nil
	}
	return nil, fmt.Errorf("tcp: message truncated: receiver buffer %d < %d", len(op.buf), size)
}

// drainPayload discards size payload bytes from the socket (duplicate
// frames, truncated excess) through a scratch pool buffer.
func drainPayload(conn net.Conn, size int, pool *bufPool) error {
	if size <= 0 {
		return nil
	}
	b := pool.get(size)
	_, err := io.ReadFull(conn, b)
	pool.put(b)
	return err
}

// place copies a staged payload into the op's buffer, honoring a strided
// layout when the op carries one. This is the match-time copy counted
// against the ≤1-copy budget.
func (o *recvOp) place(payload []byte, st *stats) error {
	if len(payload) > 0 {
		st.payloadCopies.Add(1)
	}
	if !o.dt.IsZero() {
		if o.dt.Unpack(o.buf, payload) < len(payload) {
			return fmt.Errorf("tcp: message truncated: receiver layout %d < %d", o.dt.Size(), len(payload))
		}
		return nil
	}
	return copyPayload(o.buf, payload)
}

func copyPayload(dst, src []byte) error {
	if copy(dst, src) < len(src) {
		return fmt.Errorf("tcp: message truncated: receiver buffer %d < %d", len(dst), len(src))
	}
	return nil
}

// comm is one rank's endpoint.
type comm struct {
	w    *World
	rank int
	// barrierGen counts this rank's completed barriers, keeping the
	// reserved tags of successive barriers distinct.
	barrierGen int
}

func (c *comm) Rank() int    { return c.rank }
func (c *comm) Size() int    { return c.w.n }
func (c *comm) Now() float64 { return time.Since(c.w.start).Seconds() }

// Kill simulates the death of this rank (mpi.Killer).
func (c *comm) Kill() error { return c.w.KillRank(c.rank) }

// TransportStats snapshots the world's data-plane counters (shared by all
// ranks of the in-process world).
func (c *comm) TransportStats() Stats { return c.w.stats.snapshot() }

// errReservedTag rejects user operations on the barrier's tag space.
func errReservedTag(tag int) mpi.Request {
	return mpi.Completed(fmt.Errorf("tcp: negative tag %d is reserved", tag))
}

// loopback delivers a self-send through the matcher, via a pooled copy (a
// strided layout is packed into it).
func (m *matcher) loopback(rank int, op mpi.Op) mpi.Request {
	payload := m.pool.get(op.Size())
	op.Layout().Pack(payload, op.Buf)
	if len(payload) > 0 {
		m.stats.payloadCopies.Add(1)
	}
	m.deliver(matchKey{src: rank, tag: op.Tag}, payload, op.Ctx)
	return mpi.Completed(nil)
}

// zeroCopyMin is the smallest payload that borrows the caller's buffer
// unconditionally on the resilient path. Below it a pooled copy is cheaper
// than deferring completion to the ack — unless the slice is already
// pool-aligned, in which case borrowing costs nothing extra.
const zeroCopyMin = 1024

func (c *comm) Isend(op mpi.Op) mpi.Request {
	if op.Tag < 0 {
		return errReservedTag(op.Tag)
	}
	return c.isend(op)
}

// isend frames and queues the op's payload toward op.Peer without blocking
// the caller. Frames for one destination are written by a single writer in
// enqueue order, so MPI's non-overtaking guarantee holds per (source,
// destination, tag). A strided layout rides the writev batch as one iovec
// per block, so the bytes go from the caller's matrix to the kernel with no
// intermediate buffer at all. The borrowed path is the steady state; staging
// copies are confined to the annotated small-message fallback and the
// self-send loopback.
//
//aapc:nocopy
func (c *comm) isend(op mpi.Op) mpi.Request {
	if err := op.Canon(c.w.n); err != nil {
		return mpi.Completed(err)
	}
	if err := c.w.rankDead(c.rank); err != nil {
		return mpi.Completed(&mpi.RankError{Rank: c.rank, Err: err})
	}
	if err := c.w.rankDead(op.Peer); err != nil {
		return mpi.Completed(&mpi.RankError{Rank: op.Peer, Err: err})
	}
	if op.Peer == c.rank {
		return c.w.matchers[c.rank].loopback(c.rank, op)
	}
	st := c.w.streams[c.rank][op.Peer]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed != nil {
		return mpi.Completed(st.failed)
	}
	fr := newDataFrame(op)
	switch {
	case fr.size == 0:
	case !c.w.cfg.Resilient:
		// Non-resilient mode always borrows (nothing ever retransmits) and
		// completes at write, as a plain transport would.
		c.w.stats.borrowedSends.Add(1)
	case fr.base != nil || fr.size >= zeroCopyMin || poolAligned(fr.buf):
		// Borrow: the caller's bytes ride the writev batch directly and the
		// request completes only when the cumulative ack retires the frame —
		// until then MPI's no-modify rule keeps them stable, so
		// retransmissions can reuse them verbatim. Zero copies. Strided
		// frames always borrow: packing up front would be exactly the copy
		// the datatype path exists to remove.
		fr.borrowed = true
		c.w.stats.borrowedSends.Add(1)
	default:
		// Copy: for small, non-pool-aligned buffers the ack-deferred
		// completion costs more than the copy. The pooled copy makes the
		// frame retransmittable forever and completes at first write.
		fr.buf = c.w.pool.get(fr.size)
		//aapc:allow copycount deliberate: below zeroCopyMin the copy beats ack-deferred completion
		copy(fr.buf, op.Buf)
		fr.poolable = true
		c.w.stats.copiedSends.Add(1)
		c.w.stats.payloadCopies.Add(1)
	}
	st.queue = append(st.queue, fr)
	st.enq++
	st.cond.Signal()
	return fr
}

// Flush blocks until every frame this rank has so far accepted toward dst
// has completed at least one full socket write — the bytes are in the
// kernel, ordered ahead of anything the rank writes afterwards
// (mpi.Flusher). It does NOT wait for delivery: borrowed-frame completion
// still defers to the cumulative ack. The scheduled algorithm orders its
// synchronization emits on this watermark, paying a local writer handoff
// instead of a delivery round trip per phase boundary.
//
// d > 0 bounds the wait with a typed *mpi.TimeoutError; d <= 0 waits until
// the watermark is reached or the stream fails.
func (c *comm) Flush(dst int, d time.Duration) error {
	if err := mpi.CheckRank(c, dst); err != nil {
		return err
	}
	if dst == c.rank {
		return nil // self-sends bypass the stream and deliver at once
	}
	st := c.w.streams[c.rank][dst]
	var timer *time.Timer
	expired := false
	st.mu.Lock()
	target := st.enq
	for st.failed == nil && st.wrote < target && !expired {
		if d > 0 && timer == nil {
			// Armed lazily: the common case — the writer already drained
			// the queue — never allocates the timer.
			timer = time.AfterFunc(d, func() {
				st.mu.Lock()
				expired = true
				st.cond.Broadcast()
				st.mu.Unlock()
			})
			defer timer.Stop()
		}
		st.cond.Wait()
	}
	wrote, failed := st.wrote, st.failed
	st.mu.Unlock()
	if wrote >= target {
		return nil
	}
	if failed != nil {
		return failed
	}
	return &mpi.TimeoutError{Op: "flush", After: d}
}

func (c *comm) Irecv(op mpi.Op) mpi.Request {
	if op.Tag < 0 {
		return errReservedTag(op.Tag)
	}
	return c.irecv(op)
}

// irecv posts a receive. A contiguous layout takes payload bytes straight
// off the socket when it is posted before the frame arrives; a strided one
// stages once and scatters.
func (c *comm) irecv(op mpi.Op) mpi.Request {
	if err := op.Canon(c.w.n); err != nil {
		return mpi.Completed(err)
	}
	if err := c.w.rankDead(c.rank); err != nil {
		return mpi.Completed(&mpi.RankError{Rank: c.rank, Err: err})
	}
	ro := getRecvOp(&c.w.recvOps, op)
	c.w.matchers[c.rank].post(matchKey{src: op.Peer, tag: op.Tag}, ro)
	return ro
}

// Barrier runs a dissemination barrier over the transport itself:
// ceil(log2 n) rounds, each rank signalling rank+2^k and waiting for
// rank-2^k, with reserved negative tags per generation and round. When the
// world has an OpDeadline, every wait is bounded by it and a stuck barrier
// returns a typed *mpi.TimeoutError instead of hanging.
func (c *comm) Barrier() error {
	n := c.w.n
	if n == 1 {
		return nil
	}
	d := c.w.cfg.OpDeadline
	gen := c.barrierGen
	c.barrierGen++
	round := 0
	for dist := 1; dist < n; dist <<= 1 {
		tag := -(gen*64 + round + 1)
		dst := (c.rank + dist) % n
		src := (c.rank - dist + n) % n
		sr := c.isend(mpi.Op{Peer: dst, Tag: tag})
		rr := c.irecv(mpi.Op{Peer: src, Tag: tag})
		if err := mpi.WaitTimeout(sr, d); err != nil {
			return fmt.Errorf("tcp: barrier round %d: %w", round, err)
		}
		if err := mpi.WaitTimeout(rr, d); err != nil {
			return fmt.Errorf("tcp: barrier round %d: %w", round, err)
		}
		round++
	}
	return nil
}

// Run builds a TCP world, executes fn once per rank, tears the sockets
// down, and returns the first error.
func Run(n int, fn func(c mpi.Comm) error, opts ...Option) error {
	comms, closeWorld, err := NewWorld(n, opts...)
	if err != nil {
		return err
	}
	errs := make(chan error, n)
	for _, c := range comms {
		go func(c mpi.Comm) { errs <- fn(c) }(c)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if cerr := closeWorld(); cerr != nil && first == nil {
		first = cerr
	}
	return first
}
