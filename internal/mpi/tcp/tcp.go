// Package tcp provides an mpi transport over real TCP sockets: one
// connection per rank pair, length-prefixed frames, and a dissemination
// barrier built from the transport's own messages. Among the repository's
// transports it is the closest analogue to the paper's LAM/MPI-over-Ethernet
// stack — bytes really cross the kernel's network path.
//
// There is one engine. A rank is a node: it owns its end of the link to
// every peer and a matcher; its process has a listener the higher ranks dial
// and redial. NewWorld wires n nodes inside one process (one listener, one
// pool, one freelist and one set of counters between them); Join wires one
// node per process through a rendezvous coordinator. Both return the same
// comm over the same read loop, writer and link lifecycle.
//
// Every data frame carries a per-pair sequence number, receivers
// acknowledge delivery, and a broken pair socket is redialed by the pair's
// higher rank with bounded exponential backoff + jitter while
// unacknowledged frames are retransmitted. Sequence numbers make
// re-delivery idempotent — a retried frame that already arrived is
// discarded, never double-matched. A pair that cannot be reconnected (its
// redial budget ran out, or its peer was killed) fails closed: every operation naming the peer returns a typed
// *mpi.RankError instead of hanging. A rank that closes says goodbye first,
// so its peers see a departure, not a fault.
//
// User tags must be non-negative; negative tags are reserved for the
// barrier protocol.
package tcp

import (
	"log"
	"sync/atomic"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
)

// Resilience holds the reconnect/retransmit knobs.
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

// delay is the nominal backoff before redial attempt k (jitter not applied).
func (r Resilience) delay(attempt int) time.Duration {
	d := r.BackoffBase << uint(attempt)
	if d > r.BackoffMax || d <= 0 {
		d = r.BackoffMax
	}
	return d
}

// window bounds how long the lower rank of a broken pair waits for the
// higher rank's redial: the whole backoff schedule at maximum jitter plus
// one handshake timeout. A peer that has not come back by then is gone.
func (r Resilience) window() time.Duration {
	total := redialTimeout
	for k := 0; k < r.MaxReconnects; k++ {
		total += time.Duration(float64(r.delay(k)) * (1 + r.Jitter))
	}
	return total
}

// Config collects the tunable behaviour of a rank, whichever way it is
// wired.
type Config struct {
	// OpDeadline, when positive, bounds every wait inside Barrier. Zero
	// means unbounded.
	OpDeadline time.Duration
	// Res holds the reconnect knobs.
	Res Resilience
	// Faults, when non-nil, is consulted once per outbound data frame
	// (first transmission only) to inject delays, connection drops and
	// duplicates.
	Faults mpi.FaultInjector
	// Recorder, when non-nil, receives the transport counters (mirrored at
	// close) so they show up on the obsv metrics endpoint.
	Recorder *obsv.Recorder
}

// Option customizes a World or a Join.
type Option func(*Config)

// newConfig applies opts over the defaults.
func newConfig(opts []Option) Config {
	cfg := Config{Res: DefaultResilience()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Res.MaxReconnects < 1 {
		cfg.Res.MaxReconnects = 1
	}
	if cfg.Res.RetransmitLimit < 1 {
		cfg.Res.RetransmitLimit = DefaultResilience().RetransmitLimit
	}
	return cfg
}

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
	return func(c *Config) { c.Res = r }
}

// WithRecorder mirrors the transport counters into r at close, so recovery
// activity appears alongside the communication metrics on an obsv endpoint.
func WithRecorder(r *obsv.Recorder) Option {
	return func(c *Config) { c.Recorder = r }
}

// Deprecated: WithoutSharedMemory does nothing; every link is a socket.
func WithoutSharedMemory() Option { return func(*Config) {} }

// Stats is a snapshot of the transport counters — a whole in-process
// world's, or one joined rank's: traffic volume plus every recovery action
// the resilience layer took. On a healthy run the recovery counters stay
// zero; under injected faults or real socket trouble they quantify how hard
// the transport worked to hide it.
type Stats struct {
	// FramesSent counts successfully written data frames (including
	// retransmissions and injected duplicates); BytesSent is their payload
	// volume. AcksSent counts standalone ack frames only: the cumulative ack
	// rides every data header, and an ack frame of its own is written only
	// when the peer asked for one and no data frame was there to carry it.
	FramesSent uint64
	AcksSent   uint64
	BytesSent  uint64
	// Writevs counts vectored write calls. (FramesSent+AcksSent)/Writevs is
	// the write-coalescing factor: how many frames each syscall carried.
	Writevs uint64
	// Reconnects counts successful pair redials (on the redialing, higher
	// rank); ReconnectFailures counts link ends that gave up on one and
	// failed terminally.
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
	// the data path: pooled send copies, self-send loopback packs, payloads
	// copied out of a connection's read buffer (a small frame read along
	// with its header), and match-time copies of frames that arrived before
	// their receive was posted. On a steady-state scheduled run with
	// pre-posted receives of at least zeroCopyMin and borrowed sends it
	// stays zero.
	PayloadCopies uint64
	// ZeroCopyRecvs counts data frames whose payload was read off the
	// socket directly into the posted receive buffer (no staging copy).
	ZeroCopyRecvs uint64
}

// recovered reports whether any resilience machinery fired.
func (s Stats) recovered() bool {
	return s.Reconnects+s.ReconnectFailures+s.Retransmits+s.DupDiscards+s.BackoffSleeps > 0
}

// stats holds the live counters; all fields are updated atomically. The
// nodes of an in-process world share one.
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
	}
}

// report is the close-time account of a world or a joined rank: one log
// line, only when the resilience layer actually did work (silence means a
// clean run), and the counter mirror into the recorder, if one was given.
func (cfg *Config) report(s Stats) {
	if s.recovered() {
		log.Printf("tcp: world closed after recovery activity: "+
			"reconnects=%d reconnect_failures=%d retransmits=%d dup_discards=%d backoff_sleeps=%d backoff=%s",
			s.Reconnects, s.ReconnectFailures, s.Retransmits, s.DupDiscards,
			s.BackoffSleeps, time.Duration(s.BackoffNanos))
	}
	if cfg.Recorder == nil {
		return
	}
	c := cfg.Recorder.Counters()
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
