package tcp

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// The ack policy: every header carries the cumulative ack, and an ack frame
// of its own goes out only when the peer asked for one — for a borrowed
// frame, whose completion waits for it, or once the retransmit window holds
// writerMaxBatch frames. These tests pin it on a 2-rank world.

// ackWorld opens a 2-rank in-process world.
func ackWorld(t *testing.T, opts ...Option) (c0, c1 *node) {
	t.Helper()
	comms, closeWorld, err := NewWorld(2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeWorld() })
	return comms[0].(*node), comms[1].(*node)
}

// window is the number of frames from nd toward peer awaiting their ack.
func window(nd *node, peer int) int {
	st := &nd.links[peer].st
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.unacked)
}

// eventually polls cond for up to 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("after 5s: %s", what)
		}
	}
}

// copiedBlock is a 64-byte message whose backing array is no pool class, so
// its send is copied rather than borrowed.
func copiedBlock() []byte { return make([]byte, 64, 100) }

// sendRecv sends buf from src to dst and waits for both ends.
func sendRecv(t *testing.T, src, dst *node, buf, into []byte, tag int) {
	t.Helper()
	r := mpi.Irecv(dst, into, src.rank, tag)
	if err := mpi.WaitTimeout(mpi.Isend(src, buf, dst.rank, tag), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := mpi.WaitTimeout(r, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestAckRidesTwoWayTraffic: with data flowing both ways, every ack rides a
// data header. Ping-pongs of copied frames send no ack frame at all, and
// after each round trip each direction's window holds at most the frame
// whose ack the next message will carry.
func TestAckRidesTwoWayTraffic(t *testing.T) {
	const rounds = 200
	c0, c1 := ackWorld(t)
	out, in := copiedBlock(), make([]byte, 64)
	before := c0.TransportStats()
	for k := 0; k < rounds; k++ {
		sendRecv(t, c0, c1, out, in, 1)
		sendRecv(t, c1, c0, out, in, 2)
		if w0, w1 := window(c0, 1), window(c1, 0); w0 > 1 || w1 > 1 {
			t.Fatalf("round %d: windows %d and %d, want at most 1", k, w0, w1)
		}
	}
	after := c0.TransportStats()
	if got := after.CopiedSends - before.CopiedSends; got != 2*rounds {
		t.Fatalf("%d copied sends, want %d", got, 2*rounds)
	}
	if got := after.AcksSent - before.AcksSent; got != 0 {
		t.Errorf("%d ack frames on two-way traffic, want 0", got)
	}
}

// TestLazyAckWindowOneWayCopied: copied frames with no reverse traffic are
// acked lazily. The frame that finds writerMaxBatch frames in the window
// (half the retransmit limit, if that is smaller) asks for its ack, and the
// peer answers with one ack frame. The test waits for each requested ack
// before its next send, so the run is exact: the window peaks at one frame
// beyond that threshold, every threshold+1st frame asks, and as many ack
// frames are sent. (Without that wait, the window also holds whatever the
// sender writes while the ack is on its way, as it did when every frame was
// acked.) Once the last requested ack lands, every pooled copy it covers is
// back in the pool, and a reply carries the rest of the window's ack. This
// is the memory budget of the lazy ack, in make alloc-gates.
func TestLazyAckWindowOneWayCopied(t *testing.T) {
	const n = 10 * writerMaxBatch
	small := DefaultResilience()
	small.RetransmitLimit = 16
	for _, row := range []struct {
		name string
		opts []Option
		lazy int
	}{
		{"default", nil, writerMaxBatch},
		{"limit-16", []Option{WithResilience(small)}, 8},
	} {
		t.Run(row.name, func(t *testing.T) {
			c0, c1 := ackWorld(t, row.opts...)
			pool := &c0.pool
			out, in := copiedBlock(), make([]byte, 64)
			before := c0.TransportStats()
			gets, puts := pool.stats.gets.Load(), pool.stats.puts.Load()
			held := func() int {
				return int(pool.stats.gets.Load() - gets - (pool.stats.puts.Load() - puts))
			}
			peak, asks := 0, 0
			for i := 0; i < n; i++ {
				r := mpi.Irecv(c1, in, 0, 1)
				s := mpi.Isend(c0, out, 1, 1)
				if err := mpi.WaitTimeout(r, 5*time.Second); err != nil {
					t.Fatal(err)
				}
				// The frame was collected before it was delivered; its Wait
				// recycles it, so the flag is read first.
				st := &c0.links[1].st
				st.mu.Lock()
				asked := s.(*outFrame).ackReq
				st.mu.Unlock()
				if err := mpi.WaitTimeout(s, 5*time.Second); err != nil {
					t.Fatal(err)
				}
				peak = max(peak, window(c0, 1))
				if asked {
					asks++
					eventually(t, "a requested ack did not land", func() bool { return window(c0, 1) == 0 })
				}
			}
			after := c0.TransportStats()
			if got := after.CopiedSends - before.CopiedSends; got != n {
				t.Fatalf("%d copied sends, want %d", got, n)
			}
			// The requested ack may land before the window is read.
			if peak < row.lazy || peak > row.lazy+1 {
				t.Errorf("window peaked at %d frames, want %d or %d", peak, row.lazy, row.lazy+1)
			}
			if want := n / (row.lazy + 1); asks != want {
				t.Errorf("%d frames asked for an ack, want %d", asks, want)
			}
			if got := after.AcksSent - before.AcksSent; got != uint64(asks) {
				t.Errorf("%d ack frames for %d requests", got, asks)
			}
			w := window(c0, 1)
			if want := n % (row.lazy + 1); w != want {
				t.Errorf("%d frames left unacked, want %d", w, want)
			}
			if got := held(); got != w {
				t.Errorf("%d pooled copies held with %d frames unacked", got, w)
			}
			// A bare reply carries the ack of everything delivered.
			sendRecv(t, c1, c0, nil, nil, 2)
			eventually(t, "the reply's ack did not empty the window", func() bool { return window(c0, 1) == 0 })
			if got := held(); got != 0 {
				t.Errorf("%d pooled copies held after the window emptied, want 0 (gets = puts)", got)
			}
		})
	}
}

// TestBorrowedOneWayCompletes: a borrowed send completes on its ack, so
// with no reverse traffic to carry one, each asks for it. Fewer than
// writerMaxBatch of them never fill the window, so nothing else asks.
func TestBorrowedOneWayCompletes(t *testing.T) {
	const n = writerMaxBatch / 2
	c0, c1 := ackWorld(t)
	block, into := make([]byte, 64<<10), make([]byte, 64<<10)
	before := c0.TransportStats()
	reqs := make([]mpi.Request, 0, 2*n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, mpi.Irecv(c1, into, 0, 1), mpi.Isend(c0, block, 1, 1))
	}
	if err := mpi.WaitAllTimeout(reqs, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	after := c0.TransportStats()
	if got := after.BorrowedSends - before.BorrowedSends; got != n {
		t.Fatalf("%d borrowed sends, want %d", got, n)
	}
	if after.AcksSent == before.AcksSent {
		t.Error("borrowed sends completed without an ack frame")
	}
	eventually(t, "borrowed frames left in the window", func() bool { return window(c0, 1) == 0 })
}

// TestLazyAckReconnect: a connection that breaks while a window of lazily
// acked copied frames is outstanding retransmits exactly that window; the
// receiver discards every retransmission, and delivery stays exactly once
// and in order across the break.
func TestLazyAckReconnect(t *testing.T) {
	const w = 20
	c0, c1 := ackWorld(t)
	out, in := copiedBlock(), make([]byte, 64)
	next := uint64(0)
	exchange := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint64(out, next)
			sendRecv(t, c0, c1, out, in, 1)
			if got := binary.LittleEndian.Uint64(in); got != next {
				t.Fatalf("received message %d, want %d", got, next)
			}
			next++
		}
	}
	exchange(w)
	if got := window(c0, 1); got != w {
		t.Fatalf("window %d before the break, want %d (no ack asked for)", got, w)
	}
	before := c0.TransportStats()
	conn, _, err := c0.links[1].acquire()
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	eventually(t, "the retransmitted window was not re-acked", func() bool { return window(c0, 1) == 0 })
	exchange(w)
	after := c0.TransportStats()
	if got := after.Reconnects - before.Reconnects; got != 1 {
		t.Errorf("%d reconnects, want 1", got)
	}
	if got := after.Retransmits - before.Retransmits; got != w {
		t.Errorf("%d retransmits, want the %d frames of the window", got, w)
	}
	if got := after.DupDiscards - before.DupDiscards; got != w {
		t.Errorf("%d duplicates discarded, want %d", got, w)
	}
	// Nothing was delivered twice: no message waits unmatched.
	m := c1.matcher
	m.mu.Lock()
	stray := len(m.arrived[matchKey{src: 0, tag: 1}])
	m.mu.Unlock()
	if stray != 0 {
		t.Errorf("%d messages delivered beyond the %d sent", stray, next)
	}
}

// TestGoodbyeCarriesFinalAck: a closing rank acks what it received before
// its bye, though no one asked, so the peer's window is empty when the bye
// fails its stream and the pooled copies come back to the pool.
func TestGoodbyeCarriesFinalAck(t *testing.T) {
	comms, closers := joinRanks(t, 2)
	c0, c1 := comms[0].(*node), comms[1].(*node)
	defer closers[0]()
	pool := &c0.pool
	gets, puts := pool.stats.gets.Load(), pool.stats.puts.Load()
	sendRecv(t, c0, c1, copiedBlock(), make([]byte, 64), 1)
	if got := window(c0, 1); got != 1 {
		t.Fatalf("window %d before the close, want 1 (no ack asked for)", got)
	}
	if err := closers[1](); err != nil {
		t.Fatal(err)
	}
	st := &c0.links[1].st
	eventually(t, "the bye did not fail the stream", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.failed != nil
	})
	if held := pool.stats.gets.Load() - gets - (pool.stats.puts.Load() - puts); held != 0 {
		t.Errorf("%d pooled copies held after the peer's goodbye, want 0", held)
	}
}
