package tcp

import (
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// exchangeAll runs a full pairwise exchange (every rank sends one patterned
// message to every other rank) and verifies every received byte.
func exchangeAll(c mpi.Comm, msize int) error {
	n, me := c.Size(), c.Rank()
	reqs := make([]mpi.Request, 0, 2*(n-1))
	recvBufs := make([][]byte, n)
	for p := 0; p < n; p++ {
		if p == me {
			continue
		}
		buf := make([]byte, msize)
		for i := range buf {
			buf[i] = byte(me*31 + p*7 + i)
		}
		reqs = append(reqs, mpi.Isend(c, buf, p, 5))
		recvBufs[p] = make([]byte, msize)
		reqs = append(reqs, mpi.Irecv(c, recvBufs[p], p, 5))
	}
	if err := mpi.WaitAllTimeout(reqs, 20*time.Second); err != nil {
		return err
	}
	for p := 0; p < n; p++ {
		if p == me {
			continue
		}
		for i, b := range recvBufs[p] {
			if b != byte(p*31+me*7+i) {
				return &mpi.RankError{Rank: p, Err: errCorrupt(p, me, i)}
			}
		}
	}
	return nil
}

type corruptError struct{ src, dst, i int }

func errCorrupt(src, dst, i int) error { return &corruptError{src, dst, i} }
func (e *corruptError) Error() string {
	return "corrupt byte"
}

// TestTransientDropByteExact is the recovery acceptance test: a plan that
// breaks connections under live traffic must still end with a byte-exact
// exchange, because the transport reconnects with backoff and retransmits
// unacked frames.
func TestTransientDropByteExact(t *testing.T) {
	plan, err := faults.ParsePlanString(`
seed 11
drop 0 1 count 2
drop 2 3 after 1 count 1
drop 1 2 count 1
`)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(plan)
	err = Run(4, func(c mpi.Comm) error {
		for round := 0; round < 3; round++ {
			if err := exchangeAll(c, 512); err != nil {
				return err
			}
		}
		return nil
	}, WithFaults(inj))
	if err != nil {
		t.Fatalf("exchange under transient drops: %v", err)
	}
	if len(inj.Events()) == 0 {
		t.Fatal("no faults fired; test is vacuous")
	}
}

// TestDuplicateFramesDiscarded: duplicated frames must be deduplicated by
// the sequence-number guard, never matched twice.
func TestDuplicateFramesDiscarded(t *testing.T) {
	plan, err := faults.ParsePlanString("seed 5\ndup * * prob 0.5\n")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(plan)
	err = Run(3, func(c mpi.Comm) error {
		for round := 0; round < 4; round++ {
			if err := exchangeAll(c, 64); err != nil {
				return err
			}
		}
		// If a duplicate had been delivered as a real message, it would
		// still be queued: a fresh receive must time out, not match.
		if c.Rank() == 0 {
			probeErr := mpi.RecvTimeout(c, make([]byte, 64), 1, 5, 100*time.Millisecond)
			if !mpi.IsTimeout(probeErr) {
				return errCorrupt(1, 0, -1)
			}
		}
		return nil
	}, WithFaults(inj))
	if err != nil {
		t.Fatalf("exchange under duplicated frames: %v", err)
	}
	if len(inj.Events()) == 0 {
		t.Fatal("no duplicates fired; test is vacuous")
	}
}

// TestDelayedFramesByteExact: injected frame delays reorder nothing and
// lose nothing.
func TestDelayedFramesByteExact(t *testing.T) {
	plan, err := faults.ParsePlanString("seed 9\ndelay * * 2ms prob 0.4\n")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(plan)
	err = Run(3, func(c mpi.Comm) error {
		return exchangeAll(c, 256)
	}, WithFaults(inj))
	if err != nil {
		t.Fatalf("exchange under frame delays: %v", err)
	}
}

// TestKillRankTypedError is the fail-closed acceptance test: when a rank
// dies mid-exchange, every surviving rank's operations involving it must
// return a typed *mpi.RankError naming the dead rank — within the op
// deadline, not after a hang.
func TestKillRankTypedError(t *testing.T) {
	const n, victim = 4, 2
	start := time.Now()
	err := Run(n, func(c mpi.Comm) error {
		if c.Rank() == victim {
			// Die after one clean exchange round.
			if err := exchangeAll(c, 128); err != nil {
				return err
			}
			return c.(mpi.Killer).Kill()
		}
		if err := exchangeAll(c, 128); err != nil {
			return err
		}
		// The next receive from the victim must fail with the typed error.
		err := mpi.RecvTimeout(c, make([]byte, 8), victim, 7, 10*time.Second)
		re, ok := mpi.AsRankError(err)
		if !ok {
			return err
		}
		if re.Rank != victim {
			return re
		}
		return nil
	}, WithOpDeadline(10*time.Second))
	if err != nil {
		t.Fatalf("kill-one-rank: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("survivors took %v to learn of the death; deadline not honored", elapsed)
	}
}

// TestKillRankFailsPendingOps: operations already blocked on the victim
// when it dies must be released with the typed error, not stay pending.
func TestKillRankFailsPendingOps(t *testing.T) {
	comms, closeWorld, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld()
	req := mpi.Irecv(comms[0], make([]byte, 4), 1, 3)
	done := make(chan error, 1)
	go func() { done <- mpi.Wait(req) }()
	time.Sleep(20 * time.Millisecond) // let the receive be posted
	if err := comms[1].(mpi.Killer).Kill(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		re, ok := mpi.AsRankError(err)
		if !ok || re.Rank != 1 {
			t.Fatalf("pending recv after kill: got %v, want RankError{Rank: 1}", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending receive still blocked 5s after the peer died")
	}
	// Future sends toward the dead rank fail immediately and typed.
	err = mpi.Send(comms[0], []byte{1}, 1, 4)
	if re, ok := mpi.AsRankError(err); !ok || re.Rank != 1 {
		t.Fatalf("send to dead rank: got %v, want RankError{Rank: 1}", err)
	}
}

// TestPeerDeathDuringReconnect: a pair broken by an injected drop is
// backing off toward a redial when the peer dies — the reconnector must
// abandon the retry and fail the in-flight send with the typed error
// instead of re-establishing a socket to a dead rank.
func TestPeerDeathDuringReconnect(t *testing.T) {
	plan := &faults.Plan{Rules: []faults.Rule{{Kind: faults.Drop, Src: 0, Dst: 1, Count: 1}}}
	inj := faults.New(plan)
	res := DefaultResilience()
	res.BackoffBase = 300 * time.Millisecond
	res.BackoffMax = 300 * time.Millisecond
	res.Jitter = 0
	comms, closeWorld, err := NewWorld(2, WithFaults(inj), WithResilience(res))
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld()
	req := mpi.Isend(comms[0], []byte("x"), 1, 1) // drop fires, reconnect backs off
	time.Sleep(50 * time.Millisecond)             // well inside the 300ms backoff
	if len(inj.Events()) != 1 {
		t.Fatalf("expected the drop to have fired, events: %v", inj.Events())
	}
	if err := comms[1].(mpi.Killer).Kill(); err != nil {
		t.Fatal(err)
	}
	err = mpi.WaitTimeout(req, 10*time.Second)
	re, ok := mpi.AsRankError(err)
	if !ok || re.Rank != 1 {
		t.Fatalf("send caught mid-reconnect by peer death: got %v, want RankError{Rank: 1}", err)
	}
}

// wantRankError waits for req and checks it failed blaming rank.
func wantRankError(t *testing.T, what string, req mpi.Request, rank int, within time.Duration) {
	t.Helper()
	err := mpi.WaitTimeout(req, within)
	if re, ok := mpi.AsRankError(err); !ok || re.Rank != rank {
		t.Fatalf("%s: got %v, want RankError{Rank: %d} within %v", what, err, rank, within)
	}
}

// TestKilledLowerRankFailsHigherPeer: a joined rank that dies keeps its
// listener (its process's accept loop outlives the kill here), so the higher
// peer's redials connect — but a link that is down for good must leave them
// unanswered, or every attempt "succeeds", the budget never runs out and the
// peer redials forever instead of failing closed.
func TestKilledLowerRankFailsHigherPeer(t *testing.T) {
	comms, cleanup := joinWorld(t, 2)
	defer cleanup()
	recv := mpi.Irecv(comms[1], make([]byte, 8), 0, 3)
	if err := comms[0].(mpi.Killer).Kill(); err != nil {
		t.Fatal(err)
	}
	wantRankError(t, "receive from the killed rank", recv, 0, 5*time.Second)
	send := mpi.Isend(comms[1], make([]byte, 4096), 0, 4)
	wantRankError(t, "send toward the killed rank", send, 0, time.Second)
	if s := comms[1].(*node).TransportStats(); s.Reconnects != 0 || s.ReconnectFailures != 1 {
		t.Fatalf("want the redial budget spent once and no reconnect, got reconnects=%d failures=%d",
			s.Reconnects, s.ReconnectFailures)
	}
}

// TestStalledHandshakeDelaysNoOne: a socket that connects to the listener
// and never says who it is must not hold up a redial's adoption — one
// listener serves every rank of the world.
func TestStalledHandshakeDelaysNoOne(t *testing.T) {
	inj := faults.New(&faults.Plan{Rules: []faults.Rule{{Kind: faults.Drop, Src: 0, Dst: 1, Count: 1}}})
	comms, closeWorld, err := NewWorld(2, WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld()
	mute, err := net.Dial("tcp", comms[0].(*node).addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()                // before closeWorld, which waits for handshakes in flight
	time.Sleep(20 * time.Millisecond) // let the listener take it first
	start := time.Now()
	errs := make(chan error, 2)
	for _, c := range comms {
		go func() { errs <- exchangeAll(c, 512) }()
	}
	for range comms {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if len(inj.Events()) != 1 {
		t.Fatalf("the drop did not fire: %v", inj.Events())
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("recovery took %v behind a mute socket", d)
	}
}

// TestNoGoroutineLeaks exercises create/traffic/close, create/kill/close
// and create/drop/close cycles and checks the world's goroutines are gone
// afterwards. Stdlib-only leak check: compare runtime.NumGoroutine with
// slack for runtime helpers.
func TestNoGoroutineLeaks(t *testing.T) {
	cycle := func(kind int) {
		switch kind {
		case 0: // clean traffic
			_ = Run(3, func(c mpi.Comm) error { return exchangeAll(c, 64) })
		case 1: // killed rank
			_ = Run(3, func(c mpi.Comm) error {
				if c.Rank() == 1 {
					return c.(mpi.Killer).Kill()
				}
				err := mpi.RecvTimeout(c, make([]byte, 1), 1, 1, 5*time.Second)
				if err == nil {
					return nil
				}
				return nil
			})
		case 2: // transient drops with reconnect
			inj := faults.New(&faults.Plan{Rules: []faults.Rule{
				{Kind: faults.Drop, Src: 0, Dst: 1, Count: 1},
			}})
			_ = Run(2, func(c mpi.Comm) error { return exchangeAll(c, 64) }, WithFaults(inj))
		case 3: // world closed with pending operations
			comms, closeWorld, err := NewWorld(2)
			if err != nil {
				return
			}
			req := mpi.Irecv(comms[0], make([]byte, 4), 1, 9)
			closeWorld()
			_ = mpi.Wait(req)
		}
	}
	// Warm up once so lazily-started runtime goroutines don't count.
	for kind := 0; kind < 4; kind++ {
		cycle(kind)
	}
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		for kind := 0; kind < 4; kind++ {
			cycle(kind)
		}
	}
	// Give exiting goroutines a moment; poll instead of one long sleep.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
