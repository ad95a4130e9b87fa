package tcp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// joinWorld starts a coordinator and joins n ranks concurrently (each
// standing in for a separate process). Everything rendezvouses and links
// over real sockets.
func joinWorld(t *testing.T, n int, opts ...Option) ([]mpi.Comm, func()) {
	t.Helper()
	comms, closers := joinRanks(t, n, opts...)
	return comms, func() {
		for _, fn := range closers {
			fn()
		}
	}
}

// joinRanks is joinWorld with one closer per rank.
func joinRanks(t *testing.T, n int, opts ...Option) ([]mpi.Comm, []func() error) {
	t.Helper()
	coord, err := StartCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	comms, closers := joinAll(t, coord.Addr(), n, opts...)
	if err := coord.Wait(); err != nil {
		t.Fatal(err)
	}
	return comms, closers
}

// joinAll joins n ranks through the coordinator at coordAddr and returns
// them indexed by rank, with one closer each.
func joinAll(t *testing.T, coordAddr string, n int, opts ...Option) ([]mpi.Comm, []func() error) {
	t.Helper()
	comms := make([]mpi.Comm, n)
	closers := make([]func() error, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, closeFn, err := Join(coordAddr, opts...)
			if err != nil {
				errs <- err
				return
			}
			// Ranks are assigned in arrival order; index by rank.
			comms[c.Rank()] = c
			closers[c.Rank()] = closeFn
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	cleanup := func() {
		for _, fn := range closers {
			if fn != nil {
				fn()
			}
		}
	}
	for r, c := range comms {
		if c == nil || c.Rank() != r || c.Size() != n {
			cleanup()
			t.Fatalf("rank assignment broken: %v", comms)
		}
	}
	return comms, closers
}

func TestDistributedSendRecv(t *testing.T) {
	comms, cleanup := joinWorld(t, 3)
	defer cleanup()
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for _, c := range comms {
		wg.Add(1)
		go func(c mpi.Comm) {
			defer wg.Done()
			next := (c.Rank() + 1) % 3
			prev := (c.Rank() + 2) % 3
			out := []byte{byte(c.Rank())}
			in := make([]byte, 1)
			if err := mpi.Sendrecv(c, out, next, 4, in, prev, 4); err != nil {
				errs <- err
				return
			}
			if in[0] != byte(prev) {
				errs <- fmt.Errorf("rank %d got %d, want %d", c.Rank(), in[0], prev)
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestDistributedBarrierAndSelf(t *testing.T) {
	comms, cleanup := joinWorld(t, 4)
	defer cleanup()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, c := range comms {
		wg.Add(1)
		go func(c mpi.Comm) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if err := c.Barrier(); err != nil {
					errs <- err
					return
				}
			}
			// Self message through the matcher.
			r := mpi.Irecv(c, make([]byte, 2), c.Rank(), 1)
			if err := mpi.Send(c, []byte("ok"), c.Rank(), 1); err != nil {
				errs <- err
				return
			}
			errs <- mpi.Wait(r)
		}(c)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDistributedScheduledAlltoall runs the paper's generated routine across
// the distributed mesh with full data verification — the deployable
// configuration end to end.
func TestDistributedScheduledAlltoall(t *testing.T) {
	g := harness.Fig1()
	routine, err := harness.CompileRoutine(g, alltoall.PairwiseSync)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	const msize = 1024
	comms, cleanup := joinWorld(t, n)
	defer cleanup()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for _, c := range comms {
		wg.Add(1)
		go func(c mpi.Comm) {
			defer wg.Done()
			b := alltoall.NewContig(n, msize)
			for dst := 0; dst < n; dst++ {
				blk := b.SendBlock(dst)
				for i := range blk {
					blk[i] = byte(c.Rank()*31 + dst*7 + i)
				}
			}
			if err := routine.Fn()(c, b, msize); err != nil {
				errs <- err
				return
			}
			for src := 0; src < n; src++ {
				blk := b.RecvBlock(src)
				for i := range blk {
					if blk[i] != byte(src*31+c.Rank()*7+i) {
						errs <- fmt.Errorf("rank %d: bad byte from %d", c.Rank(), src)
						return
					}
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := StartCoordinator("127.0.0.1:0", 0); err == nil {
		t.Error("want error for zero-rank world")
	}
	if _, _, err := Join("127.0.0.1:1"); err == nil {
		t.Error("want error joining a dead coordinator")
	}
}

func TestDistributedSingleRank(t *testing.T) {
	comms, cleanup := joinWorld(t, 1)
	defer cleanup()
	if err := comms[0].Barrier(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinMeshDeadline: a peer that gets the address book and then dies
// before it dials must fail every lower rank's Join within the mesh bound,
// not leave them blocked in Accept. The ghost registers last, so it is the
// highest rank and every real joiner is below it.
func TestJoinMeshDeadline(t *testing.T) {
	const n, meshBound = 4, 300 * time.Millisecond
	coord, err := StartCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, n-1)
	for i := 0; i < n-1; i++ {
		go func() {
			_, closeFn, err := join(coord.Addr(), 0, meshBound)
			if err == nil {
				closeFn()
			}
			errs <- err
		}()
	}
	time.Sleep(100 * time.Millisecond) // let the real joiners register first
	ghostRank := ghostJoin(t, coord.Addr())
	bound := time.After(meshBound + 5*time.Second)
	failed := 0
	for i := 0; i < n-1; i++ {
		select {
		case err := <-errs:
			if err != nil {
				failed++
			}
		case <-bound:
			t.Fatal("Join still blocked past the mesh bound")
		}
	}
	// Every rank below the ghost waited for its dial. (Ranks above it, if
	// the sleep did not order the registrations, only dial it.)
	if failed < ghostRank {
		t.Errorf("%d joiners failed; all %d below the dead rank must", failed, ghostRank)
	}
	if ghostRank != n-1 {
		t.Logf("ghost registered as rank %d of %d, not last", ghostRank, n)
	}
}

// sendHello dials the coordinator and registers addr by hand, as a joiner
// that will never link would.
func sendHello(t *testing.T, coordAddr, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", coordAddr)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := json.Marshal(hello{Addr: addr})
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	return conn
}

// ghostJoin rendezvouses by hand — a hello sent, the book read — and exits
// without ever dialing or accepting. It returns the rank it held.
func ghostJoin(t *testing.T, coordAddr string) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn := sendHello(t, coordAddr, ln.Addr().String())
	defer conn.Close()
	b, err := readBook(conn, maxBookBytes)
	if err != nil {
		t.Fatalf("ghost rendezvous: %v", err)
	}
	return b.Rank
}

// TestJoinedCleanCloseIsNotAFault: ranks of a healthy joined world finish
// an all-to-all and close at different times. A closing rank drains its acks
// and says goodbye, so the ranks still running must not answer with redials,
// backoff or retransmissions: every recovery counter stays zero on every
// rank.
func TestJoinedCleanCloseIsNotAFault(t *testing.T) {
	const n = 4
	comms, closers := joinRanks(t, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for _, c := range comms {
		wg.Add(1)
		go func(c mpi.Comm) {
			defer wg.Done()
			err := exchangeAll(c, 4096)
			time.Sleep(time.Duration(c.Rank()) * 15 * time.Millisecond)
			if cerr := closers[c.Rank()](); err == nil {
				err = cerr
			}
			errs <- err
		}(c)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if s := sumStats(comms); s.Reconnects+s.ReconnectFailures+s.Retransmits+s.BackoffSleeps != 0 {
		t.Errorf("clean staggered close looked like a fault: %+v", s)
	}
}

// joinAsync starts k Joins against coordAddr and returns the channel their
// errors arrive on.
func joinAsync(coordAddr string, k int) <-chan error {
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			_, closeFn, err := Join(coordAddr)
			if err == nil {
				closeFn()
			}
			errs <- err
		}()
	}
	return errs
}

// awaitJoinFailures wants k failed Joins within bound, each naming reason.
func awaitJoinFailures(t *testing.T, errs <-chan error, k int, bound time.Duration, reason string) {
	t.Helper()
	deadline := time.After(bound)
	for i := 0; i < k; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("Join succeeded in a world that cannot complete")
			}
			if !strings.Contains(err.Error(), reason) {
				t.Errorf("Join error %q does not carry the coordinator's reason %q", err, reason)
			}
		case <-deadline:
			t.Fatalf("Join still blocked %v into an aborted rendezvous", bound)
		}
	}
}

// TestRendezvousJoinerDeath: a joiner that sends its hello and disconnects
// before the world is complete aborts the rendezvous. Every waiting Join
// fails promptly with the coordinator's reason, and Wait reports the death.
func TestRendezvousJoinerDeath(t *testing.T) {
	const n, live = 4, 2
	coord, err := StartCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	errs := joinAsync(coord.Addr(), live)
	time.Sleep(200 * time.Millisecond) // let the live joiners register first
	sendHello(t, coord.Addr(), "127.0.0.1:1").Close()
	const reason = "died before rendezvous completed"
	awaitJoinFailures(t, errs, live, 5*time.Second, reason)
	if err := coord.Wait(); err == nil || !strings.Contains(err.Error(), reason) {
		t.Fatalf("Wait = %v, want the joiner's death", err)
	}
}

// TestRendezvousTimeout: a world that does not assemble within the
// rendezvous timeout fails both the joiner and the coordinator with the
// count that did arrive.
func TestRendezvousTimeout(t *testing.T) {
	coord, err := StartCoordinator("127.0.0.1:0", 2, WithRendezvousTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	const reason = "timed out with 1 of 2"
	awaitJoinFailures(t, joinAsync(coord.Addr(), 1), 1, 5*time.Second, reason)
	if err := coord.Wait(); err == nil || !strings.Contains(err.Error(), reason) {
		t.Fatalf("Wait = %v, want %q", err, reason)
	}
}

// TestJoinRetryWindow: JoinRetry reaches a coordinator that starts late
// inside its window, and gives up with "coordinator unreachable" when none
// listens — also right after a coordinator's Wait has returned, since it
// closes its listener first. The coordinator's port is one the kernel just
// freed, so it sits on 127.0.0.2: a retried dial, from an ephemeral port on
// 127.0.0.1, could take it back there, and the joiner would then dial
// itself.
func TestJoinRetryWindow(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.2:0")
	if err != nil {
		t.Skipf("no second loopback address: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	started := make(chan *Coordinator, 1)
	go func() {
		time.Sleep(200 * time.Millisecond)
		coord, err := StartCoordinator(addr, 1)
		if err != nil {
			t.Error(err)
		}
		started <- coord
	}()
	c, closeFn, err := JoinRetry(addr, 5*time.Second)
	coord := <-started
	if err != nil {
		t.Fatalf("JoinRetry to a late coordinator: %v", err)
	}
	closeFn()
	if c.Size() != 1 {
		t.Fatalf("world size %d, want 1", c.Size())
	}
	if coord != nil {
		if err := coord.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	if _, _, err := JoinRetry(addr, 300*time.Millisecond); err == nil ||
		!strings.Contains(err.Error(), "coordinator unreachable") {
		t.Fatalf("JoinRetry with no coordinator = %v, want unreachable", err)
	}
}

// TestListenAddr: a joiner listens on the IP its coordinator connection
// leaves from, at any port.
func TestListenAddr(t *testing.T) {
	for local, want := range map[string]string{
		"10.0.0.7:41000":  "10.0.0.7:0",
		"[::1]:41000":     "[::1]:0",
		"127.0.0.1:41000": "127.0.0.1:0",
	} {
		if got := listenAddr(local); got != want {
			t.Errorf("listenAddr(%q) = %q, want %q", local, got, want)
		}
	}
}

// TestJoinAdvertisesCoordinatorFacingIP: every address in the book a
// joined rank decoded is on the IP the joiners reached the coordinator
// from. Over IPv6 loopback that is ::1, which a listener fixed on 127.0.0.1
// would never advertise.
func TestJoinAdvertisesCoordinatorFacingIP(t *testing.T) {
	for _, host := range []string{"127.0.0.1", "::1"} {
		coord, err := StartCoordinator(net.JoinHostPort(host, "0"), 2)
		if err != nil {
			t.Logf("no coordinator on %s: %v", host, err)
			continue
		}
		comms, closers := joinAll(t, coord.Addr(), 2)
		for _, c := range comms {
			for p, addr := range c.(*node).addrs {
				if h, _, _ := net.SplitHostPort(addr); h != host {
					t.Errorf("rank %d's book: rank %d at %q, want host %s", c.Rank(), p, addr, host)
				}
			}
		}
		for _, fn := range closers {
			fn()
		}
	}
}

// TestRendezvousSurplusJoiner: with n+1 joiners for a world of n, n join,
// and the one left over fails within rendezvousIO with the coordinator's
// reason instead of waiting forever for a book. Nothing is left running.
// The surplus joiner dials first, so the coordinator accepts it ahead of
// the others (the accept queue is FIFO), and says hello once the world is
// complete.
func TestRendezvousSurplusJoiner(t *testing.T) {
	const n = 2
	before := runtime.NumGoroutine()
	coord, err := StartCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	surplus, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, closers := joinAll(t, coord.Addr(), n)
	for _, fn := range closers {
		fn()
	}
	surplus.SetDeadline(time.Now().Add(rendezvousIO))
	_, err = rendezvous(surplus, hello{Addr: "127.0.0.1:1"})
	const reason = "rendezvous aborted by coordinator: world of 2 is complete"
	if err == nil || !strings.Contains(err.Error(), reason) {
		t.Fatalf("surplus joiner: %v, want %q", err, reason)
	}
	if err := coord.Wait(); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines running, %d before the rendezvous", runtime.NumGoroutine(), before)
		}
	}
}

// TestRendezvousIdleConnection: a connection that never sends its hello
// must not hold the coordinator once the world is complete. Wait returns
// within a second of the joiners' meshes, the idle connection is closed
// unanswered, and no goroutine of the rendezvous is left behind.
func TestRendezvousIdleConnection(t *testing.T) {
	const n = 3
	before := runtime.NumGoroutine()
	coord, err := StartCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	_, closers := joinAll(t, coord.Addr(), n)
	start := time.Now()
	if err := coord.Wait(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Wait returned %v after the world was joined, want under 1s", took)
	}
	idle.SetReadDeadline(time.Now().Add(rendezvousIO))
	if got, err := io.ReadAll(idle); len(got) != 0 || err != nil {
		t.Fatalf("idle connection read %q, %v; want closed unanswered", got, err)
	}
	for _, fn := range closers {
		fn()
	}
	for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines running, %d before the rendezvous", runtime.NumGoroutine(), before)
		}
	}
}

// TestRendezvousWire pins the two rendezvous messages byte for byte: a
// joiner's hello is {"Addr":"host:port"} and nothing after it, and a
// coordinator's book carries Rank and Peers, each peer only its Addr.
func TestRendezvousWire(t *testing.T) {
	t.Run("hello", testHelloWire)
	t.Run("book", testBookWire)
}

// testHelloWire has Join dial a bare listener and reads what it sends.
func testHelloWire(t *testing.T) {
	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	joined := make(chan error, 1)
	go func() {
		_, _, err := Join(fake.Addr().String())
		joined <- err
	}()
	conn, err := fake.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(rendezvousIO))
	dec := json.NewDecoder(conn)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var h hello
	json.Unmarshal(raw, &h)
	rest, _ := io.ReadAll(dec.Buffered())
	if string(raw) != `{"Addr":"`+h.Addr+`"}` || !strings.HasPrefix(h.Addr, "127.0.0.1:") || len(rest) != 0 {
		t.Errorf("joiner's hello is %s%s, want {\"Addr\":\"127.0.0.1:port\"} alone", raw, rest)
	}
	sendBook(conn, book{Abort: "wire checked"})
	if err := <-joined; err == nil || !strings.Contains(err.Error(), "wire checked") {
		t.Errorf("Join after an aborted rendezvous: %v", err)
	}
}

// testBookWire has a one-rank coordinator answer a hello and reads the book.
func testBookWire(t *testing.T) {
	coord, err := StartCoordinator("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	conn := sendHello(t, coord.Addr(), "127.0.0.1:1")
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(rendezvousIO))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"Rank":0,"Peers":[{"Addr":"127.0.0.1:1"}]}` + "\n"; string(got) != want {
		t.Errorf("coordinator's book is %q, want %q", got, want)
	}
	if err := coord.Wait(); err != nil {
		t.Fatal(err)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// FuzzRendezvousBook drives the joiner's decode-and-check of the
// coordinator's answer with arbitrary bytes, under a small bound (so the
// bound itself is exercised) and under the real one. It must never panic,
// never read past the bound, and never accept a book whose rank does not
// index its peers.
func FuzzRendezvousBook(f *testing.F) {
	const smallBound = 512
	peers := func(n int) []hello {
		ps := make([]hello, n)
		for i := range ps {
			ps[i] = hello{Addr: fmt.Sprintf("127.0.0.1:%d", 40000+i)}
		}
		return ps
	}
	seed := func(b book) []byte {
		msg, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		return msg
	}
	valid := seed(book{Rank: 2, Peers: peers(4)})
	f.Add(valid)
	f.Add(seed(book{Abort: "tcp: rendezvous timed out with 2 of 3 ranks"}))
	f.Add(seed(book{Rank: 4, Peers: peers(4)}))
	f.Add(seed(book{Rank: -1, Peers: peers(4)}))
	f.Add(valid[:len(valid)/2])
	// Books in the older wire format, with a world Token (the second one
	// naming a path) and per-peer Host/Shm fields, meet the same predicate.
	f.Add([]byte(`{"Rank":1,"Token":"w1","Peers":[{"Addr":"127.0.0.1:40000","Host":"node0","Shm":true},{"Addr":"127.0.0.1:40001","Host":"node0","Shm":true}]}` + "\n"))
	f.Add([]byte(`{"Rank":0,"Token":"../escape","Peers":[{"Addr":"127.0.0.1:40000"}]}` + "\n"))
	big := seed(book{Rank: 0, Peers: peers(24)})
	if len(big) <= smallBound {
		f.Fatalf("over-bound seed is only %d bytes", len(big))
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, bound := range []int64{smallBound, maxBookBytes} {
			r := &countingReader{r: bytes.NewReader(data)}
			b, err := readBook(r, bound)
			if r.n > bound {
				t.Fatalf("read %d bytes, past a bound of %d", r.n, bound)
			}
			if err != nil {
				continue
			}
			if b.Rank < 0 || b.Rank >= len(b.Peers) || b.Abort != "" {
				t.Fatalf("accepted a book no coordinator sends: %+v", b)
			}
		}
	})
}
