package tcp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/shm"
)

// shmAvailableForTest mirrors the runtime gate Join applies when deciding
// whether co-located pairs may use shared-memory segments.
func shmAvailableForTest() bool {
	return shm.MapAvailable() && os.Getenv("AAPC_SHM") != "0"
}

// joinWorld starts a coordinator and joins n ranks concurrently (each
// standing in for a separate process). Everything rendezvouses over real
// sockets; co-located pairs then link through shared-memory segments when
// the platform supports it, unless opts say otherwise.
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

// TestDistributedShmLinkSelection checks the host map puts co-located
// pairs on shared-memory segments (bytes flow over shm, not sockets), that
// WithoutSharedMemory forces every pair back to TCP, and that both meshes
// deliver the same traffic.
func TestDistributedShmLinkSelection(t *testing.T) {
	if !shmAvailableForTest() {
		t.Skip("shared-memory segments unsupported on this platform")
	}
	for _, tc := range []struct {
		name    string
		opts    []Option
		wantShm bool
	}{
		{"shm-auto", nil, true},
		{"tcp-forced", []Option{WithoutSharedMemory()}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 3
			comms, cleanup := joinWorld(t, n, tc.opts...)
			defer cleanup()
			var wg sync.WaitGroup
			errs := make(chan error, n)
			for _, c := range comms {
				wg.Add(1)
				go func(c mpi.Comm) {
					defer wg.Done()
					next := (c.Rank() + 1) % n
					prev := (c.Rank() + n - 1) % n
					out := make([]byte, 2048)
					for i := range out {
						out[i] = byte(c.Rank() + i)
					}
					in := make([]byte, 2048)
					if err := mpi.Sendrecv(c, out, next, 8, in, prev, 8); err != nil {
						errs <- err
						return
					}
					for i := range in {
						if in[i] != byte(prev+i) {
							errs <- fmt.Errorf("rank %d: corrupted byte %d", c.Rank(), i)
							return
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
			for _, c := range comms {
				s := c.(*node).TransportStats()
				if tc.wantShm {
					if s.ShmLinks != n-1 {
						t.Fatalf("rank %d: %d shm links, want %d", c.Rank(), s.ShmLinks, n-1)
					}
					if s.ShmBytesSent == 0 || s.TCPBytesSent != 0 {
						t.Fatalf("rank %d: byte split shm=%d tcp=%d, want all shm", c.Rank(), s.ShmBytesSent, s.TCPBytesSent)
					}
				} else {
					if s.ShmLinks != 0 || s.ShmBytesSent != 0 {
						t.Fatalf("rank %d: shm used with shm disabled: %+v", c.Rank(), s)
					}
					if s.TCPBytesSent == 0 {
						t.Fatalf("rank %d: no TCP bytes recorded", c.Rank())
					}
				}
			}
		})
	}
}

// TestDistributedMixedHosts advertises two distinct host identities: pairs
// sharing one ride shm, cross-host pairs stay on TCP, and the mesh still
// delivers everything.
func TestDistributedMixedHosts(t *testing.T) {
	if !shmAvailableForTest() {
		t.Skip("shared-memory segments unsupported on this platform")
	}
	const n = 4
	coord, err := StartCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]mpi.Comm, n)
	closers := make([]func() error, n)
	var wg sync.WaitGroup
	joinErrs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Arrival order assigns ranks, so hosts interleave arbitrarily;
			// what matters is two ranks per identity.
			c, closeFn, err := Join(coord.Addr(), WithHostID(fmt.Sprintf("node%d", i%2)))
			if err != nil {
				joinErrs <- err
				return
			}
			comms[c.Rank()] = c
			closers[c.Rank()] = closeFn
		}(i)
	}
	wg.Wait()
	select {
	case err := <-joinErrs:
		t.Fatal(err)
	default:
	}
	defer func() {
		for _, fn := range closers {
			if fn != nil {
				fn()
			}
		}
	}()
	errs := make(chan error, n)
	for _, c := range comms {
		wg.Add(1)
		go func(c mpi.Comm) {
			defer wg.Done()
			// All-to-all so both shm and TCP pairs carry payload.
			var reqs []mpi.Request
			got := make([][]byte, n)
			for p := 0; p < n; p++ {
				if p == c.Rank() {
					continue
				}
				got[p] = make([]byte, 512)
				reqs = append(reqs, mpi.Irecv(c, got[p], p, 2))
			}
			for p := 0; p < n; p++ {
				if p == c.Rank() {
					continue
				}
				out := make([]byte, 512)
				for i := range out {
					out[i] = byte(c.Rank()*13 + i)
				}
				reqs = append(reqs, mpi.Isend(c, out, p, 2))
			}
			if err := mpi.WaitAll(reqs); err != nil {
				errs <- err
				return
			}
			for p := 0; p < n; p++ {
				if p == c.Rank() {
					continue
				}
				for i := range got[p] {
					if got[p][i] != byte(p*13+i) {
						errs <- fmt.Errorf("rank %d: corrupted payload from %d", c.Rank(), p)
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
	for _, c := range comms {
		s := c.(*node).TransportStats()
		if s.ShmLinks != 1 {
			t.Fatalf("rank %d: %d shm links, want 1 (one co-located peer)", c.Rank(), s.ShmLinks)
		}
		if s.ShmBytesSent == 0 || s.TCPBytesSent == 0 {
			t.Fatalf("rank %d: byte split shm=%d tcp=%d, want both non-zero", c.Rank(), s.ShmBytesSent, s.TCPBytesSent)
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
			_, closeFn, err := join(coord.Addr(), 0, meshBound, WithoutSharedMemory())
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
	msg, _ := json.Marshal(hello{Addr: addr, Host: "ghost"})
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
// rank, over sockets and over shm segments alike.
func TestJoinedCleanCloseIsNotAFault(t *testing.T) {
	for _, opts := range [][]Option{{WithoutSharedMemory()}, nil} {
		const n = 4
		comms, closers := joinRanks(t, n, opts...)
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
			t.Errorf("clean staggered close looked like a fault (opts %d): %+v", len(opts), s)
		}
	}
}

// joinAsync starts k Joins against coordAddr and returns the channel their
// errors arrive on.
func joinAsync(coordAddr string, k int) <-chan error {
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			_, closeFn, err := Join(coordAddr, WithoutSharedMemory())
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
	c, closeFn, err := JoinRetry(addr, 5*time.Second, WithoutSharedMemory())
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
		comms, closers := joinAll(t, coord.Addr(), 2, WithoutSharedMemory())
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
	_, closers := joinAll(t, coord.Addr(), n, WithoutSharedMemory())
	for _, fn := range closers {
		fn()
	}
	surplus.SetDeadline(time.Now().Add(rendezvousIO))
	_, err = rendezvous(surplus, hello{Addr: "127.0.0.1:1", Host: "surplus"})
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
	_, closers := joinAll(t, coord.Addr(), n, WithoutSharedMemory())
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
			ps[i] = hello{Addr: fmt.Sprintf("127.0.0.1:%d", 40000+i), Host: fmt.Sprintf("node%d", i%2), Shm: i%2 == 0}
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
	valid := seed(book{Rank: 2, Token: worldToken("127.0.0.1:7791"), Peers: peers(4)})
	f.Add(valid)
	f.Add(seed(book{Abort: "tcp: rendezvous timed out with 2 of 3 ranks"}))
	f.Add(seed(book{Rank: 4, Token: "t", Peers: peers(4)}))
	f.Add(seed(book{Rank: -1, Token: "t", Peers: peers(4)}))
	f.Add(valid[:len(valid)/2])
	big := seed(book{Rank: 0, Token: "t", Peers: peers(12)})
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
			if b.Rank < 0 || b.Rank >= len(b.Peers) || b.Abort != "" || strings.ContainsAny(b.Token, `/\`) {
				t.Fatalf("accepted a book no coordinator sends: %+v", b)
			}
		}
	})
}
