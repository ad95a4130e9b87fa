package tcp

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// Distributed mode: each rank lives in its own process (or goroutine) and
// finds its peers through a rendezvous coordinator, after which it is one
// node of a full mesh — the same node, over the same links, that NewWorld
// wires n of inside one process. This is the deployable analogue of an MPI
// launcher: start a coordinator for n ranks, start n processes that Join it,
// and run any algorithm over the returned Comm.
//
// Rendezvous protocol: two JSON messages per joiner, each read through a
// byte bound.
//
//  1. Each joiner dials the coordinator, opens its own listener on the local
//     IP of that connection (the interface the coordinator reached it on,
//     so peers on other hosts can dial it too) and sends a hello: its
//     listener address, {"Addr":"host:port"}.
//  2. After n hellos, the coordinator assigns ranks in arrival order and
//     answers every joiner with a book: its rank and every rank's hello,
//     {"Rank":r,"Peers":[...]}. An aborted rendezvous answers with a book
//     that carries only the reason, and so does every connection beyond the
//     n-th. The coordinator then closes the connection.
//  3. Joiner r links to every peer over a socket, co-located or not: it
//     dials (r > p, with the usual from/to handshake) or is dialed (r < p).
//     The listener stays open: it is where a higher rank redials a broken
//     socket.
//
// Failure model: the coordinator tracks joiner health during rendezvous —
// a joiner that disconnects before the world is complete, or a rendezvous
// that exceeds its deadline, aborts it: every waiting joiner gets the
// reason and fails with it instead of hanging; a peer that dies between the
// book and the mesh fails its neighbours' Join within meshTimeout.
// JoinRetry dials a not-yet-started coordinator with backoff. Once the mesh
// is up a link survives breaks exactly as in an in-process world
// (redial, retransmit); what cannot be recovered surfaces as a typed
// *mpi.RankError through the matcher.

// hello is what a joiner tells the coordinator about itself.
type hello struct {
	Addr string // the joiner's listener, where peers dial it
}

// book is the coordinator's one answer to a joiner: its rank and every
// rank's hello, or the reason the rendezvous was aborted.
type book struct {
	Rank  int
	Peers []hello
	Abort string `json:",omitempty"`
}

// Byte bounds on the two messages, and the time the coordinator gives a
// joiner to send its hello or take its book. Once the world is complete (or
// aborted), a connection still owing its hello gets only helloGrace: a
// joiner writes its hello right after its dial, so 200 ms is ample for one,
// and a connection silent that long never said it was a joiner.
const (
	maxHelloBytes = 16 << 10
	maxBookBytes  = 16 << 20
	rendezvousIO  = 10 * time.Second
	helloGrace    = 200 * time.Millisecond
)

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
	go func() { c.done <- c.serve() }()
	return c, nil
}

// Addr returns the coordinator's listen address for joiners.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Wait blocks until every rank has been given the address book (or the
// rendezvous failed) and returns the outcome.
func (c *Coordinator) Wait() error { return <-c.done }

// Close stops the coordinator's listener.
func (c *Coordinator) Close() error { return c.ln.Close() }

// arrival is a joiner's hello, or the accept loop's end.
type arrival struct {
	conn net.Conn
	h    hello
	err  error
}

// serve runs the rendezvous until every joiner has its book, or it aborts.
// Then it closes the listener, so a dial after Wait returns is refused, and
// answers every connection it accepted beyond the world with an abort: one
// whose hello arrives within helloGrace. A connection that stays silent is
// closed unanswered, so it holds Wait for at most helloGrace.
func (c *Coordinator) serve() error {
	arrivals := make(chan arrival)
	var readers sync.WaitGroup // the accept loop and the hello readers it starts
	// accepted is every connection taken; cutoff, zero until assemble
	// returns, is then the deadline of every hello still being read.
	var mu sync.Mutex
	var accepted []net.Conn
	var cutoff time.Time
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			conn, err := c.ln.Accept()
			if err != nil {
				arrivals <- arrival{err: err}
				return
			}
			mu.Lock()
			if cutoff.IsZero() {
				conn.SetReadDeadline(time.Now().Add(rendezvousIO))
			} else {
				conn.SetReadDeadline(cutoff)
			}
			accepted = append(accepted, conn)
			mu.Unlock()
			readers.Add(1)
			go func() {
				defer readers.Done()
				var h hello
				err := json.NewDecoder(io.LimitReader(conn, maxHelloBytes)).Decode(&h)
				conn.SetReadDeadline(time.Time{})
				if err != nil {
					conn.Close()
					return
				}
				arrivals <- arrival{conn: conn, h: h}
			}()
		}
	}()
	err := c.assemble(arrivals)
	c.ln.Close()
	mu.Lock()
	cutoff = time.Now().Add(helloGrace)
	for _, conn := range accepted {
		conn.SetReadDeadline(cutoff)
	}
	mu.Unlock()
	go func() {
		readers.Wait()
		close(arrivals)
	}()
	reason := fmt.Sprintf("world of %d is complete", c.n)
	if err != nil {
		reason = err.Error()
	}
	for a := range arrivals {
		if a.conn != nil {
			sendBook(a.conn, book{Abort: reason}) // best effort
		}
	}
	return err
}

// assemble takes the first n hellos and sends each joiner its book, or
// aborts every joiner it took.
func (c *Coordinator) assemble(arrivals <-chan arrival) error {
	deaths := make(chan int, c.n)
	var timeoutCh <-chan time.Time
	if c.timeout > 0 {
		tm := time.NewTimer(c.timeout)
		defer tm.Stop()
		timeoutCh = tm.C
	}
	conns := make([]net.Conn, 0, c.n)
	peers := make([]hello, 0, c.n)
	abort := func(reason error) error {
		for _, conn := range conns {
			sendBook(conn, book{Abort: reason.Error()}) // best effort
		}
		return reason
	}
	for len(conns) < c.n {
		select {
		case a := <-arrivals:
			if a.err != nil {
				return abort(fmt.Errorf("tcp: coordinator accept: %w", a.err))
			}
			idx := len(conns)
			conns, peers = append(conns, a.conn), append(peers, a.h)
			// Health monitor: joiners send nothing after their hello, so a
			// successful read — or any error — before rendezvous completion
			// means the joiner is gone.
			go func() {
				var b [1]byte
				a.conn.Read(b[:])
				deaths <- idx
			}()
		case idx := <-deaths:
			return abort(fmt.Errorf("tcp: joiner %d (of %d joined, world %d) died before rendezvous completed",
				idx, len(conns), c.n))
		case <-timeoutCh:
			return abort(fmt.Errorf("tcp: rendezvous timed out with %d of %d ranks", len(conns), c.n))
		}
	}
	for rank, conn := range conns {
		if err := sendBook(conn, book{Rank: rank, Peers: peers}); err != nil {
			// A joiner died mid-book: abort the rest so nobody hangs
			// waiting for addresses that will never come.
			return abort(fmt.Errorf("tcp: sending address book to rank %d: %w", rank, err))
		}
	}
	return nil
}

// sendBook writes b to a joiner and closes the connection.
func sendBook(conn net.Conn, b book) error {
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(rendezvousIO))
	return json.NewEncoder(conn).Encode(b)
}

// rendezvous is the joiner's side of the exchange: it sends h, reads the
// book back and closes coord.
func rendezvous(coord net.Conn, h hello) (book, error) {
	defer coord.Close()
	// Marshal, not Encode: the coordinator takes any byte after the hello,
	// even Encode's newline, as this joiner leaving.
	msg, _ := json.Marshal(h) // a string always marshals
	if _, err := coord.Write(msg); err != nil {
		return book{}, err
	}
	return readBook(coord, maxBookBytes)
}

// readBook decodes a book from at most limit bytes of r and checks it: an
// abort fails with the coordinator's reason, and the rank must index Peers.
func readBook(r io.Reader, limit int64) (book, error) {
	var b book
	if err := json.NewDecoder(io.LimitReader(r, limit)).Decode(&b); err != nil {
		return book{}, fmt.Errorf("tcp: reading rendezvous book: %w", err)
	}
	switch {
	case b.Abort != "":
		return book{}, fmt.Errorf("tcp: rendezvous aborted by coordinator: %s", b.Abort)
	case b.Rank < 0 || b.Rank >= len(b.Peers):
		return book{}, fmt.Errorf("tcp: coordinator assigned rank %d of %d", b.Rank, len(b.Peers))
	}
	return b, nil
}

// Join connects this process to a distributed world through the coordinator
// and returns its communicator once the full mesh is up. The cleanup
// function says goodbye on, and closes, all links. Join fails fast if the
// coordinator is unreachable; use JoinRetry to tolerate a coordinator that
// starts later.
func Join(coordAddr string, opts ...Option) (mpi.Comm, func() error, error) {
	return join(coordAddr, 0, meshTimeout, opts...)
}

// JoinRetry is Join with startup retry: dialing the coordinator is retried
// with exponential backoff until it succeeds or the window elapses. Errors
// after the dial (an aborted rendezvous, a failed mesh) are not retried.
func JoinRetry(coordAddr string, window time.Duration, opts ...Option) (mpi.Comm, func() error, error) {
	return join(coordAddr, window, meshTimeout, opts...)
}

// join is Join with the coordinator dial's retry window and the mesh phase's
// bound (meshTimeout outside tests) spelled out.
func join(coordAddr string, retryWindow, meshBound time.Duration, opts ...Option) (mpi.Comm, func() error, error) {
	coord, err := dialRetry(coordAddr, retryWindow)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", listenAddr(coord.LocalAddr().String()))
	if err != nil {
		coord.Close()
		return nil, nil, err
	}
	b, err := rendezvous(coord, hello{Addr: ln.Addr().String()})
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	rank, n := b.Rank, len(b.Peers)
	sh := &shared{cfg: newConfig(opts), start: time.Now(), ln: ln, addrs: make([]string, n), nodes: make([]*node, n)}
	nd := newNode(rank, n, sh)
	sh.nodes[rank] = nd
	for p, peer := range b.Peers {
		sh.addrs[p] = peer.Addr
	}
	closeFn := sync.OnceValue(sh.shutdown)
	sh.accepting.Add(1)
	go sh.serve()
	if err = nd.dialMesh(meshBound); err == nil {
		err = nd.awaitMesh()
	}
	if err != nil {
		closeFn()
		return nil, nil, err
	}
	return nd, closeFn, nil
}

// listenAddr is where a joiner listens: on the local IP of its connection
// to the coordinator, coordLocal, at any port. Peers reach the joiner on
// the interface the coordinator did; a loopback coordinator still yields a
// loopback listener.
func listenAddr(coordLocal string) string {
	host, _, _ := net.SplitHostPort(coordLocal)
	return net.JoinHostPort(host, "0")
}

// dialRetry dials addr, retrying with exponential backoff for up to window
// when window > 0.
func dialRetry(addr string, window time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(window)
	for backoff := 10 * time.Millisecond; ; backoff = min(2*backoff, 640*time.Millisecond) {
		conn, err := net.Dial("tcp", addr)
		if err == nil || window <= 0 {
			return conn, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("tcp: coordinator unreachable after %v: %w", window, err)
		}
		time.Sleep(backoff)
	}
}
