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
// finds its peers through a rendezvous coordinator, after which it is one
// node of a full mesh — the same node, over the same links, that NewWorld
// wires n of inside one process. This is the deployable analogue of an MPI
// launcher: start a coordinator for n ranks, start n processes that Join it,
// and run any algorithm over the returned Comm.
//
// Rendezvous protocol (all integers little-endian uint32, strings
// length-prefixed):
//
//  1. Each joiner opens its own listener, dials the coordinator and sends
//     its listener address, its host identity, and whether it can map
//     shared-memory segments.
//  2. After n joiners, the coordinator assigns ranks in arrival order and
//     sends every joiner its rank, the world size, a world token, and all
//     addresses, hosts and shm flags — the book.
//  3. Joiner r links to every peer: pairs on the same host with shm
//     capability on both sides ride a shared-memory pair segment (the
//     lower rank creates it under the world token, the higher rank
//     attaches), so co-located traffic never touches a socket; everyone
//     else dials (r > p, with the usual from/to handshake) or is dialed
//     (r < p). The listener stays open: it is where a higher rank redials a
//     broken socket.
//
// Failure model: the coordinator tracks joiner health during rendezvous —
// a joiner that disconnects before the world is complete, or a rendezvous
// that exceeds its deadline, triggers a clean abort broadcast (rank
// abortRank) so every waiting joiner errors out instead of hanging; a peer
// that dies between the book and the mesh fails its neighbours' Join within
// meshTimeout. JoinRetry dials a not-yet-started coordinator with backoff.
// Once the mesh is up a socket link survives breaks exactly as in an
// in-process world (redial, retransmit); what cannot be recovered surfaces
// as a typed *mpi.RankError through the matcher.

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

// shmLinkRingBytes is the per-direction ring capacity of a shared-memory
// link: a few large frames of headroom so the writer rarely stalls behind
// the reader.
const shmLinkRingBytes = 1 << 20

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
func hostIdentity(cfg *Config) string {
	if cfg.Host != "" {
		return cfg.Host
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
	cfg := newConfig(opts)
	host := hostIdentity(&cfg)
	shmOK := !cfg.NoShm && shm.MapAvailable() && os.Getenv("AAPC_SHM") != "0"
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
	if rank >= n {
		ln.Close()
		coord.Close()
		return nil, nil, fmt.Errorf("tcp: coordinator assigned rank %d of %d", rank, n)
	}
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
	// both sides always agree: a shared-memory pair segment when co-located
	// and capable on both ends — it cannot be redialed, so its break fails
	// closed — and a socket otherwise.
	sh := &shared{cfg: cfg, start: time.Now(), ln: ln, addrs: addrs, nodes: make([]*node, n)}
	nd := newNode(rank, n, sh)
	sh.nodes[rank] = nd
	for p, lk := range nd.links {
		if p != rank && shmFlags[p] && shmFlags[rank] && hosts[p] == hosts[rank] {
			lk.shm = true
			nd.stats.shmLinks.Add(1)
		}
	}
	closeFn := sync.OnceValue(sh.shutdown)
	sh.accepting.Add(1)
	go sh.serve()
	if err := nd.mesh(token, meshBound); err != nil {
		closeFn()
		return nil, nil, err
	}
	return nd, closeFn, nil
}

// mesh links a joined node to every peer within bound: segments first, then
// sockets.
func (nd *node) mesh(token string, bound time.Duration) error {
	me := nd.rank
	// Create the segments this rank owns (it is the lower rank of the pair)
	// before attaching to any: attachers poll for them, so publishing first
	// keeps the mesh free of ordering deadlocks.
	local := fmt.Sprintf("shm:%d", me)
	for _, create := range [2]bool{true, false} {
		for p, lk := range nd.links {
			if lk == nil || !lk.shm || (p > me) != create {
				continue
			}
			path, remote := segmentPath(token, min(me, p), max(me, p)), fmt.Sprintf("shm:%d", p)
			var conn *shm.Conn
			var err error
			if create {
				conn, err = shm.CreatePairConn(path, shmLinkRingBytes, local, remote)
			} else {
				conn, err = shm.OpenPairConn(path, shmLinkRingBytes, local, remote, bound)
			}
			if err != nil {
				return fmt.Errorf("tcp: rank %d linking to %d over shm: %w", me, p, err)
			}
			lk.install(conn)
		}
	}
	if err := nd.dialMesh(bound); err != nil {
		return err
	}
	return nd.awaitMesh()
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
