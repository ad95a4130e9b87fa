package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

var (
	errClosed = errors.New("tcp: world closed")
	// errPeerClosed is what a peer's goodbye turns into: the rank at the
	// other end closed in good order and will neither send nor read again.
	errPeerClosed = errors.New("tcp: peer closed its end")
)

// meshTimeout bounds the initial mesh: every dial, and the wait for the
// higher ranks' dials. A peer that dies between rendezvous and mesh fails
// its neighbours' set-up instead of hanging it.
const meshTimeout = 10 * time.Second

// handshakeTimeout bounds how long an accepted socket may take to say who
// it is.
const handshakeTimeout = 5 * time.Second

// shared is what the ranks of one process have in common. The nodes of an
// in-process world share one — a buffer a rank frees is the next rank's
// hit, and the counters describe the world; a joined rank has its own.
type shared struct {
	cfg   Config
	start time.Time
	stats stats
	// pool recycles per-message payload buffers: receive payloads, send
	// copies, self-send loopback copies.
	pool bufPool
	// recvOps and sendFrames recycle posted-receive operations and send
	// frames.
	recvOps    mpi.Freelist[recvOp]
	sendFrames mpi.Freelist[outFrame]
	// ln is the process's listening socket, the one higher ranks dial — first
	// for the mesh, later to replace a broken socket. The ranks of an
	// in-process world share it, since a listen costs more than the rest of a
	// node's set-up. accepting counts its accept loop and handshakes in flight.
	ln        net.Listener
	accepting sync.WaitGroup
	// addrs[r] is the listener to dial for rank r.
	addrs []string
	// nodes[r] is rank r's node, nil if r lives in another process.
	nodes []*node
}

// node is one rank: its end of the link to every peer and the matcher that
// pairs what those links deliver with posted receives. NewWorld and Join
// differ only in how they wire a node's links.
type node struct {
	*shared
	rank, n int

	matcher *matcher
	// links[p] is this rank's end of the pair (rank, p); nil at p == rank.
	links []*link

	// killed is set, once, by Kill: why every operation of this rank fails.
	killed atomic.Pointer[mpi.RankError]

	// barrierGen counts this rank's completed barriers, keeping the
	// reserved tags of successive barriers distinct.
	barrierGen int

	// ctx ends when the rank starts closing: from then on a break fails
	// closed instead of redialing.
	ctx     context.Context
	closing context.CancelFunc
	wg      sync.WaitGroup
}

// newNode builds rank's node: every link waiting for its first connection,
// its writer ready.
func newNode(rank, n int, sh *shared) *node {
	nd := &node{shared: sh, rank: rank, n: n, links: make([]*link, n)}
	nd.ctx, nd.closing = context.WithCancel(context.Background())
	nd.matcher = newMatcher(n, sh, nd.Now)
	for p := range nd.links {
		if p != rank {
			lk := &link{nd: nd, peer: p}
			lk.cond, lk.st.cond = sync.NewCond(&lk.mu), sync.NewCond(&lk.st.mu)
			nd.links[p] = lk
			nd.wg.Add(1)
			go lk.writer()
		}
	}
	return nd
}

// serve accepts on the process's listener until it is closed. Every socket
// is heard out on its own goroutine, so one that never says who it is delays
// no one else.
func (sh *shared) serve() {
	defer sh.accepting.Done()
	for {
		conn, err := sh.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sh.accepting.Add(1)
		go func() {
			defer sh.accepting.Done()
			tuneConn(conn)
			from, to, flags, err := readHandshake(conn, handshakeTimeout)
			if err != nil || to < 0 || from <= to || from >= len(sh.nodes) || sh.nodes[to] == nil {
				conn.Close() // not a handshake this process expects
				return
			}
			sh.nodes[to].links[from].adopt(conn, flags == hsReconnect)
		}()
	}
}

// shutdown closes the process's ranks in good order, one after the other,
// and accounts for them once.
func (sh *shared) shutdown() error {
	err := sh.ln.Close()
	sh.accepting.Wait()
	for _, nd := range sh.nodes {
		if nd != nil {
			nd.shutdown()
		}
	}
	sh.cfg.report(sh.stats.snapshot())
	return err
}

// dialMesh connects this rank to every lower rank, and gives every higher
// rank the same bound to dial in.
func (nd *node) dialMesh(bound time.Duration) error {
	for p, lk := range nd.links {
		if lk == nil {
			continue
		}
		if p > nd.rank {
			lk.mu.Lock()
			if lk.state == linkConnecting { // else it already has
				lk.expectDialLocked(bound, fmt.Errorf("tcp: rank %d: mesh timed out after %v waiting for rank %d to dial in", nd.rank, bound, p))
			}
			lk.mu.Unlock()
			continue
		}
		conn, err := lk.dial(hsInitial, bound)
		if err != nil {
			return err
		}
		lk.install(conn)
	}
	return nil
}

// awaitMesh waits until every link is up, or one has failed.
func (nd *node) awaitMesh() error {
	for _, lk := range nd.links {
		if lk != nil {
			if _, _, err := lk.acquire(); err != nil {
				return err
			}
		}
	}
	return nil
}

// shutdown closes the rank in good order: from here on a break fails closed
// instead of redialing; every live link drains and says goodbye, so the
// peers — which may run on for a while — see a departure, not a fault; then
// the links go down and every goroutine of the rank is waited for.
func (nd *node) shutdown() {
	nd.closing()
	deadline := time.Now().Add(closeLinger)
	for _, lk := range nd.links {
		if lk != nil {
			lk.goodbye(deadline)
		}
	}
	for _, lk := range nd.links {
		if lk != nil {
			lk.reader.Wait()
			lk.down(lk.peer, errClosed)
		}
	}
	nd.wg.Wait()
}

// Kill simulates the death of this rank's process (mpi.Killer): no goodbye,
// every link torn down, and every pending or future operation naming the
// rank — its own, and in an in-process world the peers', whose ends are
// taken down here rather than left to notice — fails with a *mpi.RankError.
// A joined rank's peers find out from their sockets. Dying twice is a no-op.
func (nd *node) Kill() error {
	cause := fmt.Errorf("tcp: rank %d killed", nd.rank)
	err := &mpi.RankError{Rank: nd.rank, Err: cause}
	if !nd.killed.CompareAndSwap(nil, err) {
		return nil
	}
	for _, lk := range nd.links {
		if lk != nil {
			lk.down(nd.rank, cause)
		}
	}
	// The rank's own matcher fails wholesale, self traffic included.
	nd.matcher.fail(nd.rank, err)
	for _, peer := range nd.nodes {
		if peer != nil && peer != nd {
			peer.links[nd.rank].down(nd.rank, cause)
		}
	}
	return nil
}
