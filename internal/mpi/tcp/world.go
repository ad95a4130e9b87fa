package tcp

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// NewWorld builds an n-rank world over loopback TCP: n nodes inside one
// process, sharing one listener, one pool, one receive-op freelist and one
// set of counters, and knowing each other so that a kill reaches the peers'
// ends directly. The returned cleanup function says goodbye on and closes every
// socket, waits for all transport goroutines to exit and accounts for the
// world once.
func NewWorld(n int, opts ...Option) ([]mpi.Comm, func() error, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("tcp: world size %d", n)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	sh := &shared{cfg: newConfig(opts), start: time.Now(), ln: ln,
		addrs: make([]string, n), nodes: make([]*node, n)}
	for r := range sh.nodes {
		sh.addrs[r] = ln.Addr().String()
		sh.nodes[r] = newNode(r, n, sh)
	}
	closeAll := sync.OnceValue(sh.shutdown)
	sh.accepting.Add(1)
	go sh.serve()
	// Every node dials before any node waits: this one goroutine wires the
	// whole mesh, so a wait placed earlier would be for dials still to come.
	for _, nd := range sh.nodes {
		if err == nil {
			err = nd.dialMesh(meshTimeout)
		}
	}
	comms := make([]mpi.Comm, n)
	for r, nd := range sh.nodes {
		if err == nil {
			err = nd.awaitMesh()
		}
		comms[r] = nd
	}
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	return comms, closeAll, nil
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
