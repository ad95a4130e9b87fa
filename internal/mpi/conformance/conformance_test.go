// Package conformance cross-checks every transport in the repository —
// in-process (mem), in-process shared-memory rings (shm), loopback TCP
// (tcp), ranks joined through a coordinator into a socket mesh (tcp.Join)
// and the virtual-time simulator (simnet, on a one-switch star and on a
// two-switch tree) — against a common model: randomly generated message
// programs whose outcome is computable from MPI matching semantics
// (per-(source, destination, tag) FIFO). Any divergence in
// matching, ordering or payload delivery on any transport fails here.
package conformance

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/shm"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// message is one point-to-point transfer of the generated program.
type message struct {
	src, dst, tag int
	size          int
	seq           int // global index; determines the payload
}

// program is a randomly generated communication pattern in two barrier-
// separated rounds.
type program struct {
	n      int
	rounds [][]message
}

// payloadByte gives byte i of message seq.
func payloadByte(seq, i int) byte { return byte(seq*131 + i*7 + 3) }

// genProgram builds a random program: k messages per round with random
// endpoints, tags and sizes (including zero-length messages).
func genProgram(seed int64, n, rounds, perRound int) *program {
	rng := rand.New(rand.NewSource(seed))
	p := &program{n: n}
	seq := 0
	for r := 0; r < rounds; r++ {
		var ms []message
		for k := 0; k < perRound; k++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			for dst == src {
				dst = rng.Intn(n)
			}
			ms = append(ms, message{
				src:  src,
				dst:  dst,
				tag:  rng.Intn(3),
				size: rng.Intn(1500),
				seq:  seq,
			})
			seq++
		}
		p.rounds = append(p.rounds, ms)
	}
	return p
}

// runRank executes one rank's part of the program: per round, post all
// receives (in program order), then all sends, wait, verify, barrier.
func (p *program) runRank(c mpi.Comm) error {
	me := c.Rank()
	for ri, ms := range p.rounds {
		type pendingRecv struct {
			msg message
			buf []byte
			req mpi.Request
		}
		var recvs []pendingRecv
		var sends []mpi.Request
		for _, m := range ms {
			if m.dst == me {
				buf := make([]byte, m.size)
				recvs = append(recvs, pendingRecv{
					msg: m,
					buf: buf,
					req: mpi.Irecv(c, buf, m.src, m.tag),
				})
			}
		}
		for _, m := range ms {
			if m.src == me {
				buf := make([]byte, m.size)
				for i := range buf {
					buf[i] = payloadByte(m.seq, i)
				}
				sends = append(sends, mpi.Isend(c, buf, m.dst, m.tag))
			}
		}
		for _, pr := range recvs {
			if err := mpi.Wait(pr.req); err != nil {
				return fmt.Errorf("round %d msg %d: recv: %w", ri, pr.msg.seq, err)
			}
			for i, b := range pr.buf {
				if b != payloadByte(pr.msg.seq, i) {
					return fmt.Errorf("round %d msg %d (src %d tag %d): byte %d = %d, want %d",
						ri, pr.msg.seq, pr.msg.src, pr.msg.tag, i, b, payloadByte(pr.msg.seq, i))
				}
			}
		}
		if err := mpi.WaitAll(sends); err != nil {
			return fmt.Errorf("round %d: send: %w", ri, err)
		}
		if err := c.Barrier(); err != nil {
			return fmt.Errorf("round %d: barrier: %w", ri, err)
		}
	}
	return nil
}

// starGraph builds the simnet topology for n ranks.
func starGraph(n int) *topology.Graph {
	g := topology.New()
	sw := g.MustAddSwitch("sw")
	for i := 0; i < n; i++ {
		m := g.MustAddMachine(fmt.Sprintf("h%d", i))
		g.MustConnect(sw, m)
	}
	return g.MustValidate()
}

// treeGraph builds a two-switch tree for n ranks: the first half of the
// machines hang off one switch and the rest off the other, so messages
// between the halves cross the inter-switch link and take one hop more
// than those inside a half.
func treeGraph(n int) *topology.Graph {
	g := topology.New()
	sws := [2]int{g.MustAddSwitch("s0"), g.MustAddSwitch("s1")}
	g.MustConnect(sws[0], sws[1])
	for i := 0; i < n; i++ {
		m := g.MustAddMachine(fmt.Sprintf("h%d", i))
		g.MustConnect(sws[2*i/n], m)
	}
	return g.MustValidate()
}

// transports enumerates the runners under test.
func transports(t *testing.T, n int) map[string]func(fn func(c mpi.Comm) error) error {
	t.Helper()
	return map[string]func(fn func(c mpi.Comm) error) error{
		"mem": func(fn func(c mpi.Comm) error) error {
			return mem.Run(n, fn)
		},
		"tcp": func(fn func(c mpi.Comm) error) error {
			return tcp.Run(n, fn)
		},
		"shm": func(fn func(c mpi.Comm) error) error {
			return shm.Run(n, fn)
		},
		"tcp-distributed": distributedRunner(n),
		"simnet":          simnetRunner(starGraph(n)),
		"simnet-tree":     simnetRunner(treeGraph(n)),
	}
}

// simnetRunner builds a runner on the simulator over g.
func simnetRunner(g *topology.Graph) func(fn func(c mpi.Comm) error) error {
	return func(fn func(c mpi.Comm) error) error {
		w, err := simnet.NewWorld(simnet.Config{Graph: g})
		if err != nil {
			return err
		}
		return w.Run(fn)
	}
}

// distributedRunner builds a runner over a real coordinator rendezvous with
// n concurrent joiners.
func distributedRunner(n int, opts ...tcp.Option) func(fn func(c mpi.Comm) error) error {
	return func(fn func(c mpi.Comm) error) error {
		coord, err := tcp.StartCoordinator("127.0.0.1:0", n)
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, closeFn, err := tcp.Join(coord.Addr(), opts...)
				if err != nil {
					errs <- err
					return
				}
				err = fn(c)
				// Close only after every rank is done with the mesh.
				if berr := c.Barrier(); err == nil {
					err = berr
				}
				closeFn()
				errs <- err
			}()
		}
		wg.Wait()
		var first error
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
}

// TestTransportConformance runs the same random programs on every transport.
func TestTransportConformance(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		seed := int64(1000 + trial)
		n := 2 + trial%4 // 2..5 ranks
		prog := genProgram(seed, n, 3, 12)
		for name, runner := range transports(t, n) {
			name, runner := name, runner
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				if err := runner(prog.runRank); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			})
		}
	}
}

// TestTransportConformanceHeavy stresses one bigger program per transport:
// more ranks, more messages, larger payloads.
func TestTransportConformanceHeavy(t *testing.T) {
	const n = 8
	prog := genProgram(424242, n, 2, 120)
	for name, runner := range transports(t, n) {
		name, runner := name, runner
		t.Run(name, func(t *testing.T) {
			if err := runner(prog.runRank); err != nil {
				t.Fatal(err)
			}
		})
	}
}
