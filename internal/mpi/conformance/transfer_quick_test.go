package conformance

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
)

// xfer is one randomly drawn transfer: a Size-byte message into a receive
// buffer Slack bytes longer.
type xfer struct {
	Size, Slack int
	Seed        int64
}

// Generate implements quick.Generator. A third of the messages are empty;
// the rest reach past the tcp borrow threshold (1 KiB), so copied and
// borrowed sends are both drawn.
func (xfer) Generate(r *rand.Rand, _ int) reflect.Value {
	x := xfer{Slack: r.Intn(9), Seed: r.Int63()}
	if r.Intn(3) > 0 {
		x.Size = 1 + r.Intn(4<<10)
	}
	return reflect.ValueOf(x)
}

const quickOpTimeout = 30 * time.Second // far above any healthy transfer

// payload returns the message's bytes.
func (x xfer) payload() []byte {
	p := make([]byte, x.Size)
	rand.New(rand.NewSource(x.Seed)).Read(p)
	return p
}

// transfer runs x on a 2-rank world: rank 1 pre-posts its receive, rank 0
// sends under a trace context. It fails unless the receive holds exactly
// the message, the bytes past it are untouched, and the receive learned
// exactly the sender's context.
func (x xfer) transfer(c mpi.Comm) error {
	const tag = 7
	payload := x.payload()
	ctx := mpi.MakeTraceCtx(0, uint64(x.Seed)|1)
	if c.Rank() == 0 {
		if err := c.Barrier(); err != nil { // the receive is posted
			return err
		}
		return mpi.WaitTimeout(c.Isend(mpi.Op{Buf: payload, Peer: 1, Tag: tag, Ctx: ctx}), quickOpTimeout)
	}
	buf := bytes.Repeat([]byte{0xEE}, x.Size+x.Slack)
	req := mpi.Irecv(c, buf, 0, tag)
	if err := c.Barrier(); err != nil {
		return err
	}
	info, err := req.Wait(quickOpTimeout)
	if err != nil {
		return err
	}
	if info.Ctx != ctx {
		return fmt.Errorf("receive learned ctx %#x, sender attached %#x, for %+v", info.Ctx, ctx, x)
	}
	if !bytes.Equal(buf[:x.Size], payload) {
		return fmt.Errorf("payload diverged for %+v", x)
	}
	if bytes.Count(buf[x.Size:], []byte{0xEE}) != x.Slack {
		return fmt.Errorf("bytes past the message clobbered for %+v", x)
	}
	return nil
}

// TestTransferQuick is the cross-transport property test: any randomly
// drawn transfer, empty ones included, arrives byte-identical and carries
// its trace context on every transport — including a TCP world whose first
// data frame per pair is force-dropped so delivery rides the reconnect +
// retransmit path, and a TCP world behind the fault injector's comm
// wrapper, which must forward the op's context untouched.
func TestTransferQuick(t *testing.T) {
	dropFirst := &faults.Plan{Seed: 99, Rules: []faults.Rule{
		{Kind: faults.Drop, Src: faults.Any, Dst: faults.Any, Count: 1},
	}}
	runners := transports(t, 2)
	runners["tcp-reconnect"] = func(fn func(c mpi.Comm) error) error {
		return tcp.Run(2, fn, tcp.WithFaults(faults.New(dropFirst)))
	}
	runners["tcp-faults-rankonly"] = func(fn func(c mpi.Comm) error) error {
		inj := faults.New(nil)
		return tcp.Run(2, func(c mpi.Comm) error { return fn(inj.WrapRankOnly(c)) })
	}
	for name, run := range runners {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// Every row sends the empty message; quick draws the rest.
			if err := run(xfer{Slack: 4, Seed: 1}.transfer); err != nil {
				t.Fatalf("empty message: %v", err)
			}
			cfg := &quick.Config{
				MaxCount: 10,
				Rand:     rand.New(rand.NewSource(int64(len(name)) * 7919)),
			}
			if err := quick.Check(func(x xfer) bool {
				if err := run(x.transfer); err != nil {
					t.Log(err)
					return false
				}
				return true
			}, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTransferReconnectRecovers pins the fault variant actually exercising
// the resilience layer: with the first frame between two ranks dropped, the
// link breaks, the pair's higher rank redials and the sender retransmits —
// in one process and across a joined mesh, whose co-located ranks link
// through sockets like any others. The drop hits a send of the lower rank,
// which waits for the redial, and one of the higher rank, which redials
// itself.
func TestTransferReconnectRecovers(t *testing.T) {
	for wiring, run := range tcpWirings {
		t.Run(wiring, func(t *testing.T) {
			for src := 0; src < 2; src++ {
				t.Run(fmt.Sprintf("from%d", src), func(t *testing.T) {
					reconnectRecovers(t, run, src)
				})
			}
		})
	}
}

// reconnectRecovers drops the first frame rank src sends to its peer in a
// 2-rank world wired by run, and checks the payload still arrives intact
// after a redial and a retransmission.
func reconnectRecovers(t *testing.T, run func(n int, fn func(c mpi.Comm) error, opts ...tcp.Option) error, src int) {
	plan := &faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Kind: faults.Drop, Src: src, Dst: 1 - src, Count: 1},
	}}
	var comms [2]mpi.Comm
	err := run(2, func(c mpi.Comm) error {
		comms[c.Rank()] = c
		x := xfer{Size: 24, Seed: 11}
		const tag = 2
		if c.Rank() == src {
			if err := mpi.WaitTimeout(mpi.Isend(c, x.payload(), 1-src, tag), quickOpTimeout); err != nil {
				return err
			}
		} else {
			buf := make([]byte, x.Size)
			if err := mpi.WaitTimeout(mpi.Irecv(c, buf, src, tag), quickOpTimeout); err != nil {
				return err
			}
			if !bytes.Equal(buf, x.payload()) {
				return fmt.Errorf("payload diverged across reconnect")
			}
		}
		return c.Barrier()
	}, tcp.WithFaults(faults.New(plan)))
	if err != nil {
		t.Fatal(err)
	}
	// Read once the ranks are closed, when the redial has finished counting:
	// rank 1 redials and the sender retransmits (a world shares its
	// counters, a joined rank counts its own).
	stats := func(r int) tcp.Stats { return comms[r].(interface{ TransportStats() tcp.Stats }).TransportStats() }
	redialed, retransmitted := stats(1).Reconnects > 0, stats(src).Retransmits > 0
	if !redialed || !retransmitted {
		t.Fatalf("redialed=%v retransmitted=%v: the dropped frame did not go through a reconnect", redialed, retransmitted)
	}
}
