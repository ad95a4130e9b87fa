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
// the resilience layer: with the first frame of every pair dropped, the
// ranks must record reconnects or retransmits, not silently deliver on the
// first try — in one process and across a joined mesh.
func TestTransferReconnectRecovers(t *testing.T) {
	plan := &faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Kind: faults.Drop, Src: faults.Any, Dst: faults.Any, Count: 1},
	}}
	for wiring, run := range tcpWirings {
		t.Run(wiring, func(t *testing.T) {
			var recovered bool
			err := run(2, func(c mpi.Comm) error {
				x := xfer{Size: 24, Seed: 11}
				const tag = 2
				if c.Rank() == 0 {
					if err := mpi.WaitTimeout(mpi.Isend(c, x.payload(), 1, tag), quickOpTimeout); err != nil {
						return err
					}
				} else {
					buf := make([]byte, x.Size)
					if err := mpi.WaitTimeout(mpi.Irecv(c, buf, 0, tag), quickOpTimeout); err != nil {
						return err
					}
					if !bytes.Equal(buf, x.payload()) {
						return fmt.Errorf("payload diverged across reconnect")
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				// Rank 0 is the sender whose first frame was dropped: its own
				// counters show the retransmission in either wiring (a world
				// shares them, a joined rank counts its own), and sampling on
				// one rank keeps the flag single-writer.
				if c.Rank() == 0 {
					s := c.(interface{ TransportStats() tcp.Stats }).TransportStats()
					recovered = s.Reconnects > 0 || s.Retransmits > 0
				}
				return nil
			}, tcp.WithFaults(faults.New(plan)))
			if err != nil {
				t.Fatal(err)
			}
			if !recovered {
				t.Fatal("fault plan injected no reconnect/retransmit: property test not covering recovery")
			}
		})
	}
}
