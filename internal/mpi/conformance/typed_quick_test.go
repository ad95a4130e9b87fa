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
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/shm"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
	"github.com/aapc-sched/aapcsched/internal/simnet"
)

// xfer is one randomly drawn typed transfer. The payload size factors as
// A*B*C so the sender's strided view (A blocks of B*C bytes) and the
// receiver's differently-strided view (A*B blocks of C bytes) always cover
// the same byte count while disagreeing on layout.
type xfer struct {
	A, B, C    int
	SPad, RPad int // gap bytes between consecutive blocks
	Seed       int64
}

// Generate implements quick.Generator with always-valid dimensions.
func (xfer) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(xfer{
		A:    1 + r.Intn(5),
		B:    1 + r.Intn(5),
		C:    1 + r.Intn(6),
		SPad: r.Intn(9),
		RPad: r.Intn(9),
		Seed: r.Int63(),
	})
}

// layouts builds the two views; rdt degenerates to a contiguous layout
// whenever RPad is zero, so the strided<->contiguous corner is drawn too.
func (x xfer) layouts() (sdt, rdt mpi.Datatype) {
	sdt = mpi.Vector(x.A, x.B*x.C, x.B*x.C+x.SPad)
	if x.RPad == 0 {
		rdt = mpi.Contiguous(x.A * x.B * x.C)
	} else {
		rdt = mpi.Vector(x.A*x.B, x.C, x.C+x.RPad)
	}
	return sdt, rdt
}

// typedRunner is one row of the typed-transfer table: run builds a 2-rank
// world, and wrap (when non-nil) decorates each rank's comm before use — the
// raw comm stays visible so transport counters can be sampled underneath
// the wrapper.
type typedRunner struct {
	run  func(fn func(c mpi.Comm) error) error
	wrap func(c mpi.Comm) mpi.Comm
}

// runTyped executes the transfer on a 2-rank world: rank 1 pre-posts its
// receive view, rank 0 sends its strided view under a trace context, and
// the property holds when the packed byte streams agree, no byte outside the
// receiver's blocks was touched, the receive learned exactly the sender's
// context, and — on transports with tcp counters — the strided send was
// borrowed straight off the caller's layout, never staged through a pack
// buffer or a pooled copy.
func (x xfer) runTyped(r typedRunner) error {
	sdt, rdt := x.layouts()
	payload := make([]byte, sdt.Size())
	rng := rand.New(rand.NewSource(x.Seed))
	rng.Read(payload)
	ctx := mpi.MakeTraceCtx(0, uint64(x.Seed)|1)
	return r.run(func(raw mpi.Comm) error {
		const tag = 7
		c := raw
		if r.wrap != nil {
			c = r.wrap(raw)
		}
		if c.Rank() == 0 {
			base := make([]byte, sdt.Extent())
			for i := range base {
				base[i] = 0xEE
			}
			sdt.Unpack(base, payload)
			if err := c.Barrier(); err != nil { // the receive is posted
				return err
			}
			// Only a genuinely strided view is held to the no-staging rule: a
			// drawn layout that degenerates to contiguous is a small plain
			// send, which the resilient world copies on purpose.
			st, counted := raw.(interface{ TransportStats() tcp.Stats })
			counted = counted && !sdt.Contig()
			var before tcp.Stats
			if counted {
				before = st.TransportStats()
			}
			req := c.Isend(mpi.Op{Buf: base, Type: sdt, Peer: 1, Tag: tag, Ctx: ctx})
			if err := mpi.WaitTimeout(req, quickOpTimeout); err != nil {
				return err
			}
			if counted {
				after := st.TransportStats()
				if after.CopiedSends != before.CopiedSends || after.BorrowedSends != before.BorrowedSends+1 {
					return fmt.Errorf("strided send staged instead of borrowed for %+v: copied +%d, borrowed +%d", x,
						after.CopiedSends-before.CopiedSends, after.BorrowedSends-before.BorrowedSends)
				}
				// A strided receive layout costs the one scatter copy by
				// design; a contiguous pre-posted one must cost none.
				if rdt.Contig() && after.PayloadCopies != before.PayloadCopies {
					return fmt.Errorf("pre-posted contiguous receive of a strided send copied payload %d times for %+v",
						after.PayloadCopies-before.PayloadCopies, x)
				}
			}
			return nil
		}
		base := make([]byte, rdt.Extent())
		for i := range base {
			base[i] = 0xEE
		}
		req := mpi.IrecvTyped(c, base, rdt, 0, tag)
		if err := c.Barrier(); err != nil {
			//aapc:allow waitcheck the world is torn down on a failed barrier
			return err
		}
		info, err := req.Wait(quickOpTimeout)
		if err != nil {
			return err
		}
		if info.Ctx != ctx {
			return fmt.Errorf("receive learned ctx %#x, sender attached %#x, for %+v", info.Ctx, ctx, x)
		}
		want := make([]byte, rdt.Extent())
		for i := range want {
			want[i] = 0xEE
		}
		rdt.Unpack(want, payload)
		if !bytes.Equal(base, want) {
			got := make([]byte, rdt.Size())
			rdt.Pack(got, base)
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("packed stream diverged for %+v", x)
			}
			return fmt.Errorf("bytes outside receive blocks clobbered for %+v", x)
		}
		return nil
	})
}

const quickOpTimeout = 30 * time.Second // far above any healthy transfer

// TestTypedTransferQuick is the cross-transport property test: any randomly
// drawn strided<->strided (or strided<->contiguous) transfer is
// byte-identical after packing, and carries its trace context, on every
// transport — including a TCP world whose first data frame per pair is
// force-dropped so delivery rides the reconnect + retransmit path, and a TCP
// world behind the fault injector's comm wrapper, which must forward the
// op's layout and context untouched.
func TestTypedTransferQuick(t *testing.T) {
	dropFirst := &faults.Plan{Seed: 99, Rules: []faults.Rule{
		{Kind: faults.Drop, Src: faults.Any, Dst: faults.Any, Count: 1},
	}}
	runners := map[string]typedRunner{
		"mem": {run: func(fn func(c mpi.Comm) error) error { return mem.Run(2, fn) }},
		"shm": {run: func(fn func(c mpi.Comm) error) error { return shm.Run(2, fn) }},
		"tcp": {run: func(fn func(c mpi.Comm) error) error { return tcp.Run(2, fn) }},
		"tcp-reconnect": {run: func(fn func(c mpi.Comm) error) error {
			return tcp.Run(2, fn, tcp.WithFaults(faults.New(dropFirst)))
		}},
		"tcp-faults-rankonly": {
			run:  func(fn func(c mpi.Comm) error) error { return tcp.Run(2, fn) },
			wrap: faults.New(nil).WrapRankOnly,
		},
		"tcp-distributed":     {run: distributedRunner(2)},
		"tcp-distributed-tcp": {run: distributedRunner(2, tcp.WithoutSharedMemory())},
		"simnet": {run: func(fn func(c mpi.Comm) error) error {
			w, err := simnet.NewWorld(simnet.Config{Graph: starGraph(2)})
			if err != nil {
				return err
			}
			return w.Run(fn)
		}},
	}
	for name, runner := range runners {
		name, runner := name, runner
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := &quick.Config{
				MaxCount: 10,
				Rand:     rand.New(rand.NewSource(int64(len(name)) * 7919)),
			}
			if err := quick.Check(func(x xfer) bool {
				if err := x.runTyped(runner); err != nil {
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

// TestTypedTransferReconnectRecovers pins the fault variant actually
// exercising the resilience layer: with the first frame of every pair
// dropped, the ranks must record reconnects or retransmits, not silently
// deliver on the first try — in one process and across a joined mesh.
func TestTypedTransferReconnectRecovers(t *testing.T) {
	plan := &faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Kind: faults.Drop, Src: faults.Any, Dst: faults.Any, Count: 1},
	}}
	for wiring, run := range tcpWirings {
		t.Run(wiring, func(t *testing.T) {
			var recovered bool
			err := run(2, func(c mpi.Comm) error {
				x := xfer{A: 3, B: 2, C: 4, SPad: 3, RPad: 1, Seed: 11}
				sdt, rdt := x.layouts()
				payload := make([]byte, sdt.Size())
				rand.New(rand.NewSource(x.Seed)).Read(payload)
				const tag = 2
				if c.Rank() == 0 {
					base := make([]byte, sdt.Extent())
					sdt.Unpack(base, payload)
					if err := mpi.WaitTimeout(mpi.IsendTyped(c, base, sdt, 1, tag), quickOpTimeout); err != nil {
						return err
					}
				} else {
					base := make([]byte, rdt.Extent())
					if err := mpi.WaitTimeout(mpi.IrecvTyped(c, base, rdt, 0, tag), quickOpTimeout); err != nil {
						return err
					}
					got := make([]byte, rdt.Size())
					rdt.Pack(got, base)
					if !bytes.Equal(got, payload) {
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
