package collect

import (
	"fmt"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
	"github.com/aapc-sched/aapcsched/internal/obsv"
)

// Causal-linking invariants, exercised against the real transports: every
// cross-rank data receive must carry exactly one causal edge to its true
// sender span, and that must stay true when the wire misbehaves —
// retransmitted frames reuse their trace context, and the duplicate discard
// below the matcher keeps a re-delivered message from minting a second
// edge.

const linkTestRanks = 4

// tracedExchange sends one patterned message per directed pair through an
// instrumented comm, several rounds, and returns per-rank recorders.
func tracedExchange(t *testing.T, rounds, msize int, run func(fn func(c mpi.Comm) error) error) []*obsv.Recorder {
	t.Helper()
	recs := make([]*obsv.Recorder, linkTestRanks)
	for i := range recs {
		recs[i] = obsv.NewRecorder(i)
	}
	err := run(func(raw mpi.Comm) error {
		c := obsv.Instrument(raw, recs[raw.Rank()])
		me, n := c.Rank(), c.Size()
		for round := 0; round < rounds; round++ {
			reqs := make([]mpi.Request, 0, 2*(n-1))
			bufs := make([][]byte, n)
			for p := 0; p < n; p++ {
				if p == me {
					continue
				}
				out := make([]byte, msize)
				for i := range out {
					out[i] = byte(me + p + round + i)
				}
				reqs = append(reqs, mpi.Isend(c, out, p, 7))
				bufs[p] = make([]byte, msize)
				reqs = append(reqs, mpi.Irecv(c, bufs[p], p, 7))
			}
			if err := mpi.WaitAllTimeout(reqs, 20*time.Second); err != nil {
				return err
			}
			for p := 0; p < n; p++ {
				if p == me {
					continue
				}
				for i, b := range bufs[p] {
					if b != byte(p+me+round+i) {
						return fmt.Errorf("rank %d: corrupt byte %d from %d round %d", me, i, p, round)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	return recs
}

// checkLinking asserts the causal bijection on the recorded logs: every
// cross-rank data recv is linked, every link resolves to a real send span
// addressed to the receiver, and no send span is claimed twice.
func checkLinking(t *testing.T, recs []*obsv.Recorder, wantRecvs int) {
	t.Helper()
	store := NewStore()
	store.SetCommonClock(true)
	for _, r := range recs {
		store.AddEvents(r.Events())
	}
	byRank := store.ByRank()

	type edge struct {
		rank int
		seq  uint64
	}
	sends := make(map[edge]obsv.Event)
	for r, evs := range byRank {
		for _, ev := range evs {
			if ev.Kind == obsv.KindSend {
				sends[edge{r, ev.Seq}] = ev
			}
		}
	}

	claimed := make(map[edge]edge) // sender identity -> claiming recv identity
	recvs := 0
	for r, evs := range byRank {
		for _, ev := range evs {
			if ev.Kind != obsv.KindRecv || ev.Peer == r {
				continue
			}
			recvs++
			if ev.LinkSeq == 0 {
				t.Errorf("rank %d recv seq %d from %d: no causal link", r, ev.Seq, ev.Peer)
				continue
			}
			if ev.Deliver <= 0 {
				t.Errorf("rank %d recv seq %d: linked but no delivery stamp", r, ev.Seq)
			}
			src := edge{ev.Peer, ev.LinkSeq}
			send, ok := sends[src]
			if !ok {
				t.Errorf("rank %d recv seq %d: link to nonexistent send (%d, %d)", r, ev.Seq, ev.Peer, ev.LinkSeq)
				continue
			}
			if send.Peer != r {
				t.Errorf("rank %d recv seq %d: linked send was addressed to %d", r, ev.Seq, send.Peer)
			}
			if prev, dup := claimed[src]; dup {
				t.Errorf("send (%d, %d) claimed by two recvs: (%d,%d) and (%d,%d) — duplicate causal edge",
					src.rank, src.seq, prev.rank, prev.seq, r, ev.Seq)
			}
			claimed[src] = edge{r, ev.Seq}
		}
	}
	if recvs != wantRecvs {
		t.Errorf("saw %d cross-rank recv spans, want %d", recvs, wantRecvs)
	}
}

func TestCausalLinkingMem(t *testing.T) {
	const rounds = 3
	recs := tracedExchange(t, rounds, 256, func(fn func(c mpi.Comm) error) error {
		return mem.Run(linkTestRanks, fn)
	})
	checkLinking(t, recs, rounds*linkTestRanks*(linkTestRanks-1))
}

func TestCausalLinkingTCP(t *testing.T) {
	const rounds = 3
	recs := tracedExchange(t, rounds, 256, func(fn func(c mpi.Comm) error) error {
		return tcp.Run(linkTestRanks, fn)
	})
	checkLinking(t, recs, rounds*linkTestRanks*(linkTestRanks-1))
}

// TestCausalLinkingTCPReconnect drops connections under live traffic so the
// transport reconnects and retransmits. A retransmitted frame carries the
// same trace context; the receive cursor discards the re-delivered copy, so
// the causal edge count must not change.
func TestCausalLinkingTCPReconnect(t *testing.T) {
	plan, err := faults.ParsePlanString(`
seed 7
drop 0 1 count 2
drop 2 3 after 1 count 1
drop 1 2 count 1
`)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(plan)
	const rounds = 3
	recs := tracedExchange(t, rounds, 256, func(fn func(c mpi.Comm) error) error {
		return tcp.Run(linkTestRanks, fn, tcp.WithFaults(inj))
	})
	if len(inj.Events()) == 0 {
		t.Fatal("no faults fired; the reconnect path was not exercised")
	}
	checkLinking(t, recs, rounds*linkTestRanks*(linkTestRanks-1))
}

// TestCausalLinkingUnderCommDelay wraps the traced transport in the
// comm-level injector: tracing must survive the wrapper (it forwards the
// op, context included) so attribution still works on exactly the runs where
// faults are being injected.
func TestCausalLinkingUnderCommDelay(t *testing.T) {
	plan, err := faults.ParsePlanString("delay 1 2 200us count 2")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(plan)
	const rounds = 2
	recs := tracedExchange(t, rounds, 256, func(fn func(c mpi.Comm) error) error {
		return mem.Run(linkTestRanks, func(c mpi.Comm) error {
			return fn(inj.Wrap(c))
		})
	})
	if len(inj.Events()) == 0 {
		t.Fatal("no faults fired; test is vacuous")
	}
	checkLinking(t, recs, rounds*linkTestRanks*(linkTestRanks-1))
}
