package conformance

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
)

// The buffer-reuse suite proves the transports' recycling machinery — the
// tcp payload pool, its epoch-aware send-copy release, and the mem op
// freelist — never aliases a buffer a user or an in-flight frame still
// owns. Each round every rank exchanges pattern-filled messages with every
// peer while the test stresses exactly the hazards the pools introduce:
//
//   - late-posted receives park pooled payloads in the matcher's arrived
//     queue while the pool keeps cycling underneath them;
//   - send buffers are scribbled over the moment their Wait returns, so a
//     transport retransmitting from the user's buffer instead of its own
//     copy corrupts the stream detectably;
//   - received data is verified immediately AND after the next round's
//     churn has recycled every pooled buffer, catching writes into buffers
//     the transport no longer owns;
//   - message sizes straddle pool size classes, including odd (non
//     power-of-two) lengths and a size large enough to span several frames.
//
// The tcp variant also runs under a Drop fault plan forcing reconnects
// mid-exchange, so retransmissions replay from pooled send copies whose
// release is gated on the cumulative ack.

// reuseRounds and reuseSizes define the exchange grid.
const reuseRounds = 6

var reuseSizes = []int{17, 64, 1000, 1024, 4096}

// reuseSize picks the message size for (round, src, dst).
func reuseSize(round, src, dst int) int {
	return reuseSizes[(round+src*3+dst)%len(reuseSizes)]
}

// reuseFill writes the deterministic pattern for (round, src, dst).
func reuseFill(buf []byte, round, src, dst int) {
	for i := range buf {
		buf[i] = byte(round*131 + src*31 + dst*17 + i*7)
	}
}

// runBufReuseRank is one rank's side of the exchange. It returns the final
// round's receive buffers so the caller can re-verify them after every rank
// has finished (and, on tcp, after the world has drained its acks).
func runBufReuseRank(c mpi.Comm, n int) error {
	me := c.Rank()
	// Two receive-buffer sets, ping-ponged between rounds: set k%2 is
	// verified right after round k and again after round k+1 has churned
	// the pools.
	var recvSets [2][][]byte
	for s := range recvSets {
		recvSets[s] = make([][]byte, n)
		for p := 0; p < n; p++ {
			recvSets[s][p] = make([]byte, 8192)
		}
	}
	sendBufs := make([][]byte, n)
	for p := 0; p < n; p++ {
		sendBufs[p] = make([]byte, 8192)
	}
	verify := func(round int, set [][]byte) error {
		for src := 0; src < n; src++ {
			if src == me {
				continue
			}
			size := reuseSize(round, src, me)
			want := make([]byte, size)
			reuseFill(want, round, src, me)
			if !bytes.Equal(set[src][:size], want) {
				return fmt.Errorf("rank %d round %d: payload from %d corrupted", me, round, src)
			}
		}
		return nil
	}
	for round := 0; round < reuseRounds; round++ {
		set := recvSets[round%2]
		reqs := make([]mpi.Request, 0, 2*(n-1))
		// Post the receives from even-offset peers now; the rest are posted
		// late, after the senders have likely delivered, so those payloads
		// wait in the matcher holding pooled buffers.
		var late []int
		for off := 1; off < n; off++ {
			src := (me + off) % n
			if off%2 == 0 {
				reqs = append(reqs, mpi.Irecv(c, set[src][:reuseSize(round, src, me)], src, round))
			} else {
				late = append(late, src)
			}
		}
		sendReqs := make([]mpi.Request, 0, n-1)
		for off := 1; off < n; off++ {
			dst := (me + off) % n
			size := reuseSize(round, me, dst)
			reuseFill(sendBufs[dst][:size], round, me, dst)
			sendReqs = append(sendReqs, mpi.Isend(c, sendBufs[dst][:size], dst, round))
		}
		time.Sleep(time.Millisecond) // let in-flight payloads land unmatched
		for _, src := range late {
			reqs = append(reqs, mpi.Irecv(c, set[src][:reuseSize(round, src, me)], src, round))
		}
		if err := mpi.WaitAll(sendReqs); err != nil {
			return fmt.Errorf("rank %d round %d send: %w", me, round, err)
		}
		// Sends are complete: the transport must own any bytes it still
		// needs (retransmits included). Scribbling the user buffers now
		// makes a transport that cheats corrupt the stream detectably.
		for p := 0; p < n; p++ {
			if p != me {
				for i := range sendBufs[p] {
					sendBufs[p][i] = 0xEE
				}
			}
		}
		if err := mpi.WaitAll(reqs); err != nil {
			return fmt.Errorf("rank %d round %d recv: %w", me, round, err)
		}
		if err := verify(round, set); err != nil {
			return err
		}
		// The previous round's buffers went through a full round of pool
		// churn since delivery; they must be untouched.
		if round > 0 {
			if err := verify(round-1, recvSets[(round-1)%2]); err != nil {
				return fmt.Errorf("late corruption: %w", err)
			}
		}
	}
	return nil
}

// TestBufferReuseSafetyMem exercises the mem transport's op freelist.
func TestBufferReuseSafetyMem(t *testing.T) {
	const n = 4
	err := watchdog(t, func() error {
		return mem.Run(n, func(c mpi.Comm) error { return runBufReuseRank(c, n) })
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBufferReuseSafetyTCP exercises the tcp payload pool on a clean world.
func TestBufferReuseSafetyTCP(t *testing.T) {
	const n = 4
	err := watchdog(t, func() error {
		return tcp.Run(n, func(c mpi.Comm) error { return runBufReuseRank(c, n) },
			tcp.WithOpDeadline(chaosWatchdog/2))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBufferReuseSafetyTCPReconnect adds injected connection drops: every
// reconnect rewinds the retransmit window, so frames replay from pooled send
// copies while acks race to release them. Several seeds vary where in the
// exchange the drops land; both wirings of the engine run them.
func TestBufferReuseSafetyTCPReconnect(t *testing.T) {
	const n = 4
	for trial := 0; trial < 3; trial++ {
		seed := int64(9500 + trial)
		for wiring, run := range tcpWirings {
			t.Run(fmt.Sprintf("%s/seed%d", wiring, seed), func(t *testing.T) {
				plan := &faults.Plan{Seed: seed, Rules: []faults.Rule{
					{Kind: faults.Drop, Src: faults.Any, Dst: faults.Any, Prob: 0.05, Count: 8},
					{Kind: faults.Dup, Src: faults.Any, Dst: faults.Any, Prob: 0.1, Count: 10},
				}}
				inj := faults.New(plan)
				err := watchdog(t, func() error {
					return run(n, func(c mpi.Comm) error { return runBufReuseRank(c, n) },
						tcp.WithFaults(inj), tcp.WithOpDeadline(chaosWatchdog/2))
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
