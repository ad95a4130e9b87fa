package tcp

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// TestFrameRecycledOnlyWhenFree: a send frame comes back from the freelist
// only once the stream holds it nowhere — in no link's queue, retransmit
// window or writer batch. Every reuse is checked against every stream of
// the world, in two worlds that make frames leave the stream every way
// there is. In the first, a faults plan drops connections and duplicates
// frames under copied, borrowed and empty sends: ack retirement,
// retransmission after a reconnect, a duplicate's re-ack. In the second,
// bursts of 256 KiB sends overrun the socket buffer, so acks land while
// their frames' writev is still running. It is in make alloc-gates and,
// like every test, runs under the race detector in make race.
func TestFrameRecycledOnlyWhenFree(t *testing.T) {
	plan, err := faults.ParsePlanString("seed 17\ndrop * * prob 0.03 count 6\ndup * * prob 0.1\n")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(plan)
	t.Run("faults", func(t *testing.T) {
		stats := checkReuse(t, func(c mpi.Comm, round int) error {
			return exchangeAll(c, []int{100, 4096, 0}[round%3])
		}, WithFaults(inj))
		if stats.Reconnects == 0 || stats.DupDiscards == 0 {
			t.Fatalf("vacuous: %d reconnects, %d duplicates discarded", stats.Reconnects, stats.DupDiscards)
		}
	})
	t.Run("bursts", func(t *testing.T) {
		checkReuse(t, func(c mpi.Comm, round int) error { return burst(c, 8, 256<<10) })
	})
}

// checkReuse runs 12 rounds of exchange on every rank of a 4-rank world
// while checking every frame the freelist hands out, and returns the
// world's counters.
func checkReuse(t *testing.T, exchange func(c mpi.Comm, round int) error, opts ...Option) Stats {
	comms, closeWorld, err := NewWorld(4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sh := comms[0].(*node).shared
	var reuses, held atomic.Int64
	frameReused = func(fr *outFrame) {
		reuses.Add(1)
		for _, nd := range sh.nodes {
			for _, lk := range nd.links {
				if lk == nil {
					continue
				}
				st := &lk.st
				st.mu.Lock()
				if slices.Contains(st.queue[st.qhead:], fr) || slices.Contains(st.unacked, fr) ||
					slices.Contains(lk.batch.frames, fr) {
					held.Add(1)
				}
				st.mu.Unlock()
			}
		}
	}
	defer func() { frameReused = nil }()
	errs := make(chan error, len(comms))
	for _, c := range comms {
		go func(c mpi.Comm) {
			for round := 0; round < 12; round++ {
				if err := exchange(c, round); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	for range comms {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	stats := comms[0].(*node).TransportStats()
	if err := closeWorld(); err != nil {
		t.Error(err)
	}
	if n := held.Load(); n != 0 {
		t.Errorf("%d frames reused while a stream still held them", n)
	}
	if reuses.Load() == 0 {
		t.Fatal("vacuous: no frame was reused")
	}
	return stats
}

// burst sends k messages of msize bytes to every other rank, receives as
// many from each, and waits for all of them.
func burst(c mpi.Comm, k, msize int) error {
	n, me := c.Size(), c.Rank()
	reqs := make([]mpi.Request, 0, 2*k*(n-1))
	out := make([]byte, msize)
	for p := 0; p < n; p++ {
		if p == me {
			continue
		}
		for i := 0; i < k; i++ {
			reqs = append(reqs, mpi.Irecv(c, make([]byte, msize), p, i), mpi.Isend(c, out, p, i))
		}
	}
	return mpi.WaitAllTimeout(reqs, 20*time.Second)
}

// TestAckMidRetransmitRecyclesOnce scripts the one way a frame is pruned by
// the ack mid-write after its request was already waited: a copied frame is
// written and completed by releaseBatch, and its Wait consumes it; a
// reconnect's rewind collects it again for retransmission; the ack prunes
// it while that write is out. The stream must let go of it only when the
// write is released, so the frame is recycled exactly once, by releaseBatch.
func TestAckMidRetransmitRecyclesOnce(t *testing.T) {
	lk, conn := bareLink(), drainedConn(t)
	nd, st := lk.nd, &lk.st
	small := []byte("copied payload")
	fr := getDataFrame(&nd.sendFrames, mpi.Op{Buf: small, Tag: 1})
	fr.buf = nd.pool.get(len(small))
	copy(fr.buf, small)
	fr.poolable = true
	var b writeBatch
	write := func() {
		t.Helper()
		iov := b.iovecs
		if _, err := iov.WriteTo(conn); err != nil {
			t.Fatal(err)
		}
	}
	recycled := func(when string) {
		t.Helper()
		if got := nd.sendFrames.Get(); got != nil {
			t.Fatalf("frame recycled %s", when)
		}
	}

	st.mu.Lock()
	st.queue = append(st.queue, fr)
	b.collect(st, 64, writerMaxBatch)
	st.mu.Unlock()
	b.buildIovecs()
	write()
	lk.releaseBatch(&b, nil, true, false)
	if _, err := fr.Wait(0); err != nil {
		t.Fatal(err)
	}
	recycled("while the retransmit window held it")

	st.rewind()
	st.mu.Lock()
	b.collect(st, 64, writerMaxBatch)
	st.mu.Unlock()
	if b.nRetrans != 1 || len(b.frames) != 1 || b.frames[0] != fr || !fr.writing {
		t.Fatalf("rewind collected %d frames (%d retransmissions), writing %v; want the frame alone",
			len(b.frames), b.nRetrans, fr.writing)
	}
	b.buildIovecs()
	lk.ackStream(st.nextSeq) // lands while the retransmission is out
	recycled("by the ack, under its own retransmission")
	if !fr.ackFreed || len(st.unacked) != 0 {
		t.Fatalf("ack mid-write: ackFreed %v, %d frames unacked; want marked and pruned", fr.ackFreed, len(st.unacked))
	}
	if !slices.Equal(fr.buf, small) {
		t.Fatalf("payload %q under the write, want %q", fr.buf, small)
	}
	write()
	lk.releaseBatch(&b, nil, true, false)

	if got := nd.sendFrames.Get(); got != fr {
		t.Fatalf("releaseBatch did not recycle the frame (freelist gave %p, want %p)", got, fr)
	}
	recycled("twice")
}
