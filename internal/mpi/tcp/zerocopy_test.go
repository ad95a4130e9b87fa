package tcp

import (
	"sync"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// TestTCPZeroCopySteadyState is the copy-count analogue of the allocation
// gates: in the steady state — receives pre-posted, payloads at or above
// zeroCopyMin — the data plane must move every payload with zero userspace
// copies. Send side: every frame borrows the caller's buffer into the
// writev batch (BorrowedSends, no CopiedSends). Receive side: every payload
// lands straight off the socket into the posted buffer (ZeroCopyRecvs, no
// PayloadCopies). The assertions are exact equalities on the stats deltas,
// so a single regression anywhere on the path fails the gate. It holds
// however the ranks were wired: in one process, or joined through a
// coordinator over sockets — the deployable path.
func TestTCPZeroCopySteadyState(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name string
		wire func(t *testing.T) (comms []mpi.Comm, stats func() Stats, cleanup func())
	}{
		{"world", func(t *testing.T) ([]mpi.Comm, func() Stats, func()) {
			comms, closeWorld, err := NewWorld(n)
			if err != nil {
				t.Fatal(err)
			}
			return comms, comms[0].(*node).TransportStats, func() {
				if err := closeWorld(); err != nil {
					t.Error(err)
				}
			}
		}},
		{"join-mesh", func(t *testing.T) ([]mpi.Comm, func() Stats, func()) {
			comms, cleanup := joinWorld(t, n, WithoutSharedMemory())
			return comms, func() Stats { return sumStats(comms) }, cleanup
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comms, stats, cleanup := tc.wire(t)
			defer cleanup()
			zeroCopySteadyState(t, comms, stats)
		})
	}
}

// sumStats adds up the per-rank counters of a joined world.
func sumStats(comms []mpi.Comm) Stats {
	var total Stats
	for _, c := range comms {
		s := c.(*node).TransportStats()
		total.BorrowedSends += s.BorrowedSends
		total.CopiedSends += s.CopiedSends
		total.PayloadCopies += s.PayloadCopies
		total.ZeroCopyRecvs += s.ZeroCopyRecvs
		total.Reconnects += s.Reconnects
		total.ReconnectFailures += s.ReconnectFailures
		total.Retransmits += s.Retransmits
		total.BackoffSleeps += s.BackoffSleeps
	}
	return total
}

func zeroCopySteadyState(t *testing.T, comms []mpi.Comm, stats func() Stats) {
	const (
		iters = 10
		msize = 65536
	)
	n := len(comms)

	// Pre-post every receive of every iteration (distinct tags), then
	// barrier: from here on no frame can arrive before its receive, and no
	// control traffic interleaves with the measured window.
	recvs := make([][]mpi.Request, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(c mpi.Comm) {
			defer wg.Done()
			me := c.Rank()
			for it := 0; it < iters; it++ {
				for src := 0; src < n; src++ {
					if src == me {
						continue
					}
					recvs[me] = append(recvs[me], mpi.Irecv(c, make([]byte, msize), src, it))
				}
			}
			errs <- c.Barrier()
		}(comms[r])
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	base := stats()

	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(c mpi.Comm) {
			defer wg.Done()
			me := c.Rank()
			sendBufs := make([][]byte, n)
			for dst := 0; dst < n; dst++ {
				sendBufs[dst] = make([]byte, msize)
			}
			for it := 0; it < iters; it++ {
				var reqs []mpi.Request
				for dst := 0; dst < n; dst++ {
					if dst == me {
						continue
					}
					reqs = append(reqs, mpi.Isend(c, sendBufs[dst], dst, it))
				}
				// Wait drains the iteration; borrowed frames complete on
				// their cumulative ack, so the buffers are free for reuse.
				if err := mpi.WaitAll(reqs); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(comms[r])
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < n; r++ {
		if err := mpi.WaitAll(recvs[r]); err != nil {
			t.Fatal(err)
		}
	}

	s := stats()
	frames := uint64(iters * n * (n - 1))
	if got := s.BorrowedSends - base.BorrowedSends; got != frames {
		t.Errorf("borrowed sends = %d, want %d (every data frame borrows)", got, frames)
	}
	if got := s.CopiedSends - base.CopiedSends; got != 0 {
		t.Errorf("copied sends = %d, want 0 in the steady state", got)
	}
	if got := s.PayloadCopies - base.PayloadCopies; got != 0 {
		t.Errorf("payload copies = %d, want 0 with receives pre-posted", got)
	}
	if got := s.ZeroCopyRecvs - base.ZeroCopyRecvs; got != frames {
		t.Errorf("zero-copy receives = %d, want %d", got, frames)
	}
}

// TestUntimedStreamWaitNoAllocs: an untimed wait on the send stream — the
// one Flush makes with d <= 0, as the scheduled all-to-all does at every
// phase boundary — allocates nothing even when it blocks until another
// goroutine satisfies it.
func TestUntimedStreamWaitNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on synchronization")
	}
	st := &sendStream{}
	st.cond = sync.NewCond(&st.mu)
	poke := make(chan struct{})
	defer close(poke)
	go func() {
		for range poke {
			st.mu.Lock()
			st.wrote++
			st.cond.Broadcast()
			st.mu.Unlock()
		}
	}()
	var target uint64
	done := func() bool { return st.wrote >= target }
	allocs := testing.AllocsPerRun(200, func() {
		st.mu.Lock()
		target = st.wrote + 1
		// The poker takes st.mu only once the wait has released it, so
		// every run blocks.
		poke <- struct{}{}
		if !st.waitLocked(0, done) {
			t.Error("untimed wait returned before its condition held")
		}
		st.mu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("untimed blocking wait: %v allocs per wait, want 0", allocs)
	}
}
