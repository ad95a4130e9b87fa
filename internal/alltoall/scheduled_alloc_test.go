package alltoall

import (
	"fmt"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// nopComm is a do-nothing transport: every operation completes immediately
// and allocates nothing, so testing.AllocsPerRun against it isolates the
// scheduled routine's own allocation behaviour from the transport's.
type nopComm struct {
	rank, size int
	start      time.Time
}

type nopReq struct{}

func (nopReq) Wait(time.Duration) (mpi.TraceInfo, error) { return mpi.TraceInfo{}, nil }

func (c *nopComm) Rank() int                { return c.rank }
func (c *nopComm) Size() int                { return c.size }
func (c *nopComm) Now() float64             { return time.Since(c.start).Seconds() }
func (c *nopComm) Isend(mpi.Op) mpi.Request { return nopReq{} }
func (c *nopComm) Irecv(mpi.Op) mpi.Request { return nopReq{} }
func (c *nopComm) Barrier() error           { return nil }

// allocTestScheduled compiles the pairwise-synchronized routine for a
// two-switch cluster small enough for a unit test but wide enough that the
// schedule has multiple phases and real sync traffic.
func allocTestScheduled(t *testing.T) *Scheduled {
	t.Helper()
	g := topology.New()
	s0 := g.MustAddSwitch("s0")
	s1 := g.MustAddSwitch("s1")
	g.MustConnect(s0, s1)
	const n = 8
	for i := 0; i < n; i++ {
		m := g.MustAddMachine(fmt.Sprintf("n%d", i))
		if i < n/2 {
			g.MustConnect(s0, m)
		} else {
			g.MustConnect(s1, m)
		}
	}
	sched, err := schedule.Build(g.MustValidate())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := syncplan.Build(g.MustValidate(), sched)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScheduled(sched, plan, PairwiseSync)
	if err != nil {
		t.Fatal(err)
	}
	if sc.SyncCount() == 0 {
		t.Fatal("alloc test schedule has no sync traffic; widen the cluster")
	}
	return sc
}

// TestScheduledFnNoSteadyStateAllocs is the allocation-regression gate for
// the compiled routine: after the first run has populated the scratch pool,
// executing a whole program — pre-posting receives, waiting syncs, sending
// data, emitting syncs, draining — must not allocate, whatever Buffers the
// blocks come through. The allgather view may box itself into the Buffers
// interface once per run. Transport allocations are excluded by
// construction (nopComm allocates nothing).
func TestScheduledFnNoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts; zero-alloc assertion only holds without it")
	}
	sc := allocTestScheduled(t)
	n := sc.NumRanks()
	const msize = 64
	cases := []struct {
		name  string
		fn    Func
		msize int
		bufs  func(rank int) Buffers
		max   float64
	}{
		{"contig", sc.Fn(), msize, func(int) Buffers { return NewContig(n, msize) }, 0},
		{"contigv", sc.Fn(), 0, func(r int) Buffers { return buildV(r, n) }, 0},
		{"allgather", sc.AllgatherFn(), msize, func(int) Buffers { return NewContig(n, msize) }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comms := make([]*nopComm, n)
			bufs := make([]Buffers, n)
			start := time.Now()
			for r := 0; r < n; r++ {
				comms[r] = &nopComm{rank: r, size: n, start: start}
				bufs[r] = tc.bufs(r)
			}
			// Warm the scratch pool: one run per rank.
			for r := 0; r < n; r++ {
				if err := tc.fn(comms[r], bufs[r], tc.msize); err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < n; r++ {
				allocs := testing.AllocsPerRun(50, func() {
					if err := tc.fn(comms[r], bufs[r], tc.msize); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > tc.max {
					t.Errorf("rank %d: %.1f allocs per run, want <= %.0f", r, allocs, tc.max)
				}
			}
		})
	}
}

// TestScheduledFnTCPNoSteadyStateAllocs is the allocation gate of the tcp
// data plane under the compiled routine: once warm, a whole all-to-all —
// every rank's data, syncs, flushes and waits, and the writers and readers
// that carry them — allocates nothing. Send frames and receive ops come
// back from their freelists once their waits are consumed, payload copies
// from the pool. It holds for an in-process world and for a mesh joined
// through a coordinator over sockets, at 64 B (copied and pool-aligned
// sends, one-read frames) and 64 KiB (borrowed sends, zero-copy receives).
// The rank goroutines live across runs, so starting them is not counted.
func TestScheduledFnTCPNoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on synchronization")
	}
	sc := allocTestScheduled(t)
	n := sc.NumRanks()
	for _, w := range []struct {
		name string
		wire func(t *testing.T) ([]mpi.Comm, func() error)
	}{
		{"world", func(t *testing.T) ([]mpi.Comm, func() error) {
			comms, closeWorld, err := tcp.NewWorld(n)
			if err != nil {
				t.Fatal(err)
			}
			return comms, closeWorld
		}},
		{"join-mesh", func(t *testing.T) ([]mpi.Comm, func() error) { return joinMesh(t, n) }},
	} {
		for _, msize := range []int{64, 64 << 10} {
			t.Run(fmt.Sprintf("%s/%dB", w.name, msize), func(t *testing.T) {
				comms, closeAll := w.wire(t)
				defer func() {
					if err := closeAll(); err != nil {
						t.Error(err)
					}
				}()
				fn := sc.Fn()
				start := make([]chan struct{}, n)
				done := make(chan error, n)
				for r, c := range comms {
					start[r] = make(chan struct{})
					go func(c mpi.Comm, start <-chan struct{}) {
						bufs := NewContig(n, msize)
						for range start {
							done <- fn(c, bufs, msize)
						}
					}(c, start[r])
				}
				defer func() {
					for _, s := range start {
						close(s)
					}
				}()
				run := func() {
					for _, s := range start {
						s <- struct{}{}
					}
					for range comms {
						if err := <-done; err != nil {
							t.Fatal(err)
						}
					}
				}
				for i := 0; i < 20; i++ {
					run()
				}
				if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
					t.Errorf("%.2f allocs per all-to-all, want 0", allocs)
				}
			})
		}
	}
}

// joinMesh joins n ranks through a coordinator, sockets only, and returns
// them indexed by rank with one function closing them all.
func joinMesh(t *testing.T, n int) ([]mpi.Comm, func() error) {
	t.Helper()
	coord, err := tcp.StartCoordinator("127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	type joined struct {
		c     mpi.Comm
		close func() error
		err   error
	}
	ch := make(chan joined, n)
	for i := 0; i < n; i++ {
		go func() {
			c, closeFn, err := tcp.Join(coord.Addr())
			ch <- joined{c, closeFn, err}
		}()
	}
	comms := make([]mpi.Comm, n)
	closers := make([]func() error, 0, n)
	for i := 0; i < n; i++ {
		j := <-ch
		if j.err != nil {
			t.Fatal(j.err)
		}
		comms[j.c.Rank()] = j.c
		closers = append(closers, j.close)
	}
	if err := coord.Wait(); err != nil {
		t.Fatal(err)
	}
	return comms, func() error {
		var first error
		for _, fn := range closers {
			if err := fn(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
}
