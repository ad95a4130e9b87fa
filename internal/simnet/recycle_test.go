package simnet

import (
	"fmt"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// oursFn compiles the paper's scheduled routine for g: the contention-free
// schedule, its synchronization plan and pairwise sync messages.
func oursFn(t testing.TB, g *topology.Graph) alltoall.Func {
	t.Helper()
	s, err := schedule.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := syncplan.Build(g, s)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := alltoall.NewScheduled(s, plan, alltoall.PairwiseSync)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Fn()
}

// linkedOp reports where op is still referenced by the engine: a key's send
// or receive queue, an active or pending flow, a calendar timer or the open
// barrier. Caller holds e.mu.
func linkedOp(e *engine, op *simOp) string {
	for i := range e.queues {
		q := &e.queues[i]
		for _, fifo := range []*opFIFO{&q.sends, &q.recvs} {
			for o := fifo.head; o != nil; o = o.next {
				if o == op {
					return fmt.Sprintf("queued under %+v", q.key)
				}
			}
		}
	}
	for _, f := range e.act {
		if f.sendOp == op || f.recvOp == op {
			return "held by an active flow"
		}
	}
	for _, ev := range e.cal.h {
		if ev.op == op || ev.f != nil && (ev.f.sendOp == op || ev.f.recvOp == op) {
			return "held by a calendar event"
		}
	}
	if e.barrierOp == op {
		return "the open barrier"
	}
	return ""
}

// linkedFlow reports where f is still referenced by the engine: the active
// set or a calendar event. Caller holds e.mu.
func linkedFlow(e *engine, f *flow) string {
	for _, a := range e.act {
		if a == f {
			return "active"
		}
	}
	for _, ev := range e.cal.h {
		if ev.f == f {
			return "in a calendar event"
		}
	}
	return ""
}

// TestRecycledOnlyWhenFree is the invariant behind op and flow recycling:
// every simOp and flow the engine takes from its free lists is referenced
// nowhere in the engine (no key queue, active flow, calendar event or
// barrier) and carries no state from its last use. The programs cover
// jittered startups, barriers, a truncated receive and the deadlock path,
// and every one but the last reuses recycled objects.
func TestRecycledOnlyWhenFree(t *testing.T) {
	star := func(n int) Config {
		return Config{Graph: starGraph(t, n), LinkBandwidth: testBW, StartupLatency: testAlpha, MinEfficiency: 0.6}
	}
	jittered := func(cfg Config) Config {
		cfg.JitterFrac, cfg.JitterSeed = 0.3, 5
		return cfg
	}
	ours := oursFn(t, topologyB())
	cases := []struct {
		name    string
		cfg     Config
		prog    func(c mpi.Comm) error
		noReuse bool // the program posts nothing after its first wait
	}{
		{"scheduled-b-jitter", benchConfig(topologyB(), 0.5), func(c mpi.Comm) error {
			return ours(c, alltoall.NewContig(c.Size(), 4096), 4096)
		}, false},
		{"barrier-rounds-jitter", jittered(star(8)), shiftsWithBarriers, false},
		{"truncated-recv", star(4), func(c mpi.Comm) error {
			_ = truncatedRing(c) // fails ranks 0 and 1; the ring after it reuses their ops
			return ringExchange(c, 2000, 1)
		}, false},
		{"deadlock-after-progress", star(6), deadlockAfterRing, false},
		{"post-after-deadlock", star(2), postAfterDeadlock, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seenOps, seenFlows := map[*simOp]bool{}, map[*flow]bool{}
			reused := 0
			var bad []string
			opReused = func(e *engine, op *simOp) {
				if where := linkedOp(e, op); where != "" {
					bad = append(bad, "op "+where)
				}
				if op.done || op.err != nil || op.Buf != nil || op.nwaiters != 0 || len(op.waiters) != 0 || op.info != (mpi.TraceInfo{}) {
					bad = append(bad, fmt.Sprintf("op not reset: %+v", *op))
				}
				if seenOps[op] {
					reused++
				}
				seenOps[op] = true
			}
			flowReused = func(e *engine, f *flow) {
				if where := linkedFlow(e, f); where != "" {
					bad = append(bad, "flow "+where)
				}
				if f.sendOp != nil || f.recvOp != nil || f.agg != nil || f.path != nil || f.remain != 0 {
					bad = append(bad, fmt.Sprintf("flow not reset: %+v", *f))
				}
				if seenFlows[f] {
					reused++
				}
				seenFlows[f] = true
			}
			defer func() { opReused, flowReused = nil, nil }()
			w, err := NewWorld(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Rank errors (truncation, deadlock) are part of the programs.
			if err := w.Run(func(c mpi.Comm) error { _ = tc.prog(c); return nil }); err != nil {
				t.Fatal(err)
			}
			for _, b := range bad[:min(len(bad), 5)] {
				t.Error(b)
			}
			if !tc.noReuse && reused == 0 {
				t.Error("no op or flow was reused: the check saw nothing")
			}
		})
	}
}

// ringExchange sends size bytes to the next rank and receives as many from
// the previous one, under tag.
func ringExchange(c mpi.Comm, size, tag int) error {
	n, me := c.Size(), c.Rank()
	return mpi.WaitAll([]mpi.Request{
		mpi.Irecv(c, make([]byte, size), (me+n-1)%n, tag),
		mpi.Isend(c, make([]byte, size), (me+1)%n, tag),
	})
}

// TestSimAllocsFlatInMessageCount pins that the engine allocates per world,
// not per message: one Run of five back-to-back scheduled all-to-alls on
// topology (b) at 64 KiB (11,310 messages) allocates at most a small
// constant more than a Run of one (2,262 messages). Ops and flows recycle
// through the engine's free lists, and the key table, calendar and solver
// scratch are warm after the first all-to-all.
func TestSimAllocsFlatInMessageCount(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts the scheduled routine's scratch relies on")
	}
	const msize = 64 << 10
	g := topologyB()
	ours := oursFn(t, g)
	bufs := make([]alltoall.Buffers, g.NumMachines())
	for i := range bufs {
		bufs[i] = alltoall.NewShared(msize)
	}
	allocs := func(k int) float64 {
		return testing.AllocsPerRun(2, func() {
			w, err := NewWorld(Config{Graph: g})
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(c mpi.Comm) error {
				for i := 0; i < k; i++ {
					if err := ours(c, bufs[c.Rank()], msize); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	one, five := allocs(1), allocs(5)
	t.Logf("allocs per Run: %.0f for one all-to-all, %.0f for five", one, five)
	if five-one > 64 {
		t.Errorf("five all-to-alls allocate %.0f more than one (%.0f vs %.0f), want at most 64",
			five-one, five, one)
	}
}
