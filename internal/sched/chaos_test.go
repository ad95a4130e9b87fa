package sched

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
)

// TestChaosTopologyStorm drives a seeded topology-update storm through the
// live streaming endpoint while reader goroutines hammer the schedule
// endpoint. Every served schedule must be contention-free (capacity-valid
// for auto) for the topology version it was keyed to — resolved by its
// TopoHash against the retained history — proving the daemon never serves
// a torn read: a schedule patched for one version labelled with another.
// Half the requests ask for syncs, and the plan they get must be the one a
// fresh derivation gives for that version and that schedule — never a memo
// carried over from the entry a patch replaced.
func TestChaosTopologyStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm skipped in -short")
	}
	const (
		stormSteps = 60
		readers    = 4
	)
	// History large enough that no version served during the storm can age
	// out before its reader validates it.
	d, _, cl := newTestDaemon(t, Options{History: 2 * stormSteps})
	ctx := context.Background()

	// Prime one entry per algorithm so the storm exercises the patch path
	// from the very first delta.
	for _, alg := range []string{AlgOurs, AlgGreedy, AlgAuto} {
		if _, err := cl.Schedule(ctx, alg, 512, false, ""); err != nil {
			t.Fatal(err)
		}
	}

	st, err := cl.StartUpdates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var (
		served   atomic.Int64
		applied  atomic.Int64
		rejected atomic.Int64
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			algs := []string{AlgOurs, AlgGreedy, AlgAuto}
			msizes := []int{512, 64 << 10, 1 << 20}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				alg := algs[(r+i)%len(algs)]
				syncs := i%2 == 1
				resp, err := cl.Schedule(ctx, alg, msizes[i%len(msizes)], syncs, "")
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				v, ok := d.Store().ByHash(resp.TopoHash)
				if !ok {
					t.Errorf("reader %d: served hash %q not in history", r, resp.TopoHash)
					return
				}
				n := v.Graph.NumMachines()
				if resp.NumRanks != n {
					t.Errorf("reader %d: response says %d ranks, version %d has %d",
						r, resp.NumRanks, v.Seq, n)
					return
				}
				s := resp.ToSchedule()
				if err := schedule.VerifyCapacity(v.Graph, s); err != nil {
					t.Errorf("reader %d: %s schedule for version %d invalid: %v",
						r, alg, v.Seq, err)
					return
				}
				if syncs {
					want, err := syncplan.Build(v.Graph, s)
					if err != nil {
						t.Errorf("reader %d: %s plan for version %d: %v", r, alg, v.Seq, err)
						return
					}
					if len(resp.Syncs) != want.NumSyncs() || (want.NumSyncs() > 0 && !reflect.DeepEqual(resp.ToPlan().Syncs, want.Syncs)) {
						t.Errorf("reader %d: %s plan served for version %d (%d syncs) is not the plan of its schedule (%d syncs)",
							r, alg, v.Seq, len(resp.Syncs), want.NumSyncs())
						return
					}
				}
				served.Add(1)
			}
		}(r)
	}

	storm := faults.NewTopoStorm(20250808)
	for step := 0; step < stormSteps; step++ {
		delta := storm.Next(d.Store().Current().Graph)
		ack, err := st.Apply(delta)
		if err != nil {
			t.Fatalf("storm step %d (%s): %v", step, delta.Format(), err)
		}
		if ack.Error != "" {
			rejected.Add(1)
			continue
		}
		applied.Add(1)
	}
	close(done)
	wg.Wait()

	if applied.Load() < stormSteps/2 {
		t.Errorf("storm applied only %d/%d deltas (rejected %d) — not chaotic enough",
			applied.Load(), stormSteps, rejected.Load())
	}
	if served.Load() < readers {
		t.Errorf("readers validated only %d schedules", served.Load())
	}
	t.Logf("storm: %d applied, %d rejected; readers validated %d served schedules across %d retained versions",
		applied.Load(), rejected.Load(), served.Load(), d.Store().Current().Seq)
}
