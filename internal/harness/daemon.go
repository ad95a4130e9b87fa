package harness

import (
	"context"
	"fmt"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/sched"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// DaemonBacked is an Algorithm whose routine is compiled by a running
// schedule daemon (cmd/aapcd) instead of in-process: Make fetches the
// schedule — and, for pair-wise synchronization classes, the sync plan —
// over HTTP and compiles only the executable program locally. The request
// pins the daemon to the local topology's hash, so a daemon that has moved
// on to a newer cluster version either serves the retained matching version
// or fails loudly; it can never hand back a schedule for some other
// topology. The served schedule is re-verified locally before use, by the
// capacity rule every algorithm's schedule keeps (a patched schedule need
// not be load-optimal).
func DaemonBacked(cl *sched.Client, alg string, msize int) Algorithm {
	return Algorithm{
		Name: "Daemon/" + alg,
		Make: func(g *topology.Graph) (alltoall.Func, error) {
			wantSyncs := sched.ClassifyMsize(msize).SyncModeFor() == "pairwise"
			resp, err := cl.Schedule(context.Background(), alg, msize, wantSyncs, g.Hash())
			if err != nil {
				return nil, fmt.Errorf("harness: daemon schedule: %w", err)
			}
			s := resp.ToSchedule()
			if err := schedule.VerifyCapacity(g, s); err != nil {
				return nil, fmt.Errorf("harness: daemon served an invalid schedule: %w", err)
			}
			mode := alltoall.BarrierSync
			if resp.SyncMode == "pairwise" {
				mode = alltoall.PairwiseSync
			}
			sc, err := alltoall.NewScheduled(s, resp.ToPlan(), mode)
			if err != nil {
				return nil, fmt.Errorf("harness: compiling daemon schedule: %w", err)
			}
			return sc.Fn(), nil
		},
	}
}
