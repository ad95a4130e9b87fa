package schedule

import (
	"fmt"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/topology"
)

// greedyBenchCluster builds the N-machine chain-of-switches cluster the
// harness scale tests use (16 machines per switch).
func greedyBenchCluster(n int) *topology.Graph {
	g := topology.New()
	nsw := (n + 15) / 16
	sw := make([]int, nsw)
	for i := range sw {
		sw[i] = g.MustAddSwitch(fmt.Sprintf("s%d", i))
		if i > 0 {
			g.MustConnect(sw[i-1], sw[i])
		}
	}
	for i := 0; i < n; i++ {
		m := g.MustAddMachine(fmt.Sprintf("n%d", i))
		g.MustConnect(sw[i/16], m)
	}
	return g.MustValidate()
}

// BenchmarkBuildGreedy tracks the cost of the sequential first-fit
// reference at harness scale: N^2 messages, each probing phases for a free path. The
// bitset edge-usage representation keeps the 512-rank cell tractable.
func BenchmarkBuildGreedy(b *testing.B) {
	for _, n := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			g := greedyBenchCluster(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := BuildGreedy(g)
				if len(s.Phases) == 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}
