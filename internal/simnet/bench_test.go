package simnet

import (
	"fmt"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// benchCluster builds an N-machine cluster spread round-robin over a chain
// of switches (16 machines per switch), the shape that stresses both the
// machine links and the shared switch-to-switch trunks.
func benchCluster(n int) *topology.Graph {
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

// benchConfig is the engine cost model. jitter > 0 staggers every message
// activation so (nearly) every event forces a max-min rate recompute — the
// worst case for the solver; jitter = 0 is the synchronized-wave regime
// harness cells run, where coincident events batch under one recompute.
func benchConfig(g *topology.Graph, jitter float64) Config {
	return Config{
		Graph:          g,
		LinkBandwidth:  DefaultLinkBandwidth,
		StartupLatency: DefaultStartupLatency,
		MinEfficiency:  DefaultMinEfficiency,
		JitterFrac:     jitter,
		JitterSeed:     1,
	}
}

// postAllAAPC is the LAM-style exchange: every rank posts all N-1 sends and
// receives up front, creating O(N^2) concurrent flows.
func postAllAAPC(msize int) func(c mpi.Comm) error {
	return func(c mpi.Comm) error {
		n := c.Size()
		reqs := make([]mpi.Request, 0, 2*(n-1))
		for off := 1; off < n; off++ {
			p := (c.Rank() + off) % n
			reqs = append(reqs, mpi.Irecv(c, make([]byte, msize), p, 0))
		}
		for off := 1; off < n; off++ {
			p := (c.Rank() + off) % n
			reqs = append(reqs, mpi.Isend(c, make([]byte, msize), p, 0))
		}
		return mpi.WaitAll(reqs)
	}
}

// windowedAAPC keeps at most window exchanges outstanding per rank — the
// pattern production all-to-all implementations use at scale. Buffers are a
// per-rank ring reused across waves (they are free after each WaitAll), so
// the benchmark measures the engine, not the host allocator.
func windowedAAPC(msize, window int) func(c mpi.Comm) error {
	return func(c mpi.Comm) error {
		n := c.Size()
		sbuf := make([][]byte, window)
		rbuf := make([][]byte, window)
		for i := range sbuf {
			sbuf[i] = make([]byte, msize)
			rbuf[i] = make([]byte, msize)
		}
		reqs := make([]mpi.Request, 0, 2*window)
		k := 0
		for off := 1; off < n; off++ {
			p := (c.Rank() + off) % n
			q := (c.Rank() - off + n) % n
			reqs = append(reqs, mpi.Irecv(c, rbuf[k], q, 0))
			reqs = append(reqs, mpi.Isend(c, sbuf[k], p, 0))
			k++
			if k == window {
				if err := mpi.WaitAll(reqs); err != nil {
					return err
				}
				reqs, k = reqs[:0], 0
			}
		}
		return mpi.WaitAll(reqs)
	}
}

// BenchmarkSimAAPC measures raw engine throughput on AAPC runs. N=32 and
// N=128 use the post-all (LAM) pattern with O(N^2) concurrent flows and
// jittered activations — the per-event-recompute worst case for the solver.
// N=512 uses a windowed exchange (window 32) without jitter, the
// synchronized-wave regime large harness cells actually run (jittering half
// a million 512-rank flows individually is intractable for any
// full-recompute max-min solver). The custom metrics report discrete events
// per wall-clock second and flows per run; allocs/op tracks solver garbage.
func BenchmarkSimAAPC(b *testing.B) {
	cases := []struct {
		n      int
		window int     // 0 = post-all
		jitter float64 // activation jitter fraction
		msize  int
	}{
		{n: 32, jitter: 0.25, msize: 64 << 10},
		{n: 128, jitter: 0.25, msize: 64 << 10},
		// 512 ranks move 261k messages; the paper's 8 KB base size keeps the
		// benchmark's real byte movement (copied on every delivery) sane.
		{n: 512, window: 32, msize: 8 << 10},
	}
	for _, tc := range cases {
		g := benchCluster(tc.n)
		cfg := benchConfig(g, tc.jitter)
		fn := postAllAAPC(tc.msize)
		if tc.window > 0 {
			fn = windowedAAPC(tc.msize, tc.window)
		}
		b.Run(fmt.Sprintf("N=%d", tc.n), func(b *testing.B) {
			b.ReportAllocs()
			var events, flows int64
			for i := 0; i < b.N; i++ {
				w, err := NewWorld(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Run(fn); err != nil {
					b.Fatal(err)
				}
				events += w.Events()
				flows += int64(w.FlowCount())
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(flows)/float64(b.N), "flows/run")
		})
	}
}
