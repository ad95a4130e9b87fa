package harness

import (
	"fmt"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// TestPaperShapes asserts the qualitative claims of the paper's evaluation
// (Section 6) on the simulator, for all three topologies of Fig. 5. It is
// the automated version of EXPERIMENTS.md. Every cell of Figs. 6-8 and of
// the ablations (synchronization modes, greedy scheduler, send windows)
// must simulate; the claims read the baselines and Ours at 8, 64 and 256 KB.
// Skipped under -short: the full sweep simulates 3 topologies x 11
// algorithms x 6 sizes.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape sweep skipped in -short mode")
	}
	algs := []Algorithm{LAM(), MPICHAlg(), Ours(alltoall.PairwiseSync),
		Ours(alltoall.BarrierSync), Ours(alltoall.NoSync), OursGreedy()}
	for _, window := range []int{1, 2, 4, 8, 23} {
		fn := alltoall.Windowed(window)
		algs = append(algs, Algorithm{Name: fmt.Sprintf("window-%d", window),
			Make: func(*topology.Graph) (alltoall.Func, error) { return fn, nil }})
	}
	msizes := []int{8 << 10, 64 << 10, 256 << 10}
	for _, preset := range []string{"a", "b", "c"} {
		g, err := Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		exp := &Experiment{Name: preset, Graph: g, Msizes: PaperMsizes, Algorithms: algs}
		rep, err := exp.Run()
		if err != nil {
			t.Fatal(err)
		}
		small, large := msizes[0], msizes[2]
		oursSmall, _ := rep.Cell("Ours", small)
		lamSmall, _ := rep.Cell("LAM", small)
		oursLarge, _ := rep.Cell("Ours", large)
		lamLarge, _ := rep.Cell("LAM", large)
		mpichLarge, _ := rep.Cell("MPICH", large)

		// Claim 1: at 8 KB the generated routine loses to LAM
		// (synchronization overhead dominates small messages).
		if oursSmall.Seconds <= lamSmall.Seconds {
			t.Errorf("topology %s: ours (%.1fms) should lose to LAM (%.1fms) at 8KB",
				preset, oursSmall.Seconds*1e3, lamSmall.Seconds*1e3)
		}
		// Claim 2: at 256 KB the generated routine beats LAM decisively.
		if oursLarge.Seconds >= lamLarge.Seconds*0.85 {
			t.Errorf("topology %s: ours (%.1fms) should beat LAM (%.1fms) by >15%% at 256KB",
				preset, oursLarge.Seconds*1e3, lamLarge.Seconds*1e3)
		}
		// Claim 3: at 256 KB the generated routine approaches the peak
		// aggregate throughput (within 25%), and never exceeds it.
		if oursLarge.ThroughputMbps > rep.PeakMbps*1.0001 {
			t.Errorf("topology %s: ours %.1f Mbps exceeds peak %.1f",
				preset, oursLarge.ThroughputMbps, rep.PeakMbps)
		}
		if oursLarge.ThroughputMbps < rep.PeakMbps*0.75 {
			t.Errorf("topology %s: ours %.1f Mbps too far below peak %.1f",
				preset, oursLarge.ThroughputMbps, rep.PeakMbps)
		}
		// Claim 4 (topology c): MPICH gains nothing over LAM when link
		// contention dominates.
		if preset == "c" && mpichLarge.Seconds < lamLarge.Seconds*0.95 {
			t.Errorf("topology c: MPICH (%.1fms) should not meaningfully beat LAM (%.1fms)",
				mpichLarge.Seconds*1e3, lamLarge.Seconds*1e3)
		}
		// Claim 5: LAM throughput plateaus (insensitive to msize) while ours
		// grows with msize.
		lamMid, _ := rep.Cell("LAM", msizes[1])
		if lamLarge.ThroughputMbps < lamMid.ThroughputMbps*0.9 {
			t.Errorf("topology %s: LAM throughput should plateau, got %.1f then %.1f",
				preset, lamMid.ThroughputMbps, lamLarge.ThroughputMbps)
		}
		oursMid, _ := rep.Cell("Ours", msizes[1])
		if oursLarge.ThroughputMbps <= oursMid.ThroughputMbps {
			t.Errorf("topology %s: ours throughput should grow with msize, got %.1f then %.1f",
				preset, oursMid.ThroughputMbps, oursLarge.ThroughputMbps)
		}
	}
}

// TestSchedulerSoak builds and fully verifies schedules for large clusters:
// a 128-machine multi-switch tree and a deep chain. Skipped under -short.
func TestSchedulerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	t.Run("wide", func(t *testing.T) {
		g := topology.New()
		root := g.MustAddSwitch("root")
		for i := 0; i < 8; i++ {
			sw := g.MustAddSwitch(sName(i))
			g.MustConnect(root, sw)
			for j := 0; j < 16; j++ {
				m := g.MustAddMachine(sName(i) + "m" + sName(j))
				g.MustConnect(sw, m)
			}
		}
		g.MustValidate()
		s, err := schedule.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := schedule.Verify(g, s, true); err != nil {
			t.Fatal(err)
		}
		if got, want := len(s.Phases), 16*(128-16); got != want {
			t.Errorf("phases = %d, want %d", got, want)
		}
	})
	t.Run("deep-chain", func(t *testing.T) {
		g := topology.New()
		prev := -1
		for i := 0; i < 16; i++ {
			sw := g.MustAddSwitch("c" + sName(i))
			if prev >= 0 {
				g.MustConnect(prev, sw)
			}
			prev = sw
			for j := 0; j < 4; j++ {
				m := g.MustAddMachine("c" + sName(i) + "m" + sName(j))
				g.MustConnect(sw, m)
			}
		}
		g.MustValidate()
		s, err := schedule.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := schedule.Verify(g, s, true); err != nil {
			t.Fatal(err)
		}
	})
}

func sName(i int) string {
	const d = "0123456789abcdefghijklmnopqrstuvwxyz"
	if i < 36 {
		return d[i : i+1]
	}
	return d[i/36:i/36+1] + d[i%36:i%36+1]
}
