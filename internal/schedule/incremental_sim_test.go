package schedule_test

import (
	"math"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// TestRescheduleContentionFreeInSimulator validates an incrementally
// patched schedule in the simulator: with MinEfficiency 1 and
// barrier-separated phases, every payload message of a truly
// contention-free schedule runs at full link bandwidth, so from rendezvous
// to delivery it takes exactly the startup latency plus msize/bandwidth.
// Any intra-phase link sharing the analytical Verify might conceivably miss
// would show up here as a stretched message.
func TestRescheduleContentionFreeInSimulator(t *testing.T) {
	if !obsv.Enabled {
		t.Skip("instrumentation compiled out (obsv_off)")
	}
	g := topology.New()
	s0 := g.MustAddSwitch("s0")
	s1 := g.MustAddSwitch("s1")
	s2 := g.MustAddSwitch("s2")
	g.MustConnect(s0, s1)
	g.MustConnect(s1, s2)
	for i, sw := range []int{s0, s0, s1, s2, s2} {
		g.MustConnect(sw, g.MustAddMachine(machineName(i)))
	}
	g.MustValidate()

	old, err := schedule.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	newG, rd, err := g.ApplyDelta(topology.Delta{Op: topology.OpJoin, Node: "fresh0", Attach: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Reschedule(old, newG, rd)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Verify(newG, s, false); err != nil {
		t.Fatal(err)
	}

	sc, err := alltoall.NewScheduled(s, nil, alltoall.BarrierSync)
	if err != nil {
		t.Fatal(err)
	}
	const (
		bw    = 1e6
		msize = 50000
		alpha = 1e-6
	)
	w, err := simnet.NewWorld(simnet.Config{
		Graph:          newG,
		LinkBandwidth:  bw,
		StartupLatency: alpha,
		MinEfficiency:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := newG.NumMachines()
	recs := make([]*obsv.Recorder, n)
	for i := range recs {
		recs[i] = obsv.NewRecorder(i)
	}
	if err := w.Run(func(c mpi.Comm) error {
		return sc.Fn()(obsv.Instrument(c, recs[c.Rank()]), alltoall.NewShared(msize), msize)
	}); err != nil {
		t.Fatal(err)
	}

	type key struct {
		rank int
		seq  uint64
	}
	sendStart := make(map[key]float64)
	events := obsv.MergedEvents(recs...)
	for _, e := range events {
		if e.Kind == obsv.KindSend {
			sendStart[key{e.Rank, e.Seq}] = e.Start
		}
	}
	payload := 0
	for _, e := range events {
		if e.Kind != obsv.KindRecv || e.Bytes != msize {
			continue
		}
		start, ok := sendStart[key{e.Peer, e.LinkSeq}]
		if !ok {
			t.Fatalf("recv %d<-%d is not linked to its send", e.Rank, e.Peer)
		}
		payload++
		got := e.Deliver - math.Max(start, e.Start)
		want := alpha + float64(msize)/bw
		if math.Abs(got-want) > want*1e-9 {
			t.Errorf("message %d->%d stretched: rendezvous to delivery %.9g s, contention-free is %.9g s",
				e.Peer, e.Rank, got, want)
		}
	}
	if wantFlows := n * (n - 1); payload != wantFlows {
		t.Errorf("simulator delivered %d payload messages, want %d", payload, wantFlows)
	}
}

func machineName(i int) string {
	return "m" + string(rune('0'+i))
}
