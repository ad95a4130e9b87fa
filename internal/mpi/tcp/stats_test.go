package tcp

import (
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
)

// runWorld executes fn on every rank of a fresh world and returns it (still
// open) along with its closer.
func runWorld(t *testing.T, n int, fn func(c mpi.Comm) error, opts ...Option) (func() Stats, func() error) {
	t.Helper()
	comms, closeWorld, err := NewWorld(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, n)
	for _, c := range comms {
		go func(c mpi.Comm) { errs <- fn(c) }(c)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Errorf("rank error: %v", err)
		}
	}
	// NewWorld's comms share one set of counters; any of them reads it.
	return comms[0].(*node).TransportStats, closeWorld
}

// TestStatsCleanRun: on an undisturbed run the traffic counters move and
// every recovery counter stays zero.
func TestStatsCleanRun(t *testing.T) {
	stats, closeWorld := runWorld(t, 3, func(c mpi.Comm) error {
		return exchangeAll(c, 256)
	})
	defer closeWorld()
	s := stats()
	if s.FramesSent == 0 || s.BytesSent == 0 || s.AcksSent == 0 {
		t.Errorf("traffic counters did not move: %+v", s)
	}
	if s.recovered() {
		t.Errorf("recovery counters moved on a clean run: %+v", s)
	}
}

// TestStatsUnderFaults: injected connection drops and duplicate frames must
// show up in the world's recovery counters, and closing with a recorder must
// mirror them into obsv counter names.
func TestStatsUnderFaults(t *testing.T) {
	plan, err := faults.ParsePlanString(`
seed 11
drop 0 1 count 2
dup * * prob 0.4
`)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(plan)
	rec := obsv.NewRecorder(0)
	stats, closeWorld := runWorld(t, 3, func(c mpi.Comm) error {
		for round := 0; round < 3; round++ {
			if err := exchangeAll(c, 512); err != nil {
				return err
			}
		}
		return nil
	}, WithFaults(inj), WithRecorder(rec))
	s := stats()
	if s.Reconnects == 0 {
		t.Errorf("injected drops caused no reconnects: %+v", s)
	}
	if s.Retransmits == 0 {
		t.Errorf("reconnects caused no retransmits: %+v", s)
	}
	if s.DupDiscards == 0 {
		t.Errorf("injected duplicates were never discarded: %+v", s)
	}
	if s.BackoffSleeps == 0 || s.BackoffNanos == 0 {
		t.Errorf("reconnects slept no backoff: %+v", s)
	}
	if err := closeWorld(); err != nil {
		t.Fatal(err)
	}
	// The recorder mirror happens at close.
	got := rec.Counters().Snapshot()
	for _, name := range []string{
		"aapc_tcp_reconnects_total",
		"aapc_tcp_retransmits_total",
		"aapc_tcp_duplicate_discards_total",
		"aapc_tcp_backoff_sleeps_total",
		"aapc_tcp_frames_sent_total",
	} {
		if got[name] == 0 {
			t.Errorf("recorder counter %s = 0 after close; snapshot %v", name, got)
		}
	}
	if sum := rec.Counters().Summary(); !strings.Contains(sum, "aapc_tcp_reconnects_total") {
		t.Errorf("counters summary misses reconnects: %q", sum)
	}
}
