package obsv

import (
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// TestInstrumentedOpAllocsAmortized is the allocation-regression gate for
// the instrumentation fast path: one Isend+Wait against a no-op transport
// must cost well under one allocation per operation in the steady state —
// request wrappers come from the icomm's bump-allocated chunks (1/64 ops)
// and event records from the recorder's block storage (1/256 events).
func TestInstrumentedOpAllocsAmortized(t *testing.T) {
	if !Enabled {
		t.Skip("obsv compiled out")
	}
	base := &nopComm{start: time.Now()}
	buf := make([]byte, 1024)
	c := Instrument(base, NewRecorder(0))
	for i := 0; i < 512; i++ { // past the small first event chunk
		if err := mpi.Send(c, buf, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := mpi.Send(c, buf, 1, 0); err != nil {
			t.Fatal(err)
		}
	})
	// Amortized budget: 1/64 (ireq chunk) + 1/256 (event chunk) plus chunk
	// bookkeeping ≈ 0.02; 0.1 leaves headroom without hiding a regression to
	// per-op allocation.
	if allocs > 0.1 {
		t.Errorf("instrumented op: %.3f allocs/op, want <= 0.1", allocs)
	}
}
