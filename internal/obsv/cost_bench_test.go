package obsv

import (
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// nopComm is a do-nothing transport: benchmarking the wrapper against it
// isolates the instrumentation cost per operation from any transport work.
type nopComm struct{ start time.Time }

type nopReq struct{}

func (nopReq) Wait(time.Duration) (mpi.TraceInfo, error) { return mpi.TraceInfo{}, nil }

func (c *nopComm) Rank() int                { return 0 }
func (c *nopComm) Size() int                { return 2 }
func (c *nopComm) Now() float64             { return time.Since(c.start).Seconds() }
func (c *nopComm) Isend(mpi.Op) mpi.Request { return nopReq{} }
func (c *nopComm) Irecv(mpi.Op) mpi.Request { return nopReq{} }
func (c *nopComm) Barrier() error           { return nil }

// BenchmarkInstrumentedOpCost is the per-operation cost of the wrapper in
// isolation: one Isend+Wait pair per iteration (two clock reads, one pooled
// request, one recorded event).
func BenchmarkInstrumentedOpCost(b *testing.B) {
	base := &nopComm{start: time.Now()}
	buf := make([]byte, 1024)
	c := Instrument(base, NewRecorder(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh recorder every 64 ops keeps the event buffer at the size a
		// real all-to-all run produces, instead of growing without bound.
		if i%64 == 0 {
			c = Instrument(base, NewRecorder(0))
		}
		if err := mpi.Send(c, buf, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}
