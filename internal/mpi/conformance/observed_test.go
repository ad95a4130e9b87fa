package conformance

import (
	"fmt"
	"sync"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/obsv/collect"
)

// TestInstrumentedConformance runs the same random programs through the obsv
// instrumenting wrapper on every transport: instrumentation must be
// semantics-preserving — identical matching, ordering and payload delivery —
// while recording every operation it passed through.
func TestInstrumentedConformance(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		seed := int64(2000 + trial)
		n := 2 + trial%4 // 2..5 ranks
		prog := genProgram(seed, n, 3, 12)
		for name, runner := range transports(t, n) {
			name, runner := name, runner
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				var mu sync.Mutex
				recs := make(map[int]*obsv.Recorder)
				err := runner(func(c mpi.Comm) error {
					rec := obsv.NewRecorder(c.Rank())
					mu.Lock()
					recs[c.Rank()] = rec
					mu.Unlock()
					return prog.runRank(obsv.Instrument(c, rec))
				})
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				// Each rank must have recorded exactly its share of the
				// program, with no failed operation.
				for r, rec := range recs {
					var sends, recvs int
					for _, e := range rec.Events() {
						if e.Err != "" {
							t.Errorf("rank %d: recorded error %q", r, e.Err)
						}
						switch e.Kind {
						case obsv.KindSend:
							sends++
						case obsv.KindRecv:
							recvs++
						}
					}
					wantSends, wantRecvs := 0, 0
					for _, ms := range prog.rounds {
						for _, m := range ms {
							if m.src == r {
								wantSends++
							}
							if m.dst == r {
								wantRecvs++
							}
						}
					}
					if sends != wantSends || recvs != wantRecvs {
						t.Errorf("rank %d recorded %d sends, %d recvs; program has %d, %d",
							r, sends, recvs, wantSends, wantRecvs)
					}
				}
			})
		}
	}
}

// TestInstrumentedScheduledAlltoall runs the paper's generated routine
// through the instrumented wrapper on every transport, for every collective
// of collInputs (uniform, per-pair counts, allgather), and checks both the
// delivered bytes and the recorded event structure: n-1 data sends and
// receives per rank, each receive linked to its send, phase markers
// covering the schedule, and send sizes equal to the block counts.
func TestInstrumentedScheduledAlltoall(t *testing.T) {
	g := starGraph(5)
	sc, err := harness.CompileRoutine(g, alltoall.PairwiseSync)
	if err != nil {
		t.Fatal(err)
	}
	n := sc.NumRanks()
	for name, runner := range transports(t, n) {
		for _, in := range collInputs {
			name, runner, in := name, runner, in
			t.Run(name+"/"+in.name, func(t *testing.T) {
				var mu sync.Mutex
				recs := make([]*obsv.Recorder, n)
				err := runner(func(c mpi.Comm) error {
					rec := obsv.NewRecorder(c.Rank())
					mu.Lock()
					recs[c.Rank()] = rec
					mu.Unlock()
					ic := obsv.Instrument(c, rec)
					b := in.buffers(n, ic.Rank())
					if err := in.fn(sc)(ic, b, in.msize); err != nil {
						return err
					}
					return in.check(b, n, ic.Rank())
				})
				if err != nil {
					t.Fatal(err)
				}
				for r, rec := range recs {
					var dataSends, dataRecvs, phases int
					for _, e := range rec.Events() {
						switch e.Kind {
						case obsv.KindSend:
							if e.Bytes == in.count(r, e.Peer) {
								dataSends++
							}
						case obsv.KindRecv:
							if e.Bytes == in.count(e.Peer, r) {
								dataRecvs++
							}
							// Data blocks and syncs alike must carry the
							// sender's context on every transport.
							if e.LinkSeq == 0 {
								t.Errorf("rank %d: recv of %d bytes from %d (tag %d) is not linked to its send",
									r, e.Bytes, e.Peer, e.Tag)
							}
						case obsv.KindPhase:
							phases++
						}
					}
					if dataSends != n-1 || dataRecvs != n-1 {
						t.Errorf("rank %d: %d data sends, %d data recvs; want %d each",
							r, dataSends, dataRecvs, n-1)
					}
					if phases == 0 {
						t.Errorf("rank %d: no phase markers recorded", r)
					}
				}
				// The collector's phase table over the recorded events must
				// account every data send of the schedule that is larger
				// than a control message.
				store := collect.NewStore()
				store.SetCommonClock(true)
				for _, rec := range recs {
					store.AddEvents(rec.Events())
				}
				total, want := 0, 0
				for _, st := range store.Analyze(nil).Phases {
					total += st.Sends
				}
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						if src != dst && in.count(src, dst) > mpi.ControlSizeMax {
							want++
						}
					}
				}
				if total != want {
					t.Errorf("phase stats cover %d sends, want %d", total, want)
				}
			})
		}
	}
}
