package alltoall

import (
	"fmt"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
)

// SyncMode selects how the scheduled algorithm keeps its phases separated at
// run time (Section 5 of the paper).
type SyncMode int

const (
	// PairwiseSync inserts the minimal pair-wise synchronization messages
	// computed by syncplan — the paper's scheme.
	PairwiseSync SyncMode = iota
	// BarrierSync separates every phase with a full barrier — the simple
	// scheme the paper rejects for its overhead; kept as an ablation.
	BarrierSync
	// NoSync performs the phases with no separation at all: each rank works
	// through its own sends in phase order but phases may drift across
	// ranks, reintroducing contention. Ablation for what synchronization
	// buys.
	NoSync
)

// String names the mode.
func (m SyncMode) String() string {
	switch m {
	case PairwiseSync:
		return "pairwise"
	case BarrierSync:
		return "barrier"
	case NoSync:
		return "nosync"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// syncRef identifies one synchronization message by peer rank and tag.
type syncRef struct {
	peer int
	tag  int
}

// sendStep is one outgoing data message of a rank. Its control traffic lives
// in the program's flat waits/emits arrays; the step holds half-open index
// ranges into them. Flat storage keeps each rank's whole plan in three
// contiguous allocations instead of two slices per step, so executing it
// walks memory linearly.
type sendStep struct {
	phase int
	dst   int
	// [waitLo, waitHi) indexes program.waits: syncs that must arrive before
	// sending.
	waitLo, waitHi int32
	// [emitLo, emitHi) indexes program.emits: syncs to issue once the send
	// completes.
	emitLo, emitHi int32
}

// program is the per-rank execution plan compiled from a schedule.
type program struct {
	// recvSrcs lists the sources this rank receives from, in phase order.
	recvSrcs []int
	// recvPhases[i] is the schedule phase of the message recvSrcs[i]
	// catches. Receives are pre-posted before any phase starts, so the
	// instrumentation needs this to attribute each one to its true phase.
	recvPhases []int
	// sends lists this rank's outgoing messages in phase order.
	sends []sendStep
	// waits and emits back the sendSteps' index ranges.
	waits []syncRef
	emits []syncRef
	// numPhases is the schedule's phase count (used by BarrierSync).
	numPhases int
}

// runScratch is the per-invocation working set of FnTimeout, pooled so a
// steady stream of alltoalls allocates nothing: the request slices are
// pre-sized to the largest program and the 1-byte sync buffers persist
// between runs.
type runScratch struct {
	recvReqs  []mpi.Request
	dataSends []mpi.Request
	syncSends []mpi.Request
	syncByte  [1]byte // payload for emitted syncs (value 1, set once)
	waitByte  [1]byte // receive buffer for awaited syncs
}

// Scheduled is the paper's contribution compiled to a runnable routine: a
// topology-customized MPI_Alltoall that performs the contention-free phases
// of a schedule, separated by the synchronization mode.
//
// Construct it once per (topology, schedule) with NewScheduled and reuse it
// across runs and transports; Fn returns the algorithm function.
type Scheduled struct {
	mode     SyncMode
	programs []program
	// maxRecvs/maxSends/maxEmits size a runScratch so one pooled scratch
	// fits any rank's program.
	maxRecvs int
	maxSends int
	maxEmits int
	scratch  sync.Pool
}

// NewScheduled compiles a schedule and its synchronization plan into a
// runnable algorithm. plan may be nil when mode is BarrierSync or NoSync.
func NewScheduled(s *schedule.Schedule, plan *syncplan.Plan, mode SyncMode) (*Scheduled, error) {
	if mode == PairwiseSync && plan == nil {
		return nil, fmt.Errorf("alltoall: PairwiseSync requires a syncplan")
	}
	n := s.NumRanks
	progs := make([]program, n)
	for r := range progs {
		progs[r].numPhases = len(s.Phases)
	}
	// Counting pass: exact send/recv totals per rank, so every program slice
	// is allocated once at its final size.
	sendN := make([]int, n)
	recvN := make([]int, n)
	total := 0
	for _, phase := range s.Phases {
		total += len(phase)
		for _, m := range phase {
			sendN[m.Src]++
			recvN[m.Dst]++
		}
	}
	for r := range progs {
		progs[r].sends = make([]sendStep, 0, sendN[r])
		progs[r].recvSrcs = make([]int, 0, recvN[r])
		progs[r].recvPhases = make([]int, 0, recvN[r])
	}
	// Placement pass. Iterating phases in order IS the counting sort's
	// distribution step — the phase index is the key and the phases are the
	// buckets, already in key order — so each rank's sends and recvSrcs come
	// out phase-sorted with no comparison sort.
	// stepAt maps (src, dst) to src's step index for the sync wiring below;
	// a flat n*n array beats a map keyed by Message at every size we run.
	stepAt := make([]int32, n*n)
	for i := range stepAt {
		stepAt[i] = -1
	}
	for pi, phase := range s.Phases {
		for _, m := range phase {
			progs[m.Dst].recvSrcs = append(progs[m.Dst].recvSrcs, m.Src)
			progs[m.Dst].recvPhases = append(progs[m.Dst].recvPhases, pi)
			stepAt[m.Src*n+m.Dst] = int32(len(progs[m.Src].sends))
			progs[m.Src].sends = append(progs[m.Src].sends, sendStep{phase: pi, dst: m.Dst})
		}
	}
	sc := &Scheduled{mode: mode, programs: progs}
	// Wire the synchronizations. The i-th sync of the (deterministically
	// sorted) plan uses tag tagSync+i on both sides. Two passes: count
	// waits/emits per step, turn the counts into flat-array offsets, then
	// place the refs.
	if mode == PairwiseSync {
		find := func(m schedule.Message) (int, int32, error) {
			si := stepAt[m.Src*n+m.Dst]
			if si < 0 {
				return 0, 0, fmt.Errorf("alltoall: sync refers to unscheduled message %v", m)
			}
			return m.Src, si, nil
		}
		for _, sy := range plan.Syncs {
			er, ei, err := find(sy.After)
			if err != nil {
				return nil, err
			}
			wr, wi, err := find(sy.Before)
			if err != nil {
				return nil, err
			}
			progs[er].sends[ei].emitHi++ // counts first, offsets below
			progs[wr].sends[wi].waitHi++
		}
		for r := range progs {
			p := &progs[r]
			var nw, ne int32
			for i := range p.sends {
				st := &p.sends[i]
				st.waitLo, st.waitHi = nw, nw+st.waitHi
				st.emitLo, st.emitHi = ne, ne+st.emitHi
				nw, ne = st.waitHi, st.emitHi
			}
			p.waits = make([]syncRef, nw)
			p.emits = make([]syncRef, ne)
		}
		// Placement cursors: next free slot per step, starting at each Lo.
		cursor := make([]int32, 0, total)
		curBase := make([]int, n+1)
		for r := range progs {
			curBase[r] = len(cursor)
			for i := range progs[r].sends {
				cursor = append(cursor, progs[r].sends[i].waitLo)
			}
		}
		curBase[n] = len(cursor)
		ecursor := make([]int32, len(cursor))
		for r := range progs {
			for i := range progs[r].sends {
				ecursor[curBase[r]+i] = progs[r].sends[i].emitLo
			}
		}
		for i, sy := range plan.Syncs {
			er, ei, _ := find(sy.After)
			wr, wi, _ := find(sy.Before)
			ec := &ecursor[curBase[er]+int(ei)]
			progs[er].emits[*ec] = syncRef{peer: sy.Before.Src, tag: tagSync + i}
			*ec++
			wc := &cursor[curBase[wr]+int(wi)]
			progs[wr].waits[*wc] = syncRef{peer: sy.After.Src, tag: tagSync + i}
			*wc++
		}
	}
	for _, p := range progs {
		if len(p.recvSrcs) > sc.maxRecvs {
			sc.maxRecvs = len(p.recvSrcs)
		}
		if len(p.sends) > sc.maxSends {
			sc.maxSends = len(p.sends)
		}
		if len(p.emits) > sc.maxEmits {
			sc.maxEmits = len(p.emits)
		}
	}
	sc.scratch.New = func() any {
		s := &runScratch{
			recvReqs:  make([]mpi.Request, 0, sc.maxRecvs),
			dataSends: make([]mpi.Request, 0, sc.maxSends),
			syncSends: make([]mpi.Request, 0, sc.maxEmits),
		}
		s.syncByte[0] = 1
		return s
	}
	return sc, nil
}

// Mode returns the synchronization mode the routine was compiled with.
func (sc *Scheduled) Mode() SyncMode { return sc.mode }

// NumRanks returns the world size the routine was compiled for.
func (sc *Scheduled) NumRanks() int { return len(sc.programs) }

// SyncCount returns the total number of synchronization messages the
// compiled routine sends (0 unless PairwiseSync).
func (sc *Scheduled) SyncCount() int {
	total := 0
	for _, p := range sc.programs {
		total += len(p.emits)
	}
	return total
}

// Fn returns the algorithm function executing the compiled schedule. It is
// the one executor of a compiled program: Alltoallv is Fn over a ContigV
// (zero-byte messages are still sent, so the sync chains stay intact) and
// AllgatherFn is Fn over a view of the rank's own block.
func (sc *Scheduled) Fn() Func { return sc.FnTimeout(0) }

// FnTimeout returns the algorithm function with every blocking step bounded
// by d (d <= 0 means unbounded, identical to Fn). With a deadline, the
// routine fails closed instead of hanging when a peer dies or stalls: each
// sync wait and data send is bounded individually, the final drain of
// pre-posted receives shares one budget of d, and errors carry the phase and
// peer so the caller can tell which part of the schedule broke. On
// transports with typed failure detection (tcp), a dead peer surfaces as a
// *mpi.RankError well before the deadline; the deadline is the backstop for
// silent loss.
//
// The returned function is safe for concurrent use (one call per rank) and
// allocation-free in the steady state: its working set comes from a pool of
// pre-sized scratch buffers, and a transport that recycles its requests on
// a consumed wait adds nothing either — over tcp a warm all-to-all
// allocates nothing at all (TestScheduledFnTCPNoSteadyStateAllocs). A
// deadline arms a timer per wait that blocks. Scratch is only recycled on
// the success path —
// after an error, a timed-out receive may still hold the scratch's sync
// buffer, so the whole scratch is abandoned to the garbage collector.
func (sc *Scheduled) FnTimeout(d time.Duration) Func {
	return func(c mpi.Comm, b Buffers, msize int) error {
		if c.Size() != len(sc.programs) {
			return fmt.Errorf("alltoall: routine compiled for %d ranks, world has %d",
				len(sc.programs), c.Size())
		}
		prog := &sc.programs[c.Rank()]
		if err := copySelf(c, b); err != nil {
			return err
		}

		scr := sc.scratch.Get().(*runScratch)

		// When the comm is instrumented (obsv.Instrument), mark phase
		// boundaries and synchronization stalls so phase drift is measurable
		// on real transports, not just in the simulator. The phaser hints
		// each pre-posted receive's true schedule phase — without it they
		// would all be recorded as phase -1.
		marker := obsv.MarkerFor(c)
		phaser := obsv.PhaserFor(c)

		// A Flusher transport lets emit-after-complete ride the wire-entry
		// watermark (bytes handed to the kernel) instead of the delivery
		// ack, so phase boundaries cost a local writer handoff, not a
		// network round trip.
		flusher, _ := c.(mpi.Flusher)

		// Pre-post every data receive; ordering across sources is enforced
		// by the senders, and tags distinguish nothing: each (src, dst)
		// pair occurs exactly once. Pre-posting is also what keeps the tcp
		// receive path zero-copy: an already-posted receive lets the read
		// loop place payload bytes straight into the destination block.
		recvReqs := scr.recvReqs[:0]
		for i, src := range prog.recvSrcs {
			if phaser != nil {
				phaser.SetNextOpPhase(prog.recvPhases[i])
			}
			recvReqs = append(recvReqs, mpi.Irecv(c, b.RecvBlock(src), src, tagData))
		}

		// Sends are issued nonblocking and waited lazily. The schedule's
		// required orderings all flow through the sync plan: every
		// cross-phase pair of link-sharing messages — including two sends
		// of this very rank, which always share its uplink — is ordered by
		// an emit/wait chain, so a send whose completion nothing waits on
		// (emitLo == emitHi) can stay in flight while later phases start.
		// Only sends that emit syncs are waited inline (emit-after-
		// complete), which matters on the resilient tcp transport where
		// borrowed zero-copy sends complete on the delivery ack: deferred
		// waits overlap those ack round-trips instead of serializing them.
		// Every request is waited before a successful return. On an error
		// the collective returns at once and abandons its outstanding
		// requests to the transport's shutdown path.
		dataSends := scr.dataSends[:0]
		syncSends := scr.syncSends[:0]
		phase := 0
		curPhase := -1
		for i := range prog.sends {
			st := &prog.sends[i]
			if sc.mode == BarrierSync {
				// Enter the send's phase, barrier-separated. Earlier phases'
				// sends must complete before their closing barrier.
				for phase < st.phase {
					if err := mpi.WaitAllTimeout(dataSends, d); err != nil {
						return fmt.Errorf("alltoall: data send drain: %w", err)
					}
					for j := range dataSends {
						dataSends[j] = nil
					}
					dataSends = dataSends[:0]
					if err := c.Barrier(); err != nil {
						return err
					}
					phase++
				}
			}
			if marker != nil && st.phase != curPhase {
				marker.MarkPhase(st.phase)
			}
			curPhase = st.phase
			for _, w := range prog.waits[st.waitLo:st.waitHi] {
				var waitStart float64
				if marker != nil {
					waitStart = c.Now()
				}
				if err := mpi.RecvTimeout(c, scr.waitByte[:], w.peer, w.tag, d); err != nil {
					return fmt.Errorf("alltoall: phase %d sync wait from %d: %w", st.phase, w.peer, err)
				}
				if marker != nil {
					marker.MarkSyncWait(w.peer, waitStart, c.Now())
				}
			}
			req := mpi.Isend(c, b.SendBlock(st.dst), st.dst, tagData)
			if st.emitHi > st.emitLo {
				// Emit-after-complete: later messages are ordered on this
				// send's entry to the wire. On a Flusher transport the
				// wire-entry watermark is that ordering point and the
				// request itself drains lazily; elsewhere the request's own
				// completion is the only handle.
				if flusher != nil {
					if err := flusher.Flush(st.dst, d); err != nil {
						return fmt.Errorf("alltoall: send phase %d to %d: %w", st.phase, st.dst, err)
					}
					dataSends = append(dataSends, req)
				} else if err := mpi.WaitTimeout(req, d); err != nil {
					return fmt.Errorf("alltoall: send phase %d to %d: %w", st.phase, st.dst, err)
				}
				for _, e := range prog.emits[st.emitLo:st.emitHi] {
					syncSends = append(syncSends, mpi.Isend(c, scr.syncByte[:], e.peer, e.tag))
				}
			} else {
				dataSends = append(dataSends, req)
			}
		}
		if sc.mode == BarrierSync {
			// Ranks must participate in the remaining barriers even after
			// their last send; in-flight sends drain before the first one.
			for ; phase < prog.numPhases-1; phase++ {
				if err := mpi.WaitAllTimeout(dataSends, d); err != nil {
					return fmt.Errorf("alltoall: data send drain: %w", err)
				}
				for j := range dataSends {
					dataSends[j] = nil
				}
				dataSends = dataSends[:0]
				if err := c.Barrier(); err != nil {
					return err
				}
			}
		}
		if err := mpi.WaitAllTimeout(dataSends, d); err != nil {
			return fmt.Errorf("alltoall: data send drain: %w", err)
		}
		if err := mpi.WaitAllTimeout(recvReqs, d); err != nil {
			return fmt.Errorf("alltoall: data receive: %w", err)
		}
		if err := mpi.WaitAllTimeout(syncSends, d); err != nil {
			return fmt.Errorf("alltoall: sync send drain: %w", err)
		}
		// Success: every request above completed, so nothing references the
		// scratch anymore and it can serve the next run.
		for i := range recvReqs {
			recvReqs[i] = nil
		}
		for i := range dataSends {
			dataSends[i] = nil
		}
		for i := range syncSends {
			syncSends[i] = nil
		}
		scr.recvReqs = recvReqs[:0]
		scr.dataSends = dataSends[:0]
		scr.syncSends = syncSends[:0]
		sc.scratch.Put(scr)
		return nil
	}
}
