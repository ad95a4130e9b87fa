package conformance

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/faults"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
)

// The chaos suite runs the same randomized programs as the conformance
// tests, but through the fault-injection layer. The contract under faults:
//
//   - benign faults (delays, stalls, duplicated frames, transient
//     connection drops on the resilient transport) must not change the
//     outcome — every payload byte-exact;
//   - hard faults (killed ranks, lost messages without retransmission)
//     must surface as typed errors (*mpi.RankError, *mpi.TimeoutError);
//   - in no case may a rank hang: every run finishes inside a watchdog.
//
// chaosWatchdog bounds one whole run; a hang dumps all stacks.
const chaosWatchdog = 60 * time.Second

func watchdog(t *testing.T, run func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(chaosWatchdog):
		buf := make([]byte, 1<<21)
		n := runtime.Stack(buf, true)
		t.Fatalf("chaos run hung past %v\n%s", chaosWatchdog, buf[:n])
		return nil
	}
}

// typedOrNil fails the test unless err is nil or a typed fault error.
func typedOrNil(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if _, ok := mpi.AsRankError(err); ok {
		return
	}
	if mpi.IsTimeout(err) {
		return
	}
	t.Fatalf("untyped failure escaped the fault layer: %v", err)
}

// benignPlan generates delays and stalls (and frame duplicates when
// dupOK) — faults that must never affect correctness.
func benignPlan(seed int64, n int, dupOK bool) *faults.Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &faults.Plan{Seed: seed}
	for i := 0; i < 2+rng.Intn(3); i++ {
		p.Rules = append(p.Rules, faults.Rule{
			Kind:  faults.Delay,
			Src:   faults.Any,
			Dst:   rng.Intn(n),
			Delay: time.Duration(rng.Intn(3)+1) * time.Millisecond,
			Prob:  0.2 + 0.3*rng.Float64(),
		})
	}
	p.Rules = append(p.Rules, faults.Rule{
		Kind:  faults.Stall,
		Src:   rng.Intn(n),
		Delay: time.Duration(rng.Intn(4)+1) * time.Millisecond,
		Count: 2 + rng.Intn(4),
	})
	if dupOK {
		p.Rules = append(p.Rules, faults.Rule{
			Kind: faults.Dup,
			Src:  faults.Any,
			Dst:  faults.Any,
			Prob: 0.3,
		})
	}
	return p
}

// TestChaosBenignMem: delays and stalls through the comm-level wrapper on
// the in-process transport must leave every program byte-exact.
func TestChaosBenignMem(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		seed := int64(9000 + trial)
		n := 2 + trial%3
		prog := genProgram(seed, n, 3, 10)
		plan := benignPlan(seed, n, false)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := faults.New(plan)
			inj.SetOpTimeout(chaosWatchdog / 2)
			err := watchdog(t, func() error {
				return mem.Run(n, func(c mpi.Comm) error {
					return prog.runRank(inj.Wrap(c))
				})
			})
			if err != nil {
				t.Fatalf("benign faults changed the outcome: %v", err)
			}
		})
	}
}

// TestChaosBenignTCP: frame-level delays and duplicates plus comm-level
// stalls on the resilient TCP transport must leave every program
// byte-exact.
func TestChaosBenignTCP(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		seed := int64(9100 + trial)
		n := 2 + trial%3
		prog := genProgram(seed, n, 2, 10)
		plan := benignPlan(seed, n, true)
		// The world rows keep their historical names; the joined rows put
		// the same faults on a mesh of co-located ranks.
		for name, wiring := range map[string]string{fmt.Sprintf("seed%d", seed): "world", fmt.Sprintf("join-mesh/seed%d", seed): "join-mesh"} {
			run := tcpWirings[wiring]
			t.Run(name, func(t *testing.T) {
				inj := faults.New(plan)
				err := watchdog(t, func() error {
					return run(n, func(c mpi.Comm) error {
						return prog.runRank(inj.WrapRankOnly(c))
					}, tcp.WithFaults(inj), tcp.WithOpDeadline(chaosWatchdog/2))
				})
				if err != nil {
					t.Fatalf("benign faults changed the outcome: %v", err)
				}
			})
		}
	}
}

// tcpWirings are the two ways to wire the one tcp engine: n ranks in one
// process, or n ranks joined through a coordinator into a socket mesh — the
// deployable path, where each rank owns only its own end of every link and
// a broken pair is redialed across (what would be) process boundaries.
var tcpWirings = map[string]func(n int, fn func(c mpi.Comm) error, opts ...tcp.Option) error{
	"world": tcp.Run,
	"join-mesh": func(n int, fn func(c mpi.Comm) error, opts ...tcp.Option) error {
		return distributedRunner(n, opts...)(fn)
	},
}

// TestChaosTransientDropsTCP: injected connection drops under randomized
// programs must be fully absorbed by reconnect + retransmit, however the
// ranks were wired.
func TestChaosTransientDropsTCP(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		seed := int64(9200 + trial)
		n := 3 + trial%2
		prog := genProgram(seed, n, 2, 12)
		plan := &faults.Plan{Seed: seed, Rules: []faults.Rule{
			{Kind: faults.Drop, Src: faults.Any, Dst: faults.Any, Prob: 0.1, Count: 6},
		}}
		for wiring, run := range tcpWirings {
			t.Run(fmt.Sprintf("%s/seed%d", wiring, seed), func(t *testing.T) {
				inj := faults.New(plan)
				err := watchdog(t, func() error {
					return run(n, prog.runRank, tcp.WithFaults(inj), tcp.WithOpDeadline(chaosWatchdog/2))
				})
				if err != nil {
					t.Fatalf("transient drops changed the outcome: %v", err)
				}
			})
		}
	}
}

// TestChaosKill runs kill plans on mem and on both tcp wirings: the run
// must finish inside the watchdog and any error must be typed.
func TestChaosKill(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		seed := int64(9300 + trial)
		n := 3 + trial%2
		victim := trial % n
		after := 1 + trial
		prog := genProgram(seed, n, 3, 10)
		plan := &faults.Plan{Seed: seed, Rules: []faults.Rule{
			{Kind: faults.Kill, Src: victim, Dst: faults.Any, After: after},
		}}
		t.Run(fmt.Sprintf("mem/seed%d", seed), func(t *testing.T) {
			inj := faults.New(plan)
			inj.SetOpTimeout(5 * time.Second)
			err := watchdog(t, func() error {
				return mem.Run(n, func(c mpi.Comm) error {
					return prog.runRank(inj.Wrap(c))
				})
			})
			typedOrNil(t, err)
			if !inj.Killed(victim) {
				t.Fatalf("kill rule for rank %d never fired", victim)
			}
		})
		// "tcp" is the in-process world; "join-mesh" kills one of the
		// co-located ranks joined through a coordinator.
		for name, wiring := range map[string]string{"tcp": "world", "join-mesh": "join-mesh"} {
			run := tcpWirings[wiring]
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				inj := faults.New(plan)
				err := watchdog(t, func() error {
					return run(n, func(c mpi.Comm) error {
						return prog.runRank(inj.WrapRankOnly(c))
					}, tcp.WithOpDeadline(5*time.Second))
				})
				typedOrNil(t, err)
				if !inj.Killed(victim) {
					t.Fatalf("kill rule for rank %d never fired", victim)
				}
			})
		}
	}
}

// TestChaosLostMessagesMem: comm-level drops on a transport without
// retransmission must surface as timeouts on the receiver side — fail
// closed, not hang.
func TestChaosLostMessagesMem(t *testing.T) {
	seed := int64(9400)
	const n = 3
	prog := genProgram(seed, n, 2, 10)
	plan := &faults.Plan{Seed: seed, Rules: []faults.Rule{
		{Kind: faults.Drop, Src: faults.Any, Dst: faults.Any, Prob: 0.3},
	}}
	inj := faults.New(plan)
	inj.SetOpTimeout(500 * time.Millisecond)
	err := watchdog(t, func() error {
		return mem.Run(n, func(c mpi.Comm) error {
			return prog.runRank(inj.Wrap(c))
		})
	})
	if len(inj.Events()) == 0 {
		t.Fatal("no drops fired; test is vacuous")
	}
	// With ~30% of messages lost the program all but certainly fails; what
	// matters is that it fails typed.
	typedOrNil(t, err)
}

// TestChaosDeterminismAcrossTransports: the same plan and seed produce the
// same injected frame-event sequence on repeated tcp runs of either wiring,
// even though goroutine interleaving differs — the end-to-end version of the
// injector-level determinism test.
func TestChaosDeterminismAcrossTransports(t *testing.T) {
	seed := int64(9500)
	const n = 3
	prog := genProgram(seed, n, 2, 8)
	plan := &faults.Plan{Seed: seed, Rules: []faults.Rule{
		{Kind: faults.Delay, Src: faults.Any, Dst: faults.Any, Delay: time.Millisecond, Prob: 0.4},
		{Kind: faults.Dup, Src: faults.Any, Dst: faults.Any, Prob: 0.25},
	}}
	for _, wiring := range []string{"world", "join-mesh"} {
		t.Run(wiring, func(t *testing.T) {
			var want []faults.Event
			for i := 0; i < 3; i++ {
				inj := faults.New(plan)
				err := watchdog(t, func() error {
					return tcpWirings[wiring](n, func(c mpi.Comm) error {
						return prog.runRank(c)
					}, tcp.WithFaults(inj), tcp.WithOpDeadline(chaosWatchdog/2))
				})
				if err != nil {
					t.Fatal(err)
				}
				evs := inj.Events()
				if i == 0 {
					want = evs
					if len(want) == 0 {
						t.Fatal("no events; determinism test is vacuous")
					}
					continue
				}
				if len(evs) != len(want) {
					t.Fatalf("run %d: %d events, first run had %d\n%v\nvs\n%v",
						i, len(evs), len(want), evs, want)
				}
				for k := range evs {
					if evs[k] != want[k] {
						t.Fatalf("run %d: event %d = %v, first run had %v", i, k, evs[k], want[k])
					}
				}
			}
		})
	}
}
