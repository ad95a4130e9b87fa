package faults

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/tcp"
)

func TestParsePlan(t *testing.T) {
	plan, err := ParsePlanString(`
# full-surface plan
seed 42
delay 0 1 5ms count 3
drop  * 2 prob 0.5
dup   1 0 after 2 count 1
stall 3 10ms after 5
kill  4 after 12
`)
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{Seed: 42, Rules: []Rule{
		{Kind: Delay, Src: 0, Dst: 1, Delay: 5 * time.Millisecond, Count: 3},
		{Kind: Drop, Src: Any, Dst: 2, Prob: 0.5},
		{Kind: Dup, Src: 1, Dst: 0, After: 2, Count: 1},
		{Kind: Stall, Src: 3, Dst: Any, Delay: 10 * time.Millisecond, After: 5},
		{Kind: Kill, Src: 4, Dst: Any, After: 12},
	}}
	if !reflect.DeepEqual(plan, want) {
		t.Fatalf("parsed %+v\nwant %+v", plan, want)
	}
}

func TestPlanFormatRoundTrip(t *testing.T) {
	p := &Plan{Seed: -9, Rules: []Rule{
		{Kind: Delay, Src: Any, Dst: 3, Delay: time.Second, After: 1, Count: 2, Prob: 0.25},
		{Kind: Drop, Src: 2, Dst: Any},
		{Kind: Dup, Src: 0, Dst: 1, Count: 4},
		{Kind: Stall, Src: 5, Dst: Any, Delay: 3 * time.Millisecond},
		{Kind: Kill, Src: 1, Dst: Any, After: 7},
	}}
	text := p.Format()
	p2, err := ParsePlanString(text)
	if err != nil {
		t.Fatalf("formatted plan does not reparse: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round trip changed the plan:\n%+v\nvs\n%+v\ntext:\n%s", p, p2, text)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"seed",
		"seed x",
		"warp 0 1",
		"delay 0 1",         // missing duration
		"delay 0 1 -5ms",    // negative duration
		"drop x 1",          // bad rank
		"drop -2 1",         // negative rank
		"kill *",            // wildcard kill
		"kill",              // missing rank
		"stall 1",           // missing duration
		"drop 0 1 count 0",  // count must be >= 1
		"drop 0 1 prob 1.5", // prob out of range
		"drop 0 1 prob",     // dangling modifier
		"drop 0 1 umm 3",    // unknown modifier
		"delay 0 1 5ms after -1",
	} {
		if _, err := ParsePlanString(bad); err == nil {
			t.Errorf("ParsePlanString(%q): want error", bad)
		}
	}
}

// TestDeterministicEvents is the acceptance check for reproducibility: the
// same seed and plan produce the identical injected event sequence no
// matter how the consulting goroutines interleave.
func TestDeterministicEvents(t *testing.T) {
	plan, err := ParsePlanString(`
seed 1234
delay * * 1us prob 0.3
drop 0 1 after 2 count 2
dup 2 0 prob 0.5
`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallel bool) []Event {
		inj := New(plan)
		const n, msgs = 4, 25
		if parallel {
			done := make(chan struct{})
			for s := 0; s < n; s++ {
				go func(s int) {
					defer func() { done <- struct{}{} }()
					for d := 0; d < n; d++ {
						for k := 0; k < msgs; k++ {
							inj.FrameFault(s, d)
						}
					}
				}(s)
			}
			for s := 0; s < n; s++ {
				<-done
			}
		} else {
			// A very different interleaving: message index outermost.
			for k := 0; k < msgs; k++ {
				for d := n - 1; d >= 0; d-- {
					for s := 0; s < n; s++ {
						inj.FrameFault(s, d)
					}
				}
			}
		}
		return inj.Events()
	}
	want := run(false)
	if len(want) == 0 {
		t.Fatal("plan injected nothing; test is vacuous")
	}
	for i := 0; i < 5; i++ {
		got := run(true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: event sequence diverged\ngot  %v\nwant %v", i, got, want)
		}
	}
	// A different seed must (for this plan) give a different sequence —
	// otherwise the seed is not wired through.
	other := *plan
	other.Seed = 77
	inj := New(&other)
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			for k := 0; k < 25; k++ {
				inj.FrameFault(s, d)
			}
		}
	}
	if reflect.DeepEqual(inj.Events(), want) {
		t.Fatal("changing the seed did not change the injected sequence")
	}
}

func TestDecideWindows(t *testing.T) {
	plan := &Plan{Rules: []Rule{
		{Kind: Drop, Src: 0, Dst: 1, After: 2, Count: 3},
	}}
	inj := New(plan)
	var fired []int
	for k := 0; k < 10; k++ {
		if op, _ := inj.FrameFault(0, 1); op == mpi.FaultDropConn {
			fired = append(fired, k)
		}
	}
	if !reflect.DeepEqual(fired, []int{2, 3, 4}) {
		t.Fatalf("window fired at %v, want [2 3 4]", fired)
	}
	if op, _ := inj.FrameFault(1, 0); op != mpi.FaultNone {
		t.Fatal("rule fired for a non-matching pair")
	}
}

func TestWrapStallAndDelayPreserveData(t *testing.T) {
	plan, err := ParsePlanString("seed 3\nstall 0 1ms count 2\ndelay 0 1 1ms count 2\n")
	if err != nil {
		t.Fatal(err)
	}
	inj := New(plan)
	inj.SetOpTimeout(5 * time.Second)
	comms := mem.NewWorld(2)
	errs := make(chan error, 2)
	go func() {
		c := inj.Wrap(comms[0])
		for k := 0; k < 4; k++ {
			buf := []byte{byte(10 + k)}
			if err := mpi.Send(c, buf, 1, k); err != nil {
				errs <- err
				return
			}
			buf[0] = 0 // sender may reuse its buffer after Send returns
		}
		errs <- nil
	}()
	go func() {
		c := inj.Wrap(comms[1])
		for k := 0; k < 4; k++ {
			var buf [1]byte
			if err := mpi.Recv(c, buf[:], 0, k); err != nil {
				errs <- err
				return
			}
			if buf[0] != byte(10+k) {
				errs <- errors.New("wrong byte received")
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWrapDropTimesOutReceiver(t *testing.T) {
	plan := &Plan{Rules: []Rule{{Kind: Drop, Src: 0, Dst: 1, Count: 1}}}
	inj := New(plan)
	inj.SetOpTimeout(50 * time.Millisecond)
	comms := mem.NewWorld(2)
	send := mpi.Isend(inj.Wrap(comms[0]), []byte{1}, 1, 0)
	if err := mpi.Wait(send); err != nil {
		t.Fatalf("dropped send must still complete locally: %v", err)
	}
	err := mpi.Recv(inj.Wrap(comms[1]), make([]byte, 1), 0, 0)
	if !mpi.IsTimeout(err) {
		t.Fatalf("receiver of a dropped message: got %v, want timeout", err)
	}
}

func TestWrapKill(t *testing.T) {
	plan := &Plan{Rules: []Rule{{Kind: Kill, Src: 1, Dst: Any, After: 1}}}
	inj := New(plan)
	comms, _ := mem.NewWorldComms(2)
	c1 := inj.Wrap(comms[1])

	// Op 0 is clean; op 1 fires the kill.
	_ = mpi.Irecv(c1, make([]byte, 1), 0, 9) // only consumes a fault-plan slot; it never completes
	err := mpi.Send(c1, []byte{1}, 0, 5)
	if re, ok := mpi.AsRankError(err); !ok || re.Rank != 1 {
		t.Fatalf("op past the kill point: got %v, want RankError{Rank: 1}", err)
	}
	if !inj.Killed(1) {
		t.Fatal("injector did not record the kill")
	}
	// The kill went through the transport: rank 0's operations involving
	// rank 1 now fail with the typed error.
	err = mpi.Send(comms[0], []byte{1}, 1, 7)
	re, ok := mpi.AsRankError(err)
	if !ok || re.Rank != 1 {
		t.Fatalf("peer op after kill: got %v, want RankError{Rank: 1}", err)
	}
	// And the dead rank's error is sticky.
	err = c1.Barrier()
	if re, ok := mpi.AsRankError(err); !ok || re.Rank != 1 {
		t.Fatalf("dead rank barrier: got %v, want RankError{Rank: 1}", err)
	}
}

func FuzzParsePlan(f *testing.F) {
	f.Add("seed 42\ndelay 0 1 5ms count 3\n")
	f.Add("drop * * prob 0.1\nkill 3 after 2\n")
	f.Add("stall 0 1s\n# comment\n")
	f.Add("seed -1\ndup 1 0 after 2 count 1 prob 0.999\n")
	f.Add("delay 0 1 5ms after 1 count 2 prob 0.5 extra")
	f.Add("\x00\xff")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePlanString(src)
		if err != nil {
			if p != nil {
				t.Fatal("non-nil plan alongside an error")
			}
			return
		}
		// Accepted plans round-trip through Format.
		text := p.Format()
		p2, err := ParsePlanString(text)
		if err != nil {
			t.Fatalf("formatted plan does not reparse: %v\n%q", err, text)
		}
		if p2.Format() != text {
			t.Fatalf("format not a fixed point:\n%q\nvs\n%q", text, p2.Format())
		}
		// And driving an injector with arbitrary accepted plans never
		// panics.
		inj := New(p)
		for s := 0; s < 3; s++ {
			for d := 0; d < 3; d++ {
				inj.FrameFault(s, d)
			}
		}
		_ = inj.Events()
	})
}

func TestEventString(t *testing.T) {
	e := Event{Kind: Delay, Src: 1, Dst: 2, Op: 3, Delay: time.Millisecond}
	if !strings.Contains(e.String(), "1->2") {
		t.Fatalf("event string %q", e.String())
	}
	e = Event{Kind: Kill, Src: 4, Dst: Any, Op: 0}
	if !strings.Contains(e.String(), "rank 4") {
		t.Fatalf("event string %q", e.String())
	}
}

// TestWrapKeepsFlusher: both decorators offer mpi.Flusher exactly when the
// comm they wrap does, and forward the wait to it.
func TestWrapKeepsFlusher(t *testing.T) {
	comms, closeWorld, err := tcp.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld()
	inj := New(nil)
	for _, c := range []mpi.Comm{inj.Wrap(comms[0]), inj.WrapRankOnly(comms[0])} {
		fl, ok := c.(mpi.Flusher)
		if !ok {
			t.Errorf("%T over tcp hides mpi.Flusher", c)
			continue
		}
		if err := fl.Flush(1, time.Second); err != nil {
			t.Errorf("%T: Flush: %v", c, err)
		}
	}
	m := mem.NewWorld(1)[0]
	for _, c := range []mpi.Comm{inj.Wrap(m), inj.WrapRankOnly(m)} {
		if _, ok := c.(mpi.Flusher); ok {
			t.Errorf("%T over mem offers mpi.Flusher", c)
		}
	}
}
