package tcp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
)

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return mpi.Send(c, []byte("over tcp"), 1, 3)
		}
		buf := make([]byte, 8)
		if err := mpi.Recv(c, buf, 0, 3); err != nil {
			return err
		}
		if string(buf) != "over tcp" {
			return fmt.Errorf("got %q", buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargeMessage(t *testing.T) {
	const size = 4 << 20 // 4 MB crosses many TCP segments
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 2654435761)
	}
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return mpi.Send(c, payload, 1, 0)
		}
		buf := make([]byte, size)
		if err := mpi.Recv(c, buf, 0, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, payload) {
			return fmt.Errorf("payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrderingSameKey(t *testing.T) {
	const k = 200
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			reqs := make([]mpi.Request, k)
			for i := 0; i < k; i++ {
				reqs[i] = mpi.Isend(c, []byte{byte(i)}, 1, 9)
			}
			return mpi.WaitAll(reqs)
		}
		for i := 0; i < k; i++ {
			b := make([]byte, 1)
			if err := mpi.Recv(c, b, 0, 9); err != nil {
				return err
			}
			if b[0] != byte(i) {
				return fmt.Errorf("message %d overtaken by %d", i, b[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagRouting(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			if err := mpi.Send(c, []byte("one"), 1, 1); err != nil {
				return err
			}
			return mpi.Send(c, []byte("two"), 1, 2)
		}
		b2 := make([]byte, 3)
		b1 := make([]byte, 3)
		r2 := mpi.Irecv(c, b2, 0, 2)
		r1 := mpi.Irecv(c, b1, 0, 1)
		if err := mpi.WaitAll([]mpi.Request{r1, r2}); err != nil {
			return err
		}
		if string(b1) != "one" || string(b2) != "two" {
			return fmt.Errorf("tag routing wrong: %q %q", b1, b2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		r := mpi.Irecv(c, make([]byte, 4), 0, 0)
		if err := mpi.Send(c, []byte("self"), 0, 0); err != nil {
			return err
		}
		return mpi.Wait(r)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		err := Run(n, func(c mpi.Comm) error {
			for round := 0; round < 4; round++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestNegativeTagRejected(t *testing.T) {
	comms, closeWorld, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld()
	if err := mpi.Send(comms[0], nil, 1, -5); err == nil {
		t.Error("want error for negative send tag")
	}
	if err := mpi.Recv(comms[0], nil, 1, -5); err == nil {
		t.Error("want error for negative recv tag")
	}
}

func TestBadRank(t *testing.T) {
	comms, closeWorld, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld()
	if err := mpi.Send(comms[0], nil, 7, 0); err == nil {
		t.Error("want error for bad destination")
	}
}

func TestTruncation(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return mpi.Send(c, []byte("long payload"), 1, 0)
		}
		return mpi.Recv(c, make([]byte, 3), 0, 0)
	})
	if err == nil {
		t.Fatal("want truncation error")
	}
}

// TestAlltoallAlgorithmsOverTCP runs every algorithm over real sockets with
// full data verification — the closest this repository gets to the paper's
// LAM/MPI runs.
func TestAlltoallAlgorithmsOverTCP(t *testing.T) {
	g := harness.Fig1()
	ours, err := harness.CompileRoutine(g, alltoall.PairwiseSync)
	if err != nil {
		t.Fatal(err)
	}
	oursBarrier, err := harness.CompileRoutine(g, alltoall.BarrierSync)
	if err != nil {
		t.Fatal(err)
	}
	algos := map[string]alltoall.Func{
		"lam":          alltoall.Simple,
		"mpich":        alltoall.MPICH,
		"bruck":        alltoall.Bruck,
		"ours":         ours.Fn(),
		"ours-barrier": oursBarrier.Fn(),
	}
	const n = 6
	const msize = 2048
	for name, fn := range algos {
		errs := make(chan error, n)
		comms, closeWorld, err := NewWorld(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range comms {
			go func(c mpi.Comm) {
				b := alltoall.NewContig(n, msize)
				for dst := 0; dst < n; dst++ {
					blk := b.SendBlock(dst)
					for i := range blk {
						blk[i] = byte(c.Rank()*31 + dst*7 + i)
					}
				}
				if err := fn(c, b, msize); err != nil {
					errs <- err
					return
				}
				for src := 0; src < n; src++ {
					blk := b.RecvBlock(src)
					for i := range blk {
						if blk[i] != byte(src*31+c.Rank()*7+i) {
							errs <- fmt.Errorf("rank %d: bad byte from %d", c.Rank(), src)
							return
						}
					}
				}
				errs <- nil
			}(c)
		}
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Errorf("%s: %v", name, err)
				break
			}
		}
		closeWorld()
	}
}

func TestWorldSizeValidation(t *testing.T) {
	if _, _, err := NewWorld(0); err == nil {
		t.Error("want error for zero-size world")
	}
}

func TestNowAdvances(t *testing.T) {
	comms, closeWorld, err := NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld()
	if comms[0].Now() < 0 {
		t.Error("negative time")
	}
}

// TestFailureInjectionClosedWorld verifies error propagation when the
// sockets die under pending operations: every blocked receive must return a
// transport error rather than hang.
func TestFailureInjectionClosedWorld(t *testing.T) {
	comms, closeWorld, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	pending := mpi.Irecv(comms[0], make([]byte, 8), 1, 5)
	done := make(chan error, 1)
	go func() { done <- mpi.Wait(pending) }()
	// Tear the world down with the receive outstanding.
	if err := closeWorld(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending receive should fail after close")
		}
	case <-timeAfter(t):
		t.Fatal("pending receive hung after close")
	}
	// Operations posted after failure also error out promptly.
	if err := mpi.Recv(comms[1], make([]byte, 8), 0, 9); err == nil {
		t.Error("post-failure receive should error")
	}
}

func timeAfter(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(5 * time.Second)
}
