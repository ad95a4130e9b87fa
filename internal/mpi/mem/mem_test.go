package mem

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return mpi.Send(c, []byte("hello"), 1, 7)
		}
		buf := make([]byte, 5)
		if err := mpi.Recv(c, buf, 0, 7); err != nil {
			return err
		}
		if string(buf) != "hello" {
			return fmt.Errorf("got %q", buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 1 {
			buf := make([]byte, 3)
			r := mpi.Irecv(c, buf, 0, 0)
			if err := mpi.Wait(r); err != nil {
				return err
			}
			if string(buf) != "abc" {
				return fmt.Errorf("got %q", buf)
			}
			return nil
		}
		time.Sleep(10 * time.Millisecond) // let the receive post first
		return mpi.Send(c, []byte("abc"), 1, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	// Two messages with different tags sent in one order, received in the
	// other: tags must route them correctly.
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			if err := mpi.Send(c, []byte("first"), 1, 1); err != nil {
				return err
			}
			return mpi.Send(c, []byte("secnd"), 1, 2)
		}
		b2 := make([]byte, 5)
		b1 := make([]byte, 5)
		r2 := mpi.Irecv(c, b2, 0, 2)
		r1 := mpi.Irecv(c, b1, 0, 1)
		if err := mpi.WaitAll([]mpi.Request{r1, r2}); err != nil {
			return err
		}
		if string(b1) != "first" || string(b2) != "secnd" {
			return fmt.Errorf("tag mismatch: %q %q", b1, b2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrderingSameKey(t *testing.T) {
	// Messages with identical (src, dst, tag) must not overtake each other.
	const k = 50
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				if err := mpi.Send(c, []byte{byte(i)}, 1, 9); err != nil {
					return err
				}
			}
			return nil
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

func TestSendrecv(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		peer := 1 - c.Rank()
		out := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		if err := mpi.Sendrecv(c, out, peer, 0, in, peer, 0); err != nil {
			return err
		}
		if in[0] != byte(peer) {
			return fmt.Errorf("rank %d got %d", c.Rank(), in[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncationError(t *testing.T) {
	err := Run(2, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			return mpi.Send(c, []byte("too long"), 1, 0)
		}
		buf := make([]byte, 2)
		return mpi.Recv(c, buf, 0, 0)
	})
	if err == nil {
		t.Fatal("want truncation error")
	}
}

func TestBadRank(t *testing.T) {
	comms := NewWorld(2)
	if err := mpi.Send(comms[0], nil, 5, 0); err == nil {
		t.Error("want error for out-of-range destination")
	}
	if err := mpi.Recv(comms[0], nil, -1, 0); err == nil {
		t.Error("want error for out-of-range source")
	}
}

func TestBarrier(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	phase := make([]int, n)
	err := Run(n, func(c mpi.Comm) error {
		for round := 0; round < 5; round++ {
			mu.Lock()
			phase[c.Rank()] = round
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
			// After the barrier, nobody can still be in an older round.
			mu.Lock()
			for r, p := range phase {
				if p < round {
					mu.Unlock()
					return fmt.Errorf("rank %d saw rank %d still at round %d during round %d",
						c.Rank(), r, p, round)
				}
			}
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyToOne(t *testing.T) {
	const n = 16
	err := Run(n, func(c mpi.Comm) error {
		if c.Rank() == 0 {
			got := make([]bool, n)
			for i := 1; i < n; i++ {
				b := make([]byte, 1)
				if err := mpi.Recv(c, b, i, 3); err != nil {
					return err
				}
				got[b[0]] = true
			}
			for i := 1; i < n; i++ {
				if !got[i] {
					return fmt.Errorf("missing message from %d", i)
				}
			}
			return nil
		}
		return mpi.Send(c, []byte{byte(c.Rank())}, 0, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNaiveAllToAll(t *testing.T) {
	// A hand-rolled all-to-all over the raw interface: every rank sends a
	// distinctive pattern to every other rank.
	const n = 6
	const sz = 128
	err := Run(n, func(c mpi.Comm) error {
		var reqs []mpi.Request
		recv := make([][]byte, n)
		for p := 0; p < n; p++ {
			if p == c.Rank() {
				continue
			}
			recv[p] = make([]byte, sz)
			reqs = append(reqs, mpi.Irecv(c, recv[p], p, 0))
		}
		for p := 0; p < n; p++ {
			if p == c.Rank() {
				continue
			}
			out := bytes.Repeat([]byte{byte(c.Rank()*16 + p)}, sz)
			reqs = append(reqs, mpi.Isend(c, out, p, 0))
		}
		if err := mpi.WaitAll(reqs); err != nil {
			return err
		}
		for p := 0; p < n; p++ {
			if p == c.Rank() {
				continue
			}
			want := byte(p*16 + c.Rank())
			for _, b := range recv[p] {
				if b != want {
					return fmt.Errorf("rank %d from %d: got %d want %d", c.Rank(), p, b, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNowMonotonic(t *testing.T) {
	comms := NewWorld(1)
	a := comms[0].Now()
	time.Sleep(time.Millisecond)
	b := comms[0].Now()
	if b <= a {
		t.Errorf("Now not increasing: %v then %v", a, b)
	}
}

// TestBarrierNamesLowestDeadRank: with several ranks dead, a barrier names
// the lowest of them on every world, independent of kill order and of map
// iteration order.
func TestBarrierNamesLowestDeadRank(t *testing.T) {
	for i := 0; i < 200; i++ {
		comms, w := NewWorldComms(4)
		if err := w.KillRank(2); err != nil {
			t.Fatal(err)
		}
		if err := w.KillRank(1); err != nil {
			t.Fatal(err)
		}
		err := comms[0].Barrier()
		var re *mpi.RankError
		if !errors.As(err, &re) {
			t.Fatalf("world %d: barrier returned %v, want *mpi.RankError", i, err)
		}
		if re.Rank != 1 {
			t.Fatalf("world %d: barrier named rank %d, want 1", i, re.Rank)
		}
	}
}
