package alltoall

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
	"github.com/aapc-sched/aapcsched/internal/mpi/mpitest"
	"github.com/aapc-sched/aapcsched/internal/simnet"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// vCount gives the deterministic byte count from src to dst: uneven,
// including zeros.
func vCount(src, dst, n int) int {
	return ((src*7 + dst*13) % 5) * 37 // 0, 37, 74, 111 or 148 bytes
}

// vByte gives byte i of the message src -> dst.
func vByte(src, dst, i int) byte { return byte(src*41 + dst*17 + i*3) }

// buildV constructs this rank's buffers for the vCount pattern.
func buildV(rank, n int) *ContigV {
	sendCounts := make([]int, n)
	recvCounts := make([]int, n)
	for p := 0; p < n; p++ {
		sendCounts[p] = vCount(rank, p, n)
		recvCounts[p] = vCount(p, rank, n)
	}
	b := NewContigV(sendCounts, recvCounts)
	for p := 0; p < n; p++ {
		blk := b.SendBlock(p)
		for i := range blk {
			blk[i] = vByte(rank, p, i)
		}
	}
	return b
}

func checkV(b *ContigV, rank, n int) error {
	for p := 0; p < n; p++ {
		blk := b.RecvBlock(p)
		if len(blk) != vCount(p, rank, n) {
			return fmt.Errorf("rank %d: block from %d has %d bytes", rank, p, len(blk))
		}
		for i := range blk {
			if blk[i] != vByte(p, rank, i) {
				return fmt.Errorf("rank %d: byte %d from %d: got %d want %d",
					rank, i, p, blk[i], vByte(p, rank, i))
			}
		}
	}
	return nil
}

// runVOnMem runs fn over ContigV buffers with msize 0: the blocks carry the
// counts. Each rank must wait every request it posted.
func runVOnMem(t *testing.T, name string, fn Func, n int) {
	t.Helper()
	var mu sync.Mutex
	bufs := make(map[int]*ContigV)
	err := mem.Run(n, func(c mpi.Comm) error {
		b := buildV(c.Rank(), n)
		mu.Lock()
		bufs[c.Rank()] = b
		mu.Unlock()
		return mpitest.WaitsAll(c, func(c mpi.Comm) error { return fn(c, b, 0) })
	})
	if err != nil {
		t.Fatalf("%s n=%d: %v", name, n, err)
	}
	for r := 0; r < n; r++ {
		if err := checkV(bufs[r], r, n); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestVectorBaselines(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 8} {
		runVOnMem(t, "simple", Simple, n)
		runVOnMem(t, "simpleoffset", SimpleOffset, n)
		runVOnMem(t, "ring", RingExchange, n)
		runVOnMem(t, "windowed", Windowed(2), n)
	}
	for _, n := range []int{2, 4, 8} {
		runVOnMem(t, "pairwise", Pairwise, n)
	}
}

func TestPairwiseVRejectsNonPowerOfTwo(t *testing.T) {
	err := mem.Run(3, func(c mpi.Comm) error {
		return Pairwise(c, buildV(c.Rank(), 3), 0)
	})
	if err == nil {
		t.Fatal("want error")
	}
}

func TestScheduledVOnFig1(t *testing.T) {
	g := fig1(t)
	for _, mode := range []SyncMode{PairwiseSync, BarrierSync, NoSync} {
		sc := buildScheduled(t, g, mode)
		runVOnMem(t, "scheduled/"+mode.String(), sc.Fn(), 6)
	}
}

func TestScheduledVOnRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		g := topology.RandomCluster(topology.RandomOptions{
			Switches: 1 + rng.Intn(3),
			Machines: 3 + rng.Intn(8),
			Rand:     rng,
		})
		sc := buildScheduled(t, g, PairwiseSync)
		runVOnMem(t, "scheduled", sc.Fn(), g.NumMachines())
	}
}

func TestScheduledVOnSimnet(t *testing.T) {
	g := fig1(t)
	sc := buildScheduled(t, g, PairwiseSync)
	w, err := simnet.NewWorld(simnet.Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	bufs := make(map[int]*ContigV)
	err = w.Run(func(c mpi.Comm) error {
		b := buildV(c.Rank(), 6)
		mu.Lock()
		bufs[c.Rank()] = b
		mu.Unlock()
		return sc.Fn()(c, b, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		if err := checkV(bufs[r], r, 6); err != nil {
			t.Error(err)
		}
	}
	if w.Elapsed() <= 0 {
		t.Error("no time elapsed")
	}
}

func TestSelfCountMismatch(t *testing.T) {
	// Both ranks use a self-recv count that disagrees with the self-send
	// count, so both fail before posting anything (a one-sided failure
	// would leave the other rank blocked: the in-process transport has no
	// failure propagation, unlike the simulator's deadlock detection).
	err := mem.Run(2, func(c mpi.Comm) error {
		self := c.Rank()
		recvCounts := []int{4, 4}
		recvCounts[self] = 8 // self send is 4
		return Simple(c, NewContigV([]int{4, 4}, recvCounts), 0)
	})
	if err == nil {
		t.Fatal("want self-count mismatch error")
	}
}

func TestContigVLayout(t *testing.T) {
	b := NewContigV([]int{3, 0, 5}, []int{2, 4, 0})
	if len(b.Send) != 8 || len(b.Recv) != 6 {
		t.Fatalf("buffer sizes %d/%d", len(b.Send), len(b.Recv))
	}
	if len(b.SendBlock(0)) != 3 || len(b.SendBlock(1)) != 0 || len(b.SendBlock(2)) != 5 {
		t.Error("send blocks wrong")
	}
	if len(b.RecvBlock(1)) != 4 || len(b.RecvBlock(2)) != 0 {
		t.Error("recv blocks wrong")
	}
	b.SendBlock(2)[0] = 9
	if b.Send[3] != 9 {
		t.Error("send displacement wrong")
	}
}

// TestBruckRejectsContigV: Bruck packs blocks msize bytes apart, so MPICH's
// small-message leg must refuse per-pair counts instead of corrupting them.
func TestBruckRejectsContigV(t *testing.T) {
	err := mem.Run(4, func(c mpi.Comm) error {
		return MPICH(c, buildV(c.Rank(), 4), 0)
	})
	if err == nil || !strings.Contains(err.Error(), "bruck needs 0-byte blocks") {
		t.Fatalf("got %v, want bruck block-size error", err)
	}
}
