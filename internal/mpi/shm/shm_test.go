package shm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/obsv"
)

// fill gives message (src, dst) a distinctive payload.
func fill(buf []byte, src, dst int) {
	for i := range buf {
		buf[i] = byte(src*37 + dst*11 + i)
	}
}

// TestWorldAlltoall runs a hand-rolled all-to-all over the world and checks
// every payload lands intact: receives posted first, so the single-copy
// path carries the steady state.
func TestWorldAlltoall(t *testing.T) {
	const n, size = 5, 1536
	comms, w := NewWorldComms(n)
	err := runAll(comms, func(c mpi.Comm) error {
		me := c.Rank()
		recvBufs := make([][]byte, n)
		var reqs []mpi.Request
		for src := 0; src < n; src++ {
			recvBufs[src] = make([]byte, size)
			reqs = append(reqs, mpi.Irecv(c, recvBufs[src], src, 3))
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for dst := 0; dst < n; dst++ {
			buf := make([]byte, size)
			fill(buf, me, dst)
			reqs = append(reqs, mpi.Isend(c, buf, dst, 3))
		}
		if err := mpi.WaitAll(reqs); err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			want := make([]byte, size)
			fill(want, src, me)
			if !bytes.Equal(recvBufs[src], want) {
				return fmt.Errorf("rank %d: payload from %d corrupted", me, src)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.DirectPlacements == 0 {
		t.Fatalf("no direct placements with receives pre-posted: %+v", s)
	}
}

// TestWorldRingPath forces the ring transit path — sends before any receive
// is posted — mixing records that fit the deliberately tiny ring with
// records that exceed its whole capacity (heap overflow), and checks
// payloads and FIFO order survive across both staging routes.
func TestWorldRingPath(t *testing.T) {
	comms, w := NewWorldComms(2, RingBytes(256))
	snd, rcv := comms[0], comms[1]
	sizes := []int{96, 96, 300, 96, 300, 96} // 300+12 > 256: heap overflow
	var sends []mpi.Request
	for k, size := range sizes {
		buf := make([]byte, size)
		fill(buf, k, 0)
		sends = append(sends, mpi.Isend(snd, buf, 1, 0))
	}
	for k, size := range sizes {
		got := make([]byte, size)
		if err := mpi.Recv(rcv, got, 0, 0); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, size)
		fill(want, k, 0)
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d out of order or corrupted through ring", k)
		}
	}
	if err := mpi.WaitAll(sends); err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.RingTransits == 0 || s.OverflowStages == 0 {
		t.Fatalf("expected both ring transits and overflow stages: %+v", s)
	}
	if s.DirectPlacements != 0 {
		t.Fatalf("unexpected direct placements: %+v", s)
	}
}

// TestWorldTruncation checks both ends of a truncated transfer fail with
// the same diagnostic, on the direct and the ring path alike (matching the
// mem transport's semantics).
func TestWorldTruncation(t *testing.T) {
	for _, recvFirst := range []bool{true, false} {
		comms, _ := NewWorldComms(2)
		var rr, sr mpi.Request
		if recvFirst {
			rr = mpi.Irecv(comms[1], make([]byte, 4), 0, 1)
			sr = mpi.Isend(comms[0], make([]byte, 16), 1, 1)
		} else {
			sr = mpi.Isend(comms[0], make([]byte, 16), 1, 1)
			rr = mpi.Irecv(comms[1], make([]byte, 4), 0, 1)
		}
		serr, rerr := mpi.Wait(sr), mpi.Wait(rr)
		for _, err := range []error{serr, rerr} {
			if err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("recvFirst=%v: truncation error = %v / %v", recvFirst, serr, rerr)
			}
		}
	}
}

// TestWorldStagedBuffersReused receives a pair's ring records out of order,
// so every round moves a 1 KiB record and a 1-byte record to the heap ahead
// of their receives. Those staging buffers come back as spares: in steady
// state a round allocates nothing, and the reused bytes are the new ones.
func TestWorldStagedBuffersReused(t *testing.T) {
	comms, _ := NewWorldComms(2)
	snd, rcv := comms[0], comms[1]
	data, sync1 := make([]byte, 1024), make([]byte, 1)
	gotData, gotSync := make([]byte, 1024), make([]byte, 1)
	k := 0
	round := func() {
		k++
		fill(data, k, 0)
		sync1[0] = byte(k)
		s1, s2, s3 := mpi.Isend(snd, data, 1, 1), mpi.Isend(snd, sync1, 1, 2), mpi.Isend(snd, sync1, 1, 3)
		r3 := mpi.Irecv(rcv, gotSync, 0, 3) // stages the tag-1 and tag-2 records
		r2, r1 := mpi.Irecv(rcv, gotSync, 0, 2), mpi.Irecv(rcv, gotData, 0, 1)
		if err := mpi.WaitAll([]mpi.Request{s1, s2, s3, r1, r2, r3}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotData, data) || gotSync[0] != byte(k) {
			t.Fatalf("round %d: staged payload corrupted", k)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("out-of-order receives allocate %.1f objects per round in steady state, want 0", allocs)
	}
}

// TestWorldRecorderCounters checks Close mirrors the data-path counters.
func TestWorldRecorderCounters(t *testing.T) {
	rec := obsv.NewRecorder(0)
	comms, w := NewWorldComms(2, WithRecorder(rec))
	rr := mpi.Irecv(comms[1], make([]byte, 8), 0, 0)
	if err := mpi.Send(comms[0], make([]byte, 8), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := mpi.Wait(rr); err != nil {
		t.Fatal(err)
	}
	sr := mpi.Isend(comms[0], make([]byte, 8), 1, 0) // stages via ring, completes at match
	if err := mpi.Recv(comms[1], make([]byte, 8), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := mpi.Wait(sr); err != nil {
		t.Fatal(err)
	}
	w.Close()
	counters := rec.Counters().Snapshot()
	if counters["aapc_shm_direct_placements_total"] != 1 {
		t.Fatalf("direct placements counter = %d, want 1", counters["aapc_shm_direct_placements_total"])
	}
	if counters["aapc_shm_ring_transits_total"] != 1 {
		t.Fatalf("ring transits counter = %d, want 1", counters["aapc_shm_ring_transits_total"])
	}
}

// TestWorldSelfSend checks rank-to-self transfers work on both paths.
func TestWorldSelfSend(t *testing.T) {
	comms := NewWorld(1)
	c := comms[0]
	buf := make([]byte, 32)
	fill(buf, 0, 0)
	sr := mpi.Isend(c, buf, 0, 5) // no receive posted: rides the ring
	got := make([]byte, 32)
	if err := mpi.Recv(c, got, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := mpi.Wait(sr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("self-send corrupted")
	}
}

// runAll runs fn once per comm and returns the first error.
func runAll(comms []mpi.Comm, fn func(c mpi.Comm) error) error {
	errs := make(chan error, len(comms))
	for _, c := range comms {
		go func(c mpi.Comm) { errs <- fn(c) }(c)
	}
	var first error
	for range comms {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
