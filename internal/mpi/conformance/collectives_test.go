package conformance

import (
	"fmt"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mpitest"
)

// collInput is one collective run by the one executor of a compiled
// schedule: the uniform Alltoall (Contig blocks of msize bytes), Alltoallv
// (ContigV blocks carrying per-pair counts, msize 0) or allgather (the
// rank's own Contig block to every peer).
type collInput struct {
	name   string
	msize  int
	count  func(src, dst int) int
	gather bool
}

var collInputs = []collInput{
	{name: "contig", msize: 512, count: func(int, int) int { return 512 }},
	// 0, 37, 74, 111 or 148 bytes: uneven, zeros included, never the 1 byte
	// of a sync message.
	{name: "contigv", count: func(src, dst int) int { return (src*7 + dst*13) % 5 * 37 }},
	{name: "allgather", msize: 257, count: func(int, int) int { return 257 }, gather: true},
}

// fn returns the compiled routine's function for the collective.
func (in collInput) fn(sc *alltoall.Scheduled) alltoall.Func {
	if in.gather {
		return sc.AllgatherFn()
	}
	return sc.Fn()
}

// payload gives byte i of the block src sends to dst; an allgather block
// is the same for every dst.
func (in collInput) payload(src, dst, i int) byte {
	if in.gather {
		dst = 0
	}
	return byte(src*31 + dst*7 + i)
}

// buffers builds rank me's buffers with its send blocks filled. An
// allgather rank fills only its own block, so a routine that sent any
// other block would deliver zeros.
func (in collInput) buffers(n, me int) alltoall.Buffers {
	var b alltoall.Buffers
	if in.msize > 0 {
		b = alltoall.NewContig(n, in.msize)
	} else {
		send, recv := make([]int, n), make([]int, n)
		for p := range send {
			send[p], recv[p] = in.count(me, p), in.count(p, me)
		}
		b = alltoall.NewContigV(send, recv)
	}
	for dst := 0; dst < n; dst++ {
		if in.gather && dst != me {
			continue
		}
		blk := b.SendBlock(dst)
		for i := range blk {
			blk[i] = in.payload(me, dst, i)
		}
	}
	return b
}

// check verifies every byte rank me received.
func (in collInput) check(b alltoall.Buffers, n, me int) error {
	for src := 0; src < n; src++ {
		blk := b.RecvBlock(src)
		if len(blk) != in.count(src, me) {
			return fmt.Errorf("rank %d: block from %d has %d bytes, want %d", me, src, len(blk), in.count(src, me))
		}
		for i := range blk {
			if blk[i] != in.payload(src, me, i) {
				return fmt.Errorf("rank %d: corrupt byte %d from %d", me, i, src)
			}
		}
	}
	return nil
}

// TestScheduledCollectivesOnEveryTransport runs each collective through
// the compiled routine, uninstrumented, on every transport and checks every
// delivered byte, and that each rank waited every request it posted.
func TestScheduledCollectivesOnEveryTransport(t *testing.T) {
	sc, err := harness.CompileRoutine(starGraph(5), alltoall.PairwiseSync)
	if err != nil {
		t.Fatal(err)
	}
	n := sc.NumRanks()
	for name, runner := range transports(t, n) {
		for _, in := range collInputs {
			runner, in := runner, in
			t.Run(name+"/"+in.name, func(t *testing.T) {
				err := runner(func(c mpi.Comm) error {
					b := in.buffers(n, c.Rank())
					if err := mpitest.WaitsAll(c, func(c mpi.Comm) error { return in.fn(sc)(c, b, in.msize) }); err != nil {
						return err
					}
					return in.check(b, n, c.Rank())
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
