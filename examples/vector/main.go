// Non-uniform exchange (MPI_Alltoallv) — the repository's extension of the
// paper's scheduling to variable message sizes. The scenario is a particle
// migration step from a simulation: each rank owns a spatial cell and sends
// a different number of particles to every other cell; the exchange runs
// through the topology-scheduled contention-free phases.
//
//	go run ./examples/vector
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
)

const ranks = 6

// particle is an 8-byte payload: owner cell history packed with an id.
type particle struct {
	id   uint32
	from uint32
}

// migrating returns how many particles rank src sends to rank dst this step:
// deliberately lopsided, with zeros.
func migrating(src, dst int) int {
	if src == dst {
		return 0
	}
	return (src * 3) % 5 * ((dst + 2) % 3) // 0..12 particles
}

func main() {
	g := harness.Fig1()
	routine, err := harness.CompileRoutine(g, alltoall.PairwiseSync)
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for s := 0; s < ranks; s++ {
		for d := 0; d < ranks; d++ {
			total += migrating(s, d)
		}
	}
	fmt.Printf("migrating %d particles between %d cells through the scheduled phases\n",
		total, ranks)

	err = mem.Run(ranks, func(c mpi.Comm) error {
		me := c.Rank()
		sendCounts := make([]int, ranks)
		recvCounts := make([]int, ranks)
		for p := 0; p < ranks; p++ {
			sendCounts[p] = migrating(me, p) * 8
			recvCounts[p] = migrating(p, me) * 8
		}
		b := alltoall.NewContigV(sendCounts, recvCounts)
		for p := 0; p < ranks; p++ {
			blk := b.SendBlock(p)
			for i := 0; i < len(blk)/8; i++ {
				binary.LittleEndian.PutUint32(blk[i*8:], uint32(me*1000+i))
				binary.LittleEndian.PutUint32(blk[i*8+4:], uint32(me))
			}
		}
		if err := routine.Fn()(c, b, 0); err != nil {
			return err
		}
		// Verify every arriving particle states its true origin.
		arrived := 0
		for p := 0; p < ranks; p++ {
			blk := b.RecvBlock(p)
			for i := 0; i < len(blk)/8; i++ {
				pt := particle{
					id:   binary.LittleEndian.Uint32(blk[i*8:]),
					from: binary.LittleEndian.Uint32(blk[i*8+4:]),
				}
				if int(pt.from) != p || int(pt.id) != p*1000+i {
					return fmt.Errorf("rank %d: corrupted particle %+v from %d", me, pt, p)
				}
				arrived++
			}
		}
		want := 0
		for p := 0; p < ranks; p++ {
			want += migrating(p, me)
		}
		if arrived != want {
			return fmt.Errorf("rank %d: %d particles arrived, want %d", me, arrived, want)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("every particle arrived at its destination cell intact: OK")
}
