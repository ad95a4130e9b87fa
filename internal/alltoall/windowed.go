package alltoall

import (
	"fmt"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// Windowed returns a topology-oblivious all-to-all that bounds the number of
// outstanding sends per rank to the given window, in the spirit of the
// cluster-exchange algorithms of Tam & Wang (the paper's reference [15]).
// Receives are all pre-posted; sends proceed in offset order (i -> i+1,
// i+2, ...) with at most window of them in flight, throttling the
// instantaneous fan-out without any topology knowledge.
//
// window = 1 degenerates to a fully serialized send loop; window >= N-1 is
// equivalent to SimpleOffset.
func Windowed(window int) Func {
	return func(c mpi.Comm, b Buffers, msize int) error {
		if window < 1 {
			return fmt.Errorf("alltoall: window %d must be >= 1", window)
		}
		n, me := c.Size(), c.Rank()
		if err := copySelf(c, b); err != nil {
			return err
		}
		// On an error the collective returns at once and abandons its
		// outstanding requests to the transport's shutdown path.
		recvReqs := make([]mpi.Request, 0, n-1)
		for off := 1; off < n; off++ {
			p := (me + off) % n
			recvReqs = append(recvReqs, mpi.Irecv(c, b.RecvBlock(p), p, tagData))
		}
		// Sliding window of outstanding sends.
		inFlight := make([]mpi.Request, 0, window)
		for off := 1; off < n; off++ {
			p := (me + off) % n
			if len(inFlight) == window {
				if err := mpi.Wait(inFlight[0]); err != nil {
					return err
				}
				inFlight = inFlight[1:]
			}
			inFlight = append(inFlight, mpi.Isend(c, b.SendBlock(p), p, tagData))
		}
		if err := mpi.WaitAll(inFlight); err != nil {
			return err
		}
		return mpi.WaitAll(recvReqs)
	}
}
