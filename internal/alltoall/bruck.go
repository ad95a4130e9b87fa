package alltoall

import (
	"fmt"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// Bruck is the logarithmic store-and-forward all-to-all used by MPICH for
// small messages: ceil(log2 N) rounds, each moving about half the blocks,
// trading bandwidth (each block travels multiple hops) for latency (far
// fewer messages than N-1). Included as the small-message leg of the MPICH
// dispatcher and as a baseline extension. Packing blocks together needs them
// all to be msize bytes, so per-pair counts (a ContigV) are rejected.
func Bruck(c mpi.Comm, b Buffers, msize int) error {
	n, me := c.Size(), c.Rank()
	for p := 0; p < n; p++ {
		if s, r := len(b.SendBlock(p)), len(b.RecvBlock(p)); s != msize || r != msize {
			return fmt.Errorf("alltoall: bruck needs %d-byte blocks, peer %d has send %d, recv %d", msize, p, s, r)
		}
	}
	if n == 1 {
		return copySelf(c, b)
	}
	// Phase 1 — local rotation: tmp[i] = block destined to (me + i) mod n,
	// so tmp[0] is the self block.
	tmp := make([][]byte, n)
	for i := 0; i < n; i++ {
		src := b.SendBlock((me + i) % n)
		tmp[i] = append(make([]byte, 0, msize), src...)
	}
	// Phase 2 — log rounds. At round k (power of two), every block whose
	// index has bit k set is packed and sent to rank me+k, while the
	// matching blocks arrive from rank me-k. After all rounds tmp[i] holds
	// the block sent by rank me-i to this rank.
	sendPack := make([]byte, 0, n*msize)
	recvPack := make([]byte, 0, n*msize)
	for k := 1; k < n; k <<= 1 {
		dst := (me + k) % n
		src := (me - k + n) % n
		sendPack = sendPack[:0]
		count := 0
		for i := 0; i < n; i++ {
			if i&k != 0 {
				sendPack = append(sendPack, tmp[i]...)
				count++
			}
		}
		recvPack = recvPack[:count*msize]
		if err := mpi.Sendrecv(c,
			sendPack, dst, tagData+k,
			recvPack, src, tagData+k); err != nil {
			return fmt.Errorf("alltoall: bruck round k=%d: %w", k, err)
		}
		off := 0
		for i := 0; i < n; i++ {
			if i&k != 0 {
				copy(tmp[i], recvPack[off:off+msize])
				off += msize
			}
		}
	}
	// Phase 3 — inverse rotation: tmp[i] now holds the block sent by rank
	// (me - i + n) mod n, so it lands in that source's result slot.
	for i := 0; i < n; i++ {
		copy(b.RecvBlock((me-i+n)%n), tmp[i])
	}
	return nil
}
