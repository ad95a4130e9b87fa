// Package alltoall implements MPI_Alltoall algorithms over the mpi
// substrate: the LAM/MPI and MPICH algorithms the paper compares against
// (Section 6), the Bruck small-message algorithm, and the paper's
// contribution — the topology-scheduled, contention-free algorithm with
// pair-wise synchronizations.
//
// Block storage is abstracted by Buffers, the one way blocks reach an
// algorithm: a block's length is its count. Contig holds one block of Msize
// bytes per ordered pair (MPI_Alltoall); ContigV gives every pair its own
// count (MPI_Alltoallv) and runs through the same algorithms; Shared aliases
// every block so the network simulator can run 32-rank x 256 KB experiments
// without gigabytes of backing memory.
package alltoall

import (
	"fmt"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// Buffers provides the per-peer send and receive blocks of one rank.
type Buffers interface {
	// SendBlock returns the block this rank sends to dst.
	SendBlock(dst int) []byte
	// RecvBlock returns the block into which data from src is received.
	RecvBlock(src int) []byte
}

// Func is an all-to-all personalized communication algorithm: on return,
// RecvBlock(src) holds SendBlock-of-this-rank as prepared by rank src, for
// every src. msize is the uniform block size; only algorithms that pack
// blocks together (Bruck, and MPICH's dispatch on it) read it, so buffers
// with per-pair counts pass 0.
type Func func(c mpi.Comm, b Buffers, msize int) error

// Contig is the MPI-style contiguous buffer layout: Send and Recv each hold
// Size blocks of Msize bytes, block i belonging to peer i.
type Contig struct {
	Send  []byte
	Recv  []byte
	Msize int
}

// NewContig allocates contiguous buffers for a world of n ranks.
func NewContig(n, msize int) *Contig {
	return &Contig{
		Send:  make([]byte, n*msize),
		Recv:  make([]byte, n*msize),
		Msize: msize,
	}
}

// SendBlock returns the outgoing block for peer dst.
func (b *Contig) SendBlock(dst int) []byte {
	return b.Send[dst*b.Msize : (dst+1)*b.Msize]
}

// RecvBlock returns the incoming block for peer src.
func (b *Contig) RecvBlock(src int) []byte {
	return b.Recv[src*b.Msize : (src+1)*b.Msize]
}

// Shared aliases every block onto the same backing storage. Contents are
// meaningless; only sizes matter. It exists for simulator benchmarks, where
// timing — not data — is the output.
type Shared struct {
	send []byte
	recv []byte
}

// NewShared creates aliased buffers with blocks of msize bytes.
func NewShared(msize int) *Shared {
	return &Shared{send: make([]byte, msize), recv: make([]byte, msize)}
}

// SendBlock returns the shared outgoing block.
func (b *Shared) SendBlock(int) []byte { return b.send }

// RecvBlock returns the shared incoming block.
func (b *Shared) RecvBlock(int) []byte { return b.recv }

// Tag bases. Data messages use tagData; the scheduled algorithm's
// synchronization messages use tagSync + the sync's index in the plan.
const (
	tagData = 1
	tagSync = 1 << 20
)

// copySelf moves the rank's own block locally; the self send and self
// receive blocks must agree in length. Callers run it before posting any
// request, so a mismatch abandons nothing.
func copySelf(c mpi.Comm, b Buffers) error {
	src, dst := b.SendBlock(c.Rank()), b.RecvBlock(c.Rank())
	if len(src) != len(dst) {
		return fmt.Errorf("alltoall: self counts disagree: send %d, recv %d", len(src), len(dst))
	}
	copy(dst, src)
	return nil
}

// Simple is the original LAM/MPI algorithm: post every nonblocking receive
// and every nonblocking send — sends in the order i->0, i->1, ..., i->N-1 —
// and wait for all of them. No scheduling: the network sorts it out.
func Simple(c mpi.Comm, b Buffers, msize int) error {
	n, me := c.Size(), c.Rank()
	if err := copySelf(c, b); err != nil {
		return err
	}
	reqs := make([]mpi.Request, 0, 2*(n-1))
	for p := 0; p < n; p++ {
		if p == me {
			continue
		}
		reqs = append(reqs, mpi.Irecv(c, b.RecvBlock(p), p, tagData))
	}
	for p := 0; p < n; p++ {
		if p == me {
			continue
		}
		reqs = append(reqs, mpi.Isend(c, b.SendBlock(p), p, tagData))
	}
	return mpi.WaitAll(reqs)
}

// SimpleOffset is the MPICH algorithm for medium messages
// (256 < msize <= 32768): identical to Simple except that rank i orders its
// operations i->i+1, i->i+2, ..., i->i+N-1 (mod N), which spreads the
// instantaneous load across destinations.
func SimpleOffset(c mpi.Comm, b Buffers, msize int) error {
	n, me := c.Size(), c.Rank()
	if err := copySelf(c, b); err != nil {
		return err
	}
	reqs := make([]mpi.Request, 0, 2*(n-1))
	for off := 1; off < n; off++ {
		p := (me + off) % n
		reqs = append(reqs, mpi.Irecv(c, b.RecvBlock(p), p, tagData))
	}
	for off := 1; off < n; off++ {
		p := (me + off) % n
		reqs = append(reqs, mpi.Isend(c, b.SendBlock(p), p, tagData))
	}
	return mpi.WaitAll(reqs)
}

// Pairwise is the MPICH large-message algorithm for power-of-two worlds:
// N-1 steps, exchanging with peer i XOR j at step j.
func Pairwise(c mpi.Comm, b Buffers, msize int) error {
	n, me := c.Size(), c.Rank()
	if n&(n-1) != 0 {
		return fmt.Errorf("alltoall: Pairwise requires a power-of-two world, have %d", n)
	}
	if err := copySelf(c, b); err != nil {
		return err
	}
	for j := 1; j < n; j++ {
		peer := me ^ j
		if err := mpi.Sendrecv(c,
			b.SendBlock(peer), peer, tagData,
			b.RecvBlock(peer), peer, tagData); err != nil {
			return fmt.Errorf("alltoall: pairwise step %d: %w", j, err)
		}
	}
	return nil
}

// RingExchange is the MPICH large-message algorithm for non-power-of-two
// worlds: N-1 steps; at step j rank i sends to i+j and receives from i-j.
func RingExchange(c mpi.Comm, b Buffers, msize int) error {
	n, me := c.Size(), c.Rank()
	if err := copySelf(c, b); err != nil {
		return err
	}
	for j := 1; j < n; j++ {
		dst := (me + j) % n
		src := (me - j + n) % n
		if err := mpi.Sendrecv(c,
			b.SendBlock(dst), dst, tagData,
			b.RecvBlock(src), src, tagData); err != nil {
			return fmt.Errorf("alltoall: ring step %d: %w", j, err)
		}
	}
	return nil
}

// MPICHThresholds are the message-size cut-offs of the improved MPICH
// dispatcher the paper describes.
const (
	MPICHSmallMax  = 256
	MPICHMediumMax = 32768
)

// MPICH is the adaptive dispatcher of the improved MPICH implementation:
// Bruck for small messages (msize <= 256), SimpleOffset for medium ones
// (<= 32768), and for large messages Pairwise when the world is a power of
// two, RingExchange otherwise.
func MPICH(c mpi.Comm, b Buffers, msize int) error {
	switch n := c.Size(); {
	case msize <= MPICHSmallMax:
		return Bruck(c, b, msize)
	case msize <= MPICHMediumMax:
		return SimpleOffset(c, b, msize)
	case n&(n-1) == 0:
		return Pairwise(c, b, msize)
	default:
		return RingExchange(c, b, msize)
	}
}
