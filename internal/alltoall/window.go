package alltoall

import "github.com/aapc-sched/aapcsched/internal/mpi"

// TypedBuffers is the optional Buffers extension for the zero-copy data
// path: each block is exposed as an (base, datatype) view into application
// storage instead of a materialized contiguous slice. Every transport
// gathers a strided send view straight into its wire batches (or the peer's
// layout) and scatters receives straight into the destination layout.
type TypedBuffers interface {
	Buffers
	// SendView returns the layout of the block this rank sends to dst.
	SendView(dst int) ([]byte, mpi.Datatype)
	// RecvView returns the layout into which data from src is placed.
	RecvView(src int) ([]byte, mpi.Datatype)
}

// SendView exposes a Contig send block as a contiguous view.
func (b *Contig) SendView(dst int) ([]byte, mpi.Datatype) {
	return b.SendBlock(dst), mpi.Contiguous(b.Msize)
}

// RecvView exposes a Contig receive block as a contiguous view.
func (b *Contig) RecvView(src int) ([]byte, mpi.Datatype) {
	return b.RecvBlock(src), mpi.Contiguous(b.Msize)
}

// Window is the matrix-backed buffer layout: the application keeps one
// row-major Send matrix of R rows by N*W bytes (leading dimension N*W), and
// the block destined to peer p is the W-byte-wide column strip p — R rows
// spaced a full matrix row apart. An all-to-all over a Window is therefore
// a blockwise matrix transpose performed straight out of matrix storage:
// the strips are gathered into the wire batch block by block and no pack
// buffer ever exists.
//
// Receives land in contiguous per-peer blocks (Recv, N blocks of R*W
// bytes), so the strided-send → contiguous-recv round trip is exercised end
// to end. Window also satisfies the plain Buffers contract for non-typed
// algorithms: RecvBlock is a direct view, and SendBlock packs the strip
// into a scratch slab (the one copy the typed path removes).
type Window struct {
	Send []byte // R rows × N*W bytes, row-major
	Recv []byte // N contiguous blocks of R*W bytes
	N    int    // world size
	R    int    // rows per block
	W    int    // strip width in bytes

	scratch []byte // lazily allocated SendBlock packing slab
}

// NewWindow allocates a Window for n ranks with blocks of rows×w bytes
// (msize = rows*w).
func NewWindow(n, rows, w int) *Window {
	return &Window{
		Send: make([]byte, rows*n*w),
		Recv: make([]byte, n*rows*w),
		N:    n,
		R:    rows,
		W:    w,
	}
}

// Msize returns the block size in bytes.
func (b *Window) Msize() int { return b.R * b.W }

// SendView returns peer dst's column strip as a strided view into the Send
// matrix.
func (b *Window) SendView(dst int) ([]byte, mpi.Datatype) {
	return b.Send[dst*b.W:], mpi.Vector(b.R, b.W, b.N*b.W)
}

// RecvView returns peer src's contiguous destination block.
func (b *Window) RecvView(src int) ([]byte, mpi.Datatype) {
	m := b.Msize()
	return b.Recv[src*m : (src+1)*m], mpi.Contiguous(m)
}

// RecvBlock returns the contiguous block for src (plain Buffers contract).
func (b *Window) RecvBlock(src int) []byte {
	m := b.Msize()
	return b.Recv[src*m : (src+1)*m]
}

// SendBlock materializes peer dst's strip contiguously for non-typed
// algorithms, packing it into a per-Window scratch slab. Typed consumers
// should use SendView and never pay this copy.
func (b *Window) SendBlock(dst int) []byte {
	m := b.Msize()
	if b.scratch == nil {
		b.scratch = make([]byte, b.N*m)
	}
	block := b.scratch[dst*m : (dst+1)*m]
	base, dt := b.SendView(dst)
	dt.Pack(block, base)
	return block
}
