package mpi

import "fmt"

// Datatype describes a (possibly strided) byte layout over a base slice —
// the repository's analogue of MPI user-defined datatypes (MPI_Type_vector
// and friends). A datatype lets an algorithm hand the transport a view into
// application storage (a row of blocks inside one matrix, a sub-matrix with
// a leading dimension) instead of packing the data into a contiguous
// staging buffer first: every transport gathers the blocks straight
// into its wire batches (or the peer's layout) and scatters received bytes
// straight into the destination blocks, so the data crosses user space at
// most once.
//
// The layout is count blocks of blockLen bytes each, the i-th block
// starting at byte offset i*stride of the base slice. stride == blockLen
// (or count <= 1) makes the layout contiguous. The zero Datatype is the
// "all of Buf, contiguously" default of an Op; user code builds datatypes
// with Contiguous and Vector.
type Datatype struct {
	count    int
	blockLen int
	stride   int
}

// Contiguous describes n contiguous bytes — the identity datatype.
func Contiguous(n int) Datatype {
	return Datatype{count: 1, blockLen: n, stride: n}
}

// Vector describes count blocks of blockLen bytes spaced stride bytes apart
// (MPI_Type_vector with byte-granular elements). stride must be at least
// blockLen; blocks never overlap.
func Vector(count, blockLen, stride int) Datatype {
	return Datatype{count: count, blockLen: blockLen, stride: stride}
}

// IsZero reports whether the datatype is the zero "untyped" marker.
func (d Datatype) IsZero() bool { return d.count == 0 && d.blockLen == 0 && d.stride == 0 }

// Count returns the number of blocks.
func (d Datatype) Count() int { return d.count }

// BlockLen returns the bytes per block.
func (d Datatype) BlockLen() int { return d.blockLen }

// Stride returns the byte distance between consecutive block starts.
func (d Datatype) Stride() int { return d.stride }

// Size returns the number of payload bytes the datatype describes.
func (d Datatype) Size() int { return d.count * d.blockLen }

// Extent returns the span of base bytes the layout touches: from offset 0
// to the end of the last block.
func (d Datatype) Extent() int {
	if d.count == 0 {
		return 0
	}
	return (d.count-1)*d.stride + d.blockLen
}

// Contig reports whether the layout is a single contiguous run.
func (d Datatype) Contig() bool {
	return d.count <= 1 || d.stride == d.blockLen
}

// Validate checks the datatype's internal consistency and that it fits
// within baseLen bytes of backing storage.
func (d Datatype) Validate(baseLen int) error {
	if d.count < 0 || d.blockLen < 0 {
		return fmt.Errorf("mpi: datatype with negative count (%d) or block length (%d)", d.count, d.blockLen)
	}
	if d.count > 1 && d.stride < d.blockLen {
		return fmt.Errorf("mpi: datatype stride %d < block length %d (blocks overlap)", d.stride, d.blockLen)
	}
	if d.Extent() > baseLen {
		return fmt.Errorf("mpi: datatype extent %d exceeds base length %d", d.Extent(), baseLen)
	}
	return nil
}

// Block returns the i-th block as a view into base.
func (d Datatype) Block(base []byte, i int) []byte {
	off := i * d.stride
	return base[off : off+d.blockLen]
}

// Pack gathers the datatype's bytes out of base into dst (which must hold
// Size() bytes) and returns the bytes written. The strided inverse of
// Unpack.
func (d Datatype) Pack(dst, base []byte) int {
	if d.Contig() {
		return copy(dst, base[:min(d.Size(), len(base))])
	}
	n := 0
	for i := 0; i < d.count; i++ {
		n += copy(dst[n:], d.Block(base, i))
	}
	return n
}

// Unpack scatters up to len(src) contiguous bytes into the datatype's
// blocks of base and returns the bytes placed.
func (d Datatype) Unpack(base, src []byte) int {
	if d.Contig() {
		return copy(base[:min(d.Size(), len(base))], src)
	}
	n := 0
	for i := 0; i < d.count && n < len(src); i++ {
		n += copy(d.Block(base, i), src[n:])
	}
	return n
}

// CopyTyped moves bytes between two typed views with no intermediate
// buffer, aligning the source's packed byte stream onto the destination's
// layout. It copies min(sdt.Size(), ddt.Size()) bytes and returns the
// count.
func CopyTyped(dstBase []byte, ddt Datatype, srcBase []byte, sdt Datatype) int {
	switch {
	case sdt.Contig():
		return ddt.Unpack(dstBase, srcBase[:min(sdt.Size(), len(srcBase))])
	case ddt.Contig():
		return sdt.Pack(dstBase[:min(ddt.Size(), len(dstBase))], srcBase)
	}
	// Both strided: walk both block sequences in packed order.
	total := min(sdt.Size(), ddt.Size())
	n := 0
	di, doff := 0, 0
	for si := 0; si < sdt.count && n < total; si++ {
		sb := sdt.Block(srcBase, si)
		for len(sb) > 0 && n < total {
			db := ddt.Block(dstBase, di)[doff:]
			k := min(len(sb), len(db))
			if rem := total - n; k > rem {
				k = rem
			}
			copy(db[:k], sb[:k])
			sb = sb[k:]
			n += k
			doff += k
			if doff == ddt.blockLen {
				di++
				doff = 0
			}
		}
	}
	return n
}
