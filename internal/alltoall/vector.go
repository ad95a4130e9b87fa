package alltoall

// Non-uniform AAPC (MPI_Alltoallv), where every (source, destination) pair
// exchanges its own message size, needs no algorithm of its own: a ContigV
// is a Buffers whose block lengths carry the counts, and every algorithm
// that sends blocks whole (Simple, SimpleOffset, Pairwise, RingExchange,
// Windowed and the compiled Scheduled routine) runs it unchanged with msize
// 0. The paper treats the uniform case; the scheduled routine generalizes
// directly because its phases are contention-free regardless of message
// sizes — only the optimality argument (equal phase durations saturating the
// bottleneck) is specific to uniform sizes.

// ContigV is the MPI_Alltoallv-style contiguous layout with counts and
// displacements: len(SendBlock(dst)) bytes go to dst, and
// len(RecvBlock(src)) bytes are expected from src.
type ContigV struct {
	Send, Recv             []byte
	SendCounts, RecvCounts []int
	sendDispls, recvDispls []int
}

// NewContigV allocates buffers for the given per-peer byte counts.
// sendCounts[d] is the number of bytes this rank sends to d; recvCounts[s]
// the number it expects from s.
func NewContigV(sendCounts, recvCounts []int) *ContigV {
	b := &ContigV{
		SendCounts: append([]int(nil), sendCounts...),
		RecvCounts: append([]int(nil), recvCounts...),
		sendDispls: make([]int, len(sendCounts)+1),
		recvDispls: make([]int, len(recvCounts)+1),
	}
	for i, c := range sendCounts {
		b.sendDispls[i+1] = b.sendDispls[i] + c
	}
	for i, c := range recvCounts {
		b.recvDispls[i+1] = b.recvDispls[i] + c
	}
	b.Send = make([]byte, b.sendDispls[len(sendCounts)])
	b.Recv = make([]byte, b.recvDispls[len(recvCounts)])
	return b
}

// SendBlock returns the outgoing block for peer dst.
func (b *ContigV) SendBlock(dst int) []byte {
	return b.Send[b.sendDispls[dst]:b.sendDispls[dst+1]]
}

// RecvBlock returns the incoming block for peer src.
func (b *ContigV) RecvBlock(src int) []byte {
	return b.Recv[b.recvDispls[src]:b.recvDispls[src+1]]
}
