package mpi

// Causal trace contexts.
//
// A trace context is a compact causal identifier a sender attaches to one
// message so the receiver's span can be linked back to the sender's span
// across rank-local event logs: the observability layer stamps every
// instrumented operation with a per-rank sequence number, packs
// (rank, seq) into a context, and transports that support tracing carry
// the context alongside the payload (an extra header word on tcp frames,
// a field on the in-process and simulated match records). Retransmitted
// frames carry the same context as the original, and duplicate discard
// happens below the matching layer, so one message produces exactly one
// causal edge no matter how often the wire re-delivers it.
//
// The zero context means "no context": both the rank and the sequence
// number are biased so that a valid context is never 0.

// traceSeqBits is the width of the sequence-number field of a context; the
// rank occupies the bits above it. 2^40 operations per rank per run and
// 2^23 ranks are both far beyond anything this repository simulates.
const traceSeqBits = 40

// MakeTraceCtx packs a sender rank and a 1-based per-rank span sequence
// number into a trace context. A valid context is never zero (the rank
// field is biased by one), so 0 always means "untraced".
func MakeTraceCtx(rank int, seq uint64) uint64 {
	return (uint64(rank)+1)<<traceSeqBits | (seq & (1<<traceSeqBits - 1))
}

// SplitTraceCtx unpacks a context built by MakeTraceCtx.
func SplitTraceCtx(ctx uint64) (rank int, seq uint64) {
	return int(ctx>>traceSeqBits) - 1, ctx & (1<<traceSeqBits - 1)
}

// TraceInfo is what Request.Wait learns about the completed operation
// beyond its error.
type TraceInfo struct {
	// Ctx is, on a receive, the trace context the matching sender attached
	// (0 when the message was sent untraced); on a send, the context the
	// send itself carried.
	Ctx uint64
	// DeliveredAt is the transport's completion timestamp in Comm.Now()
	// seconds: on a receive, the moment the payload reached this rank's
	// matching layer, as opposed to the moment the receiver got around to
	// waiting; on a send, the moment the message left. 0 means unknown.
	// Transports stamp it only for traced messages, keeping the untraced
	// fast path free of clock reads.
	DeliveredAt float64
}
