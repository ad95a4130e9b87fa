// Package mpi defines the message-passing substrate the AAPC algorithms are
// written against: a deliberately small subset of MPI point-to-point
// semantics (nonblocking send/receive with tag matching, waiting, and a
// barrier).
//
// The paper's automatically generated MPI_Alltoall routines are built on MPI
// point-to-point primitives; this package plays the role of that layer. Five
// implementations exist:
//
//   - mpi/mem: in-process matching engine; real byte movement, used for
//     functional correctness tests and the examples.
//   - mpi/shm: an in-process world over per-pair shared-memory rings
//     (single-copy handoff or ring transit); no kernel on the data path.
//   - mpi/tcp (World): loopback TCP sockets, one connection per rank pair,
//     with sequence numbers, acks, retransmit and reconnect; the closest
//     runnable analogue of the paper's LAM/MPI-over-Ethernet stack.
//   - mpi/tcp (Join): the distributed mesh, one process per rank, found
//     through a rendezvous coordinator.
//   - simnet: a discrete-event fluid network simulator with virtual time,
//     used to reproduce the paper's performance evaluation.
//
// Algorithms written once against Comm run on all five.
//
// Every message operation is one Op descriptor entering a transport through
// Comm.Isend or Comm.Irecv, and every request completes through the single
// Request.Wait. A message is one contiguous []byte, and the trace context is
// an argument of the operation, not a parallel API, so no transport or
// wrapper can implement one and forget the other. The package-level helpers
// (Isend, Irecv, Send, Recv, Wait, WaitTimeout, WaitAll, ...) spell the
// common argument shapes.
package mpi

import (
	"fmt"
	"time"
)

// AnyTag is not supported: all receives match an explicit (source, tag)
// pair. The constant exists to document that choice.
const AnyTag = -1

// ControlSizeMax classifies messages by payload size: a message of at most
// this many bytes is control traffic (the scheduled algorithm's pair-wise
// synchronization messages are 1 byte), anything larger is data. The
// simulator prices control messages with its control latency, and every
// trace analysis leaves them out of data-flow statistics.
const ControlSizeMax = 64

// Op describes one message operation: what bytes, to or from whom, under
// which tag, and (for sends) with which trace context. The payload is always
// all of Buf, contiguously: len(Buf) is the message size.
type Op struct {
	// Buf is the storage the operation reads (send) or fills (receive). It
	// must not be modified (send) or read (receive) until the request
	// completes.
	Buf []byte
	// Peer is the destination rank of a send, the source rank of a receive.
	Peer int
	// Tag is the matching tag.
	Tag int
	// Ctx is the causal trace context a send attaches to its message
	// (MakeTraceCtx); 0 sends untraced. Ignored on receives.
	Ctx uint64
}

// Request is an in-flight nonblocking operation.
type Request interface {
	// Wait blocks until the operation completes and returns its error
	// together with what the transport learned about the message: on a
	// receive, the sender's trace context and the delivery time; on a send,
	// its own context and the time the message left. d > 0 bounds the wait:
	// on expiry Wait returns a *TimeoutError and the operation is abandoned,
	// not cancelled — its buffer must not be reused, and a late match may
	// still consume it. d <= 0 waits unbounded. Transports without a wall
	// clock (the simulator) ignore d. Wait may be called at most once per
	// request.
	Wait(d time.Duration) (TraceInfo, error)
}

// Comm is a communicator: the endpoint of one rank within a world of Size
// ranks. Implementations must be safe for use by the owning rank's
// goroutine; a Comm must not be shared between goroutines.
type Comm interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int
	// Isend starts a nonblocking send of the op's payload to rank op.Peer.
	Isend(op Op) Request
	// Irecv starts a nonblocking receive from rank op.Peer into op.Buf.
	// Completion places min(receive size, sent size) bytes; a message larger
	// than the receive fails both sides as truncated.
	Irecv(op Op) Request
	// Barrier blocks until every rank of the world has entered it.
	Barrier() error
	// Now returns the communicator's notion of elapsed time in seconds:
	// wall-clock time for real transports, virtual time for the simulator.
	Now() float64
}

// Flusher is the optional Comm extension for transports with an
// asynchronous writer stage between Isend and the wire. Flush(dst) returns
// once every send this rank has issued toward dst before the call has been
// handed to the kernel — a wire-entry ordering point — without waiting for
// delivery acknowledgement. d > 0 bounds the wait (typed *TimeoutError on
// expiry); d <= 0 waits until the watermark is reached or the transport
// reports failure.
//
// Schedulers use it to order "my previous message entered the link before
// this synchronization" at the cost of a local writer handoff instead of a
// delivery round trip. Transports whose Isend hands bytes over
// synchronously (mem, simulators) simply don't implement it; callers fall
// back to waiting the request. It is a per-peer watermark, not a message
// operation, which is why it is not an Op.
type Flusher interface {
	Flush(dst int, d time.Duration) error
}

// Isend starts a nonblocking contiguous send of buf to rank dst.
func Isend(c Comm, buf []byte, dst, tag int) Request {
	return c.Isend(Op{Buf: buf, Peer: dst, Tag: tag})
}

// Irecv starts a nonblocking contiguous receive into buf from rank src.
func Irecv(c Comm, buf []byte, src, tag int) Request {
	return c.Irecv(Op{Buf: buf, Peer: src, Tag: tag})
}

// Wait waits for the request unbounded and returns its error.
func Wait(r Request) error {
	_, err := r.Wait(0)
	return err
}

// Send is a blocking send: Isend immediately waited.
func Send(c Comm, buf []byte, dst, tag int) error {
	return Wait(Isend(c, buf, dst, tag))
}

// Recv is a blocking receive: Irecv immediately waited.
func Recv(c Comm, buf []byte, src, tag int) error {
	return Wait(Irecv(c, buf, src, tag))
}

// Sendrecv performs a blocking simultaneous send and receive, the workhorse
// of pairwise-exchange algorithms.
func Sendrecv(c Comm, sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) error {
	rr := Irecv(c, recvBuf, src, recvTag)
	sr := Isend(c, sendBuf, dst, sendTag)
	if err := Wait(sr); err != nil {
		// Drain the receive to keep the transport consistent before
		// reporting the send failure.
		_ = Wait(rr)
		return err
	}
	return Wait(rr)
}

// WaitAll waits for every request and returns the first error encountered,
// after waiting for all of them.
func WaitAll(reqs []Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if err := Wait(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CheckRank validates a peer rank against the world size.
func CheckRank(c Comm, peer int) error {
	if size := c.Size(); peer < 0 || peer >= size {
		return fmt.Errorf("mpi: rank %d out of range [0, %d)", peer, size)
	}
	return nil
}
