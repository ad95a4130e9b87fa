package mpi

import (
	"errors"
	"fmt"
	"time"
)

// RankError reports that a specific peer rank has failed (process death,
// exhausted reconnects, injected kill). Transports surface it instead of
// hanging so that collective algorithms can fail closed: every operation
// naming the dead rank — and only those — errors with a RankError.
type RankError struct {
	// Rank is the rank that failed.
	Rank int
	// Err is the underlying transport error, if any.
	Err error
}

func (e *RankError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("mpi: rank %d failed: %v", e.Rank, e.Err)
	}
	return fmt.Sprintf("mpi: rank %d failed", e.Rank)
}

func (e *RankError) Unwrap() error { return e.Err }

// AsRankError extracts a RankError from an error chain.
func AsRankError(err error) (*RankError, bool) {
	var re *RankError
	if errors.As(err, &re) {
		return re, true
	}
	return nil, false
}

// TimeoutError reports that an operation's deadline expired before the
// operation completed. The operation itself is abandoned, not cancelled: its
// buffer must not be reused, and a late match may still consume it.
type TimeoutError struct {
	// Op names the operation ("recv", "send", "barrier", ...).
	Op string
	// After is the deadline that expired.
	After time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("mpi: %s deadline %v expired", e.Op, e.After)
}

// Timeout marks the error as a timeout in the net.Error sense.
func (e *TimeoutError) Timeout() bool { return true }

// IsTimeout reports whether the error chain contains a TimeoutError.
func IsTimeout(err error) bool {
	var te *TimeoutError
	return errors.As(err, &te)
}

// WaitTimeout waits for a request bounded by d and returns its error; d <= 0
// (or a nil request) is an unbounded wait.
func WaitTimeout(r Request, d time.Duration) error {
	if r == nil {
		return nil
	}
	_, err := r.Wait(d)
	return err
}

// WaitAllTimeout waits for every request under one shared deadline: the
// budget d covers the whole batch, not each request. It returns the first
// error encountered after attempting to wait for all of them. d <= 0 is
// WaitAll.
func WaitAllTimeout(reqs []Request, d time.Duration) error {
	if d <= 0 {
		return WaitAll(reqs)
	}
	deadline := time.Now().Add(d)
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		rem := time.Until(deadline)
		if rem <= 0 {
			// Budget exhausted: give each remaining request a chance to
			// complete immediately, but do not block.
			rem = time.Nanosecond
		}
		if err := WaitTimeout(r, rem); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SendTimeout is a blocking send bounded by d.
func SendTimeout(c Comm, buf []byte, dst, tag int, d time.Duration) error {
	return WaitTimeout(Isend(c, buf, dst, tag), d)
}

// RecvTimeout is a blocking receive bounded by d.
func RecvTimeout(c Comm, buf []byte, src, tag int, d time.Duration) error {
	return WaitTimeout(Irecv(c, buf, src, tag), d)
}

// FaultOp is the action a fault-injection layer requests for one outbound
// message. The hook types live here, in the package both the transports and
// the injector already depend on, so neither has to import the other.
type FaultOp int

const (
	// FaultNone delivers the message normally.
	FaultNone FaultOp = iota
	// FaultDelay delays the message by the returned duration.
	FaultDelay
	// FaultDropConn breaks the underlying connection instead of delivering;
	// a resilient transport recovers it by reconnect + retransmit, a
	// non-resilient one fails the pair.
	FaultDropConn
	// FaultDuplicate delivers the message twice; sequence-number
	// deduplication must discard the second copy.
	FaultDuplicate
)

// String names the op.
func (op FaultOp) String() string {
	switch op {
	case FaultNone:
		return "none"
	case FaultDelay:
		return "delay"
	case FaultDropConn:
		return "drop"
	case FaultDuplicate:
		return "dup"
	default:
		return fmt.Sprintf("FaultOp(%d)", int(op))
	}
}

// FaultInjector is consulted by a transport once per outbound message on the
// directed pair src->dst (first transmission only, never on retransmits).
// Implementations must be safe for concurrent use and deterministic per
// pair: the k-th call for a given (src, dst) always returns the same action
// regardless of interleaving with other pairs.
type FaultInjector interface {
	FrameFault(src, dst int) (FaultOp, time.Duration)
}

// Killer is implemented by communicators that can simulate the death of
// their own rank: after Kill, every operation involving the rank fails with
// a RankError on all surviving ranks.
type Killer interface {
	Kill() error
}
