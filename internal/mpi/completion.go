package mpi

import (
	"sync"
	"time"
)

// Completion is the request half of a transport operation: a one-slot
// completion channel, the trace information the completer recorded, and the
// single wait. Transports embed it in their operation type, which thereby
// is the mpi.Request handed back to the caller, so a message costs no
// request object beyond the operation itself.
//
// Recycling rule, stated once for every transport: a consumed wait recycles,
// a timed-out wait abandons. Wait hands the operation back to its Recycler
// at the one point where provably neither the completer nor the caller
// references it anymore — after the single completion was received. An
// operation whose wait timed out is never recycled: a late match may still
// write its buffer and its channel, so it falls to the garbage collector.
type Completion struct {
	// Info is what Wait returns beside the error. The completer writes it
	// before calling Complete; the channel send orders those writes before
	// Wait's read, and Wait reads it before recycling.
	Info TraceInfo

	done chan error
	home Recycler
}

// Recycler is the operation a Completion is embedded in: Recycle clears the
// operation's transport fields and returns it to its freelist.
type Recycler interface {
	Recycle()
}

// Init readies a fresh Completion. home, when non-nil, is recycled by every
// consumed Wait; nil leaves the operation to the garbage collector.
func (c *Completion) Init(home Recycler) {
	c.done = make(chan error, 1)
	c.home = home
}

// Complete delivers the operation's outcome. It must be called exactly once
// per posted operation; the slot is buffered, so it never blocks and may be
// called under the completer's locks.
func (c *Completion) Complete(err error) { c.done <- err }

// Wait implements Request.
func (c *Completion) Wait(d time.Duration) (TraceInfo, error) {
	var err error
	if d > 0 {
		select {
		case err = <-c.done:
		default:
			// Armed only when the operation is still pending: waits on
			// already-completed operations stay free of timer allocations.
			t := time.NewTimer(d)
			select {
			case err = <-c.done:
				t.Stop()
			case <-t.C:
				return TraceInfo{}, &TimeoutError{Op: "wait", After: d}
			}
		}
	} else {
		err = <-c.done
	}
	info := c.Info
	c.Info = TraceInfo{}
	if c.home != nil {
		c.home.Recycle()
	}
	return info, err
}

// completed is an operation that finished (or failed) at post time.
type completed struct{ err error }

func (r completed) Wait(time.Duration) (TraceInfo, error) { return TraceInfo{}, r.err }

// Completed returns a request that has already completed with err: what a
// transport hands back when an operation fails validation, names a dead
// rank, or (err == nil) finished synchronously at post time.
func Completed(err error) Request {
	if err == nil {
		return completedOK
	}
	return completed{err}
}

// completedOK is the shared success value, so the synchronous-success paths
// (self-sends, dropped messages) do not box a fresh one per message.
var completedOK Request = completed{}

// freelistCap bounds a Freelist; beyond it operations fall to the GC.
const freelistCap = 1024

// Freelist recycles a transport's operations so a steady stream of messages
// reuses a small set of operation/channel pairs instead of allocating per
// message. The zero value is ready to use.
type Freelist[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns a recycled operation, or nil when the list is empty.
func (f *Freelist[T]) Get() *T {
	var o *T
	f.mu.Lock()
	if k := len(f.free); k > 0 {
		o = f.free[k-1]
		f.free[k-1] = nil
		f.free = f.free[:k-1]
	}
	f.mu.Unlock()
	return o
}

// Put returns an operation to the list (or drops it when the list is full).
func (f *Freelist[T]) Put(o *T) {
	f.mu.Lock()
	if len(f.free) < freelistCap {
		f.free = append(f.free, o)
	}
	f.mu.Unlock()
}

// PopFront removes and returns the head of a FIFO queue by shifting the
// survivors down instead of re-slicing forward: the backing array keeps its
// full capacity, so the appends that refill the queue stop reallocating once
// it has reached its working size. The queue must be non-empty.
func PopFront[T any](q []T) (T, []T) {
	head := q[0]
	n := copy(q, q[1:])
	var zero T
	q[n] = zero
	return head, q[:n]
}
