package mpitest

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// stubComm completes every request at once.
type stubComm struct{}

func (stubComm) Rank() int                { return 0 }
func (stubComm) Size() int                { return 2 }
func (stubComm) Isend(mpi.Op) mpi.Request { return stubRequest{} }
func (stubComm) Irecv(mpi.Op) mpi.Request { return stubRequest{} }
func (stubComm) Barrier() error           { return nil }
func (stubComm) Now() float64             { return 0 }

type stubRequest struct{}

func (stubRequest) Wait(time.Duration) (mpi.TraceInfo, error) { return mpi.TraceInfo{}, nil }

// stubFlushComm is a stubComm over a transport with a writer stage.
type stubFlushComm struct {
	stubComm
	flushed []int
}

func (c *stubFlushComm) Flush(dst int, _ time.Duration) error {
	c.flushed = append(c.flushed, dst)
	return nil
}

func TestWaitsAllCountsEveryRequest(t *testing.T) {
	all := func(c mpi.Comm) error {
		s, r := mpi.Isend(c, nil, 1, 0), mpi.Irecv(c, nil, 1, 0)
		return mpi.WaitAll([]mpi.Request{s, r})
	}
	if err := WaitsAll(stubComm{}, all); err != nil {
		t.Errorf("every request waited: %v", err)
	}

	// A second Wait on one request must not stand in for the other's.
	dropped := func(c mpi.Comm) error {
		s := mpi.Isend(c, nil, 1, 0)
		mpi.Irecv(c, nil, 1, 0)
		mpi.Wait(s)
		return mpi.Wait(s)
	}
	err := WaitsAll(stubComm{}, dropped)
	if err == nil || !strings.Contains(err.Error(), "2 requests posted, 1 waited") {
		t.Errorf("dropped wait: %v, want 2 posted, 1 waited", err)
	}

	// An aborting routine abandons its requests by design.
	abort := errors.New("abort")
	err = WaitsAll(stubComm{}, func(c mpi.Comm) error {
		mpi.Isend(c, nil, 1, 0)
		return abort
	})
	if err != abort {
		t.Errorf("aborting routine: %v, want its own error", err)
	}
}

func TestWaitsAllOffersFlusherExactlyWhenInnerDoes(t *testing.T) {
	WaitsAll(stubComm{}, func(c mpi.Comm) error {
		if _, ok := c.(mpi.Flusher); ok {
			t.Error("wrapper of a comm without Flush offers mpi.Flusher")
		}
		return nil
	})
	inner := &stubFlushComm{}
	WaitsAll(inner, func(c mpi.Comm) error {
		fl, ok := c.(mpi.Flusher)
		if !ok {
			t.Fatal("wrapper of a Flusher comm hides mpi.Flusher")
		}
		return fl.Flush(1, 0)
	})
	if len(inner.flushed) != 1 || inner.flushed[0] != 1 {
		t.Errorf("Flush reached the inner comm as %v, want [1]", inner.flushed)
	}
}
