package mpi

import (
	"errors"
	"testing"
	"time"
)

// stubComm is a minimal in-memory Comm for exercising the package helpers
// without a real transport: sends complete immediately into a queue,
// receives pop from it.
type stubComm struct {
	rank, size int
	queue      map[int][][]byte // per tag
	sendErr    error
	recvErr    error
}

type stubRequest struct{ err error }

func (r stubRequest) Wait(time.Duration) (TraceInfo, error) { return TraceInfo{}, r.err }

func (c *stubComm) Rank() int    { return c.rank }
func (c *stubComm) Size() int    { return c.size }
func (c *stubComm) Now() float64 { return 0 }

func (c *stubComm) Isend(op Op) Request {
	buf, tag := op.Buf, op.Tag
	if err := CheckRank(c, op.Peer); err != nil {
		return stubRequest{err}
	}
	if c.sendErr != nil {
		return stubRequest{c.sendErr}
	}
	if c.queue == nil {
		c.queue = make(map[int][][]byte)
	}
	c.queue[tag] = append(c.queue[tag], append([]byte(nil), buf...))
	return stubRequest{}
}

func (c *stubComm) Irecv(op Op) Request {
	buf, tag := op.Buf, op.Tag
	if err := CheckRank(c, op.Peer); err != nil {
		return stubRequest{err}
	}
	if c.recvErr != nil {
		return stubRequest{c.recvErr}
	}
	q := c.queue[tag]
	if len(q) == 0 {
		return stubRequest{errors.New("stub: nothing queued")}
	}
	copy(buf, q[0])
	c.queue[tag] = q[1:]
	return stubRequest{}
}

func (c *stubComm) Barrier() error { return nil }

func TestSendRecvHelpers(t *testing.T) {
	c := &stubComm{rank: 0, size: 2}
	if err := Send(c, []byte("hi"), 0, 1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if err := Recv(c, buf, 0, 1); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hi" {
		t.Errorf("got %q", buf)
	}
}

func TestSendrecvHelper(t *testing.T) {
	c := &stubComm{rank: 0, size: 2}
	// Preload what the receive will consume.
	if err := Send(c, []byte("xy"), 0, 7); err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 2)
	if err := Sendrecv(c, []byte("ab"), 0, 3, in, 0, 7); err != nil {
		t.Fatal(err)
	}
	if string(in) != "xy" {
		t.Errorf("got %q", in)
	}
}

func TestSendrecvPropagatesSendError(t *testing.T) {
	c := &stubComm{rank: 0, size: 2, sendErr: errors.New("boom")}
	if err := Sendrecv(c, nil, 0, 0, nil, 0, 0); err == nil {
		t.Error("want send error")
	}
}

func TestWaitAll(t *testing.T) {
	boom := errors.New("boom")
	reqs := []Request{
		stubRequest{},
		nil, // tolerated
		stubRequest{boom},
		stubRequest{errors.New("later, ignored")},
	}
	if err := WaitAll(reqs); err != boom {
		t.Errorf("WaitAll = %v, want first error %v", err, boom)
	}
	if err := WaitAll(nil); err != nil {
		t.Errorf("WaitAll(nil) = %v", err)
	}
}

func TestCheckRank(t *testing.T) {
	c := &stubComm{rank: 0, size: 4}
	if err := CheckRank(c, 3); err != nil {
		t.Error(err)
	}
	if err := CheckRank(c, 4); err == nil {
		t.Error("want error for rank == size")
	}
	if err := CheckRank(c, -1); err == nil {
		t.Error("want error for negative rank")
	}
}
