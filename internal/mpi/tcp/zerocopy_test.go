package tcp

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// TestTCPZeroCopySteadyState is the copy-count analogue of the allocation
// gates: in the steady state — receives pre-posted, payloads at or above
// zeroCopyMin — the data plane must move every payload with zero userspace
// copies. Send side: every frame borrows the caller's buffer into the
// writev batch (BorrowedSends, no CopiedSends). Receive side: every payload
// lands straight off the socket into the posted buffer (ZeroCopyRecvs, no
// PayloadCopies). The assertions are exact equalities on the stats deltas,
// so a single regression anywhere on the path fails the gate. It holds
// however the ranks were wired: in one process, or joined through a
// coordinator over sockets — the deployable path.
func TestTCPZeroCopySteadyState(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name string
		wire func(t *testing.T) (comms []mpi.Comm, stats func() Stats, cleanup func())
	}{
		{"world", func(t *testing.T) ([]mpi.Comm, func() Stats, func()) {
			comms, closeWorld, err := NewWorld(n)
			if err != nil {
				t.Fatal(err)
			}
			return comms, comms[0].(*node).TransportStats, func() {
				if err := closeWorld(); err != nil {
					t.Error(err)
				}
			}
		}},
		{"join-mesh", func(t *testing.T) ([]mpi.Comm, func() Stats, func()) {
			comms, cleanup := joinWorld(t, n)
			return comms, func() Stats { return sumStats(comms) }, cleanup
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comms, stats, cleanup := tc.wire(t)
			defer cleanup()
			zeroCopySteadyState(t, comms, stats)
		})
	}
}

// sumStats adds up the per-rank counters of a joined world.
func sumStats(comms []mpi.Comm) Stats {
	var total Stats
	for _, c := range comms {
		s := c.(*node).TransportStats()
		total.BorrowedSends += s.BorrowedSends
		total.CopiedSends += s.CopiedSends
		total.PayloadCopies += s.PayloadCopies
		total.ZeroCopyRecvs += s.ZeroCopyRecvs
		total.Reconnects += s.Reconnects
		total.ReconnectFailures += s.ReconnectFailures
		total.Retransmits += s.Retransmits
		total.BackoffSleeps += s.BackoffSleeps
	}
	return total
}

func zeroCopySteadyState(t *testing.T, comms []mpi.Comm, stats func() Stats) {
	const (
		iters = 10
		msize = 65536
	)
	n := len(comms)

	// Pre-post every receive of every iteration (distinct tags), then
	// barrier: from here on no frame can arrive before its receive, and no
	// control traffic interleaves with the measured window.
	recvs := make([][]mpi.Request, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(c mpi.Comm) {
			defer wg.Done()
			me := c.Rank()
			for it := 0; it < iters; it++ {
				for src := 0; src < n; src++ {
					if src == me {
						continue
					}
					recvs[me] = append(recvs[me], mpi.Irecv(c, make([]byte, msize), src, it))
				}
			}
			errs <- c.Barrier()
		}(comms[r])
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	base := stats()

	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(c mpi.Comm) {
			defer wg.Done()
			me := c.Rank()
			sendBufs := make([][]byte, n)
			for dst := 0; dst < n; dst++ {
				sendBufs[dst] = make([]byte, msize)
			}
			for it := 0; it < iters; it++ {
				var reqs []mpi.Request
				for dst := 0; dst < n; dst++ {
					if dst == me {
						continue
					}
					reqs = append(reqs, mpi.Isend(c, sendBufs[dst], dst, it))
				}
				// Wait drains the iteration; borrowed frames complete on
				// their cumulative ack, so the buffers are free for reuse.
				if err := mpi.WaitAll(reqs); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(comms[r])
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < n; r++ {
		if err := mpi.WaitAll(recvs[r]); err != nil {
			t.Fatal(err)
		}
	}

	s := stats()
	frames := uint64(iters * n * (n - 1))
	if got := s.BorrowedSends - base.BorrowedSends; got != frames {
		t.Errorf("borrowed sends = %d, want %d (every data frame borrows)", got, frames)
	}
	if got := s.CopiedSends - base.CopiedSends; got != 0 {
		t.Errorf("copied sends = %d, want 0 in the steady state", got)
	}
	if got := s.PayloadCopies - base.PayloadCopies; got != 0 {
		t.Errorf("payload copies = %d, want 0 with receives pre-posted", got)
	}
	if got := s.ZeroCopyRecvs - base.ZeroCopyRecvs; got != frames {
		t.Errorf("zero-copy receives = %d, want %d", got, frames)
	}
}

// TestUntimedStreamWaitNoAllocs: an untimed wait on the send stream — the
// one Flush makes with d <= 0, as the scheduled all-to-all does at every
// phase boundary — allocates nothing even when it blocks until another
// goroutine satisfies it.
func TestUntimedStreamWaitNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on synchronization")
	}
	st := &sendStream{}
	st.cond = sync.NewCond(&st.mu)
	poke := make(chan struct{})
	defer close(poke)
	go func() {
		for range poke {
			st.mu.Lock()
			st.wrote++
			st.cond.Broadcast()
			st.mu.Unlock()
		}
	}()
	var target uint64
	done := func() bool { return st.wrote >= target }
	allocs := testing.AllocsPerRun(200, func() {
		st.mu.Lock()
		target = st.wrote + 1
		// The poker takes st.mu only once the wait has released it, so
		// every run blocks.
		poke <- struct{}{}
		if !st.waitLocked(0, done) {
			t.Error("untimed wait returned before its condition held")
		}
		st.mu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("untimed blocking wait: %v allocs per wait, want 0", allocs)
	}
}

// bareLink returns rank 0's end of a two-rank node with no writer, reader or
// socket behind it, so a test can drive the send path's steps by hand.
func bareLink() *link {
	nd := &node{shared: &shared{start: time.Now()}, n: 2, links: make([]*link, 2)}
	lk := &link{nd: nd, peer: 1}
	lk.st.cond = sync.NewCond(&lk.st.mu)
	nd.links[1] = lk
	return lk
}

// drainedConn returns one end of a loopback TCP connection whose other end
// is read, into one reused buffer, until the test ends.
func drainedConn(t *testing.T) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64<<10)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
		peer.Close()
	})
	return conn
}

// TestSendLoopNoSteadyStateAllocs is the allocation gate of the send side.
// Once warm, one pass of the writer's loop allocates nothing: collect,
// buildIovecs, the vectored write to a real socket and releaseBatch, then
// the cumulative ack retiring the frames (retireFrameLocked, finish) and
// the payload pool's get/put hit path. Each pass carries one borrowed
// frame and one pooled copy, so both ways a frame retires run. The frames
// come from the rank's freelist, and the ack and the Wait recycle them:
// once warm, a send's request allocates nothing either.
func TestSendLoopNoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on synchronization")
	}
	const runs = 200
	lk, conn := bareLink(), drainedConn(t)
	nd, st := lk.nd, &lk.st
	block, small := make([]byte, 4096), make([]byte, 100)
	var b writeBatch
	// iov escapes through the net.Conn interface, as in writer.
	var iov net.Buffers
	i := 0
	pass := func() {
		i++
		borrowed := getDataFrame(&nd.sendFrames, mpi.Op{Buf: block, Tag: i, Ctx: uint64(i)})
		borrowed.borrowed = true
		pair := [2]*outFrame{borrowed, getDataFrame(&nd.sendFrames, mpi.Op{Buf: small, Tag: i})}
		st.mu.Lock()
		// The copy branch of isend.
		pair[1].buf = nd.pool.get(len(small))
		copy(pair[1].buf, small)
		pair[1].poolable = true
		st.queue = append(st.queue, pair[:]...)
		if b.collect(st, 64, writerMaxBatch) {
			t.Fatal("retransmit window overflow")
		}
		st.mu.Unlock()
		b.buildIovecs()
		iov = b.iovecs
		if _, err := iov.WriteTo(conn); err != nil {
			t.Fatal(err)
		}
		lk.releaseBatch(&b, nil, true, false)
		lk.ackStream(st.nextSeq)
		for _, fr := range pair {
			if _, err := fr.Wait(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	pass()
	if allocs := testing.AllocsPerRun(runs, pass); allocs != 0 {
		t.Fatalf("send loop: %v allocs per pass, want 0", allocs)
	}
	if len(st.unacked) != 0 {
		t.Fatalf("%d frames left unacked", len(st.unacked))
	}
}

// TestStreamFailureDuringWrite fails the stream while a batch is out, as a
// peer kill or a corrupt-stream break can, and checks that the batch's
// frames complete as the write went, not with the link's error. After a
// writev that returned, the copied frame, the zero-size frame and the
// borrowed frame all completed at (or, borrowed, past) the point a send
// completes: their Waits return nil. After a writev that failed, no frame
// reached the kernel and each fails with the stream's error.
func TestStreamFailureDuringWrite(t *testing.T) {
	conn := drainedConn(t)
	for _, wrote := range []bool{true, false} {
		name := "writev-returned"
		if !wrote {
			name = "writev-failed"
		}
		t.Run(name, func(t *testing.T) { failDuringWrite(t, conn, wrote) })
	}
}

// failDuringWrite collects a copied, a zero-size and a borrowed frame into
// one batch, writes it to conn when wrote is set, fails the stream and
// releases the batch, then checks each frame's Wait.
func failDuringWrite(t *testing.T, conn net.Conn, wrote bool) {
	lk := bareLink()
	nd, st := lk.nd, &lk.st
	small := []byte("copied payload")
	copied := getDataFrame(&nd.sendFrames, mpi.Op{Buf: small, Tag: 1})
	copied.buf = nd.pool.get(len(small))
	copy(copied.buf, small)
	copied.poolable = true
	empty := getDataFrame(&nd.sendFrames, mpi.Op{Tag: 2})
	borrowed := getDataFrame(&nd.sendFrames, mpi.Op{Buf: make([]byte, 4096), Tag: 3})
	borrowed.borrowed = true
	frames := []*outFrame{copied, empty, borrowed}
	var b writeBatch
	st.mu.Lock()
	st.queue = append(st.queue, frames...)
	b.collect(st, 64, writerMaxBatch)
	st.mu.Unlock()
	if wrote {
		b.buildIovecs()
		iov := b.iovecs
		if _, err := iov.WriteTo(conn); err != nil {
			t.Fatal(err)
		}
	}
	fail := &mpi.RankError{Rank: 1, Err: errClosed}
	st.mu.Lock()
	lk.failStreamLocked(fail)
	st.mu.Unlock()
	lk.releaseBatch(&b, nil, wrote, !wrote)
	for _, fr := range frames {
		// A consumed Wait recycles the frame: read it before.
		tag, size := fr.tag, fr.size
		_, err := fr.Wait(time.Second)
		if wrote && err != nil {
			t.Errorf("written frame (tag %d, %d B): Wait = %v, want nil", tag, size, err)
		}
		if !wrote && err != fail {
			t.Errorf("unwritten frame (tag %d, %d B): Wait = %v, want %v", tag, size, err, fail)
		}
	}
}

// TestZeroCopyAliasing checks the zero-copy property itself rather than a
// counter of it. A borrowed send's payload iovec is the caller's block:
// the same backing array and the same length. A payload that fits its
// posted receive, behind a header read while that receive was posted, is
// read off the socket into that receive's buffer and nowhere else: the
// header's read took none of it.
func TestZeroCopyAliasing(t *testing.T) {
	t.Run("borrowed-send", func(t *testing.T) {
		// 64 KiB is above zeroCopyMin; 64 B is below it but pool-aligned.
		for _, size := range []int{64 << 10, 64} {
			lk := bareLink()
			block := make([]byte, size)
			lk.nd.isend(mpi.Op{Buf: block, Peer: 1, Tag: 7})
			var b writeBatch
			lk.st.mu.Lock()
			b.collect(&lk.st, 64, writerMaxBatch)
			lk.st.mu.Unlock()
			b.buildIovecs()
			if len(b.iovecs) != 2 {
				t.Fatalf("%d B: %d iovecs, want a header and a payload", size, len(b.iovecs))
			}
			if p := b.iovecs[1]; unsafe.SliceData(p) != unsafe.SliceData(block) || len(p) != size {
				t.Errorf("%d B: payload iovec is not the caller's block", size)
			}
		}
	})
	t.Run("posted-recv", func(t *testing.T) {
		nd := &node{shared: &shared{}}
		m := newMatcher(2, nd.shared, nd.Now)
		key := matchKey{src: 1, tag: 7}
		for _, size := range []int{8192, 5000, 1} {
			op := &recvOp{buf: make([]byte, 8192)}
			m.post(key, op)
			want := bytes.Repeat([]byte{0xa5}, size)
			frame := make([]byte, headerLen, headerLen+size)
			putFrameHeader(frame, frameHeader{kind: frameData, tag: key.tag, size: size})
			conn := &recordingConn{src: bytes.NewReader(append(frame, want...))}
			// The read loop's gate: the 8 KiB receive is posted, so the
			// header's read takes nothing behind it.
			in := newFrameReader(conn, func() bool { return !m.zeroCopyPosted(key.src) })
			if _, err := in.header(); err != nil {
				t.Fatal(err)
			}
			if m.claim(key) != op {
				t.Fatalf("%d B: the posted receive was not claimed", size)
			}
			conn.targets, conn.got = nil, 0
			sockErr, opErr := nd.readIntoOp(in, op, size)
			if sockErr != nil || opErr != nil {
				t.Fatalf("%d B: readIntoOp = %v, %v", size, sockErr, opErr)
			}
			if !bytes.Equal(op.buf[:size], want) {
				t.Fatalf("%d B: payload did not land in the posted buffer", size)
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(op.buf)))
			hi := lo + uintptr(len(op.buf))
			for _, p := range conn.targets {
				at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
				if at < lo || at+uintptr(len(p)) > hi {
					t.Fatalf("%d B: a socket read landed outside the posted buffer", size)
				}
			}
			if len(conn.targets) == 0 {
				t.Fatalf("%d B: nothing was read", size)
			}
			if conn.got != size {
				t.Fatalf("%d B: %d payload bytes read off the connection, want all", size, conn.got)
			}
		}
	})
}

// recordingConn serves src in reads of at most 1000 bytes and records
// every buffer a Read was asked to fill, and how many bytes it got.
type recordingConn struct {
	net.Conn
	src     io.Reader
	targets [][]byte
	got     int
}

func (c *recordingConn) Read(p []byte) (int, error) {
	c.targets = append(c.targets, p)
	n, err := c.src.Read(p[:min(len(p), 1000)])
	c.got += n
	return n, err
}
