package tcp

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/aapc-sched/aapcsched/internal/mpi"
)

// chunkedConn serves src in short reads whose lengths cycle through cuts
// (1 to 256 bytes, the whole request past 200), and records how many bytes
// each read put where.
type chunkedConn struct {
	net.Conn
	src   io.Reader
	cuts  []byte
	k     int
	reads []landed
}

// landed is one read's target and the bytes it got.
type landed struct {
	at []byte
	n  int
}

func (c *chunkedConn) Read(p []byte) (int, error) {
	if len(c.cuts) > 0 {
		if cut := c.cuts[c.k%len(c.cuts)]; cut <= 200 {
			p = p[:min(len(p), 1+int(cut))]
		}
		c.k++
	}
	n, err := c.src.Read(p)
	c.reads = append(c.reads, landed{p, n})
	return n, err
}

func (c *chunkedConn) Close() error { return nil }

// readerLink returns rank 0's end of a two-rank node with a live matcher
// and no writer: its read loop can run over any conn.
func readerLink(conn net.Conn) *link {
	lk := bareLink()
	nd := lk.nd
	nd.shared.cfg = newConfig(nil)
	nd.ctx, nd.closing = context.WithCancel(context.Background())
	nd.matcher = newMatcher(2, nd.shared, nd.Now)
	lk.cond = sync.NewCond(&lk.mu)
	lk.conn, lk.state = conn, linkUp
	return lk
}

// streamSizes are the payload sizes a script picks from: empty, one-byte
// syncs, small blocks, both sides of zeroCopyMin and of the read buffer.
var streamSizes = []int{0, 1, 64, 300, zeroCopyMin - 1, zeroCopyMin, readBufLen - headerLen, readBufLen + 100, 3 * readBufLen}

// FuzzFrameStream drives the read loop over a stream of valid frames served
// in arbitrary short reads. Each script byte is one data frame: its payload
// size, its tag (three tags, so frames queue behind each other), whether
// its receive is posted before the stream starts — its buffer small, or at
// least zeroCopyMin — whether it asks for an ack, whether an ack frame
// precedes it and whether its duplicate follows it. Every payload must
// arrive exactly once, in order per tag and byte-exact, and every payload
// byte of a receive of at least zeroCopyMin posted in advance must be read
// off the conn into that receive's buffer. The stream ends in tail when
// tail is a header the decoder refuses, which must take the link down for
// good, and in EOF otherwise, which is a transient break.
func FuzzFrameStream(f *testing.F) {
	for i, c := range frameHeaderCases {
		f.Add([]byte{0x00, 0x5b, 0xc7, 0x1e, byte(i), 0xf4, 0x88}, []byte{byte(i), 40, 255, 7}, c.hdr)
	}
	f.Fuzz(func(t *testing.T, script, cuts, tail []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		type frame struct {
			tag, size   int
			posted, big bool
			payload     []byte
		}
		var wire bytes.Buffer
		var frames []frame
		var hdr [headerLen]byte
		dups := 0
		for i, b := range script {
			fr := frame{tag: int(b>>4) % 3, size: streamSizes[int(b&0x0f)%len(streamSizes)]}
			fr.posted, fr.big = b&0x40 != 0, b&0x08 != 0
			fr.payload = make([]byte, fr.size)
			for j := range fr.payload {
				fr.payload[j] = byte(i*131 + j)
			}
			frames = append(frames, fr)
			if b&0x20 != 0 {
				putFrameHeader(hdr[:], frameHeader{kind: frameAck, ack: uint64(i)})
				wire.Write(hdr[:])
			}
			h := frameHeader{kind: frameData, ackReq: b&0x80 != 0, tag: fr.tag, seq: uint64(i), size: fr.size, ctx: uint64(i)}
			for k := 0; k <= int(b&0x10)>>4; k++ {
				putFrameHeader(hdr[:], h)
				wire.Write(hdr[:])
				wire.Write(fr.payload)
				dups += k
			}
		}
		var tailErr error
		if len(tail) >= headerLen {
			if _, tailErr = parseFrameHeader(tail[:headerLen]); tailErr != nil {
				wire.Write(tail[:headerLen])
			}
		}

		conn := &chunkedConn{src: &wire, cuts: cuts}
		lk := readerLink(conn)
		nd, m := lk.nd, lk.nd.matcher
		// Per tag, a prefix of its frames has receives posted in advance:
		// as many as its frames flagged posted. Receives match in order.
		byTag := make([][]int, 3)
		for i, fr := range frames {
			byTag[fr.tag] = append(byTag[fr.tag], i)
		}
		ops := make([]*recvOp, len(frames))
		post := func(i int) {
			n := frames[i].size
			if frames[i].big {
				n = max(n, zeroCopyMin)
			}
			ops[i] = getRecvOp(&nd.recvOps, mpi.Op{Peer: 1, Tag: frames[i].tag, Buf: make([]byte, n+7)})
			m.post(matchKey{src: 1, tag: frames[i].tag}, ops[i])
		}
		for _, q := range byTag {
			k := 0
			for _, i := range q {
				if frames[i].posted {
					k++
				}
			}
			for _, i := range q[:k] {
				post(i)
			}
		}
		early := make([]bool, len(frames))
		for i, op := range ops {
			early[i] = op != nil
		}

		nd.wg.Add(1)
		lk.reader.Add(1)
		lk.readLoop(conn, lk.epoch)

		lk.mu.Lock()
		state, down := lk.state, lk.err
		if lk.giveUp != nil {
			lk.giveUp.Stop()
		}
		lk.mu.Unlock()
		switch {
		case tailErr != nil && (state != linkDown || !strings.Contains(down.Error(), tailErr.Error())):
			t.Fatalf("corrupt tail (%v): link state %d, error %v; want down for good", tailErr, state, down)
		case tailErr == nil && state != linkConnecting:
			t.Fatalf("stream ended in EOF: link state %d (%v), want a transient break", state, down)
		}
		if got := nd.stats.dupDiscards.Load(); got != uint64(dups) {
			t.Fatalf("%d duplicates discarded, want %d", got, dups)
		}
		for i := range frames {
			if ops[i] == nil {
				post(i)
			}
		}
		for i, fr := range frames {
			// Every receive has completed by now; its Wait recycles it.
			buf := ops[i].buf
			if _, err := ops[i].Wait(time.Second); err != nil {
				t.Fatalf("frame %d (tag %d, %d B): %v", i, fr.tag, fr.size, err)
			}
			if !bytes.Equal(buf[:fr.size], fr.payload) {
				t.Fatalf("frame %d (tag %d, %d B): payload differs", i, fr.tag, fr.size)
			}
			if !early[i] || len(buf) < zeroCopyMin {
				continue
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
			direct := 0
			for _, r := range conn.reads {
				if at := uintptr(unsafe.Pointer(unsafe.SliceData(r.at))); at >= lo && at < lo+uintptr(len(buf)) {
					direct += r.n
				}
			}
			if direct != fr.size {
				t.Fatalf("frame %d (%d B) into a posted %d B receive: %d bytes read into it, want all",
					i, fr.size, len(buf), direct)
			}
		}
		// Exactly once: nothing is left over for a further receive.
		m.mu.Lock()
		defer m.mu.Unlock()
		for key, q := range m.arrived {
			if len(q) > 0 {
				t.Fatalf("%d stray messages for %+v", len(q), key)
			}
		}
	})
}

// TestZeroCopyGateCounts follows the read-ahead gate through every way a
// receive enters and leaves the posted queues: it is closed exactly while
// a receive of at least zeroCopyMin bytes from the source is posted, and a
// smaller receive, or one from another source, does not close it.
func TestZeroCopyGateCounts(t *testing.T) {
	nd := &node{shared: &shared{}}
	m := newMatcher(3, nd.shared, nd.Now)
	key := matchKey{src: 1, tag: 4}
	recv := func(n int) *recvOp { return getRecvOp(&nd.recvOps, mpi.Op{Buf: make([]byte, n)}) }
	big := func() *recvOp { return recv(zeroCopyMin) }
	gate := func(step string, closed bool) {
		t.Helper()
		if m.zeroCopyPosted(1) != closed {
			t.Fatalf("after %s: gate closed %v, want %v", step, !closed, closed)
		}
	}
	m.post(key, recv(zeroCopyMin-1))
	m.post(matchKey{src: 2, tag: 4}, big())
	gate("posting a small receive, and a large one from another source", false)
	op := big()
	m.post(key, op)
	gate("posting a large receive", true)
	m.claim(key) // the small one, posted first
	gate("claiming the small receive", true)
	if m.claim(key) != op {
		t.Fatal("claim did not return the large receive")
	}
	gate("claiming the large receive", false)
	m.unclaim(key, op)
	gate("unclaiming it", true)
	m.deliver(key, nd.pool.get(8), 0)
	gate("a staged delivery matching it", false)
	m.post(key, big())
	m.fail(1, errClosed)
	gate("the source failing", false)
}
