package obsv

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/mpi"
	"github.com/aapc-sched/aapcsched/internal/mpi/mem"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 100, 1000, 1 << 20} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
	wantSum := float64(1 + 2 + 3 + 100 + 1000 + 1<<20)
	if h.Sum() != wantSum {
		t.Errorf("Sum = %g, want %g", h.Sum(), wantSum)
	}
	if h.Max() != 1<<20 {
		t.Errorf("Max = %d, want %d", h.Max(), 1<<20)
	}
	if got := h.Mean(); math.Abs(got-wantSum/6) > 1e-9 {
		t.Errorf("Mean = %g, want %g", got, wantSum/6)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	// Log2 buckets are coarse: the quantile must land within a factor of 2
	// of the exact value.
	for _, tc := range []struct {
		q     float64
		exact float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got := h.Quantile(tc.q)
		if got < tc.exact/2 || got > tc.exact*2 {
			t.Errorf("Quantile(%g) = %g, want within [%g, %g]", tc.q, got, tc.exact/2, tc.exact*2)
		}
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}
}

func TestHistogramMergeExact(t *testing.T) {
	// Merging two histograms must equal observing the union.
	var a, b, union Histogram
	for i := uint64(1); i < 200; i += 3 {
		a.Observe(i)
		union.Observe(i)
	}
	for i := uint64(5); i < 5000; i += 7 {
		b.Observe(i)
		union.Observe(i)
	}
	a.Merge(&b)
	if a.Count() != union.Count() || a.Sum() != union.Sum() || a.Max() != union.Max() {
		t.Fatalf("merge mismatch: count %d/%d sum %g/%g max %d/%d",
			a.Count(), union.Count(), a.Sum(), union.Sum(), a.Max(), union.Max())
	}
	if !reflect.DeepEqual(a.Buckets(), union.Buckets()) {
		t.Error("merged buckets differ from union buckets")
	}
	if a.Quantile(0.5) != union.Quantile(0.5) {
		t.Error("merged quantile differs from union quantile")
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	c.Inc("x")
	c.Add("x", 4)
	c.Add(`y{kind="delay"}`, 2)
	if got := c.Get("x"); got != 5 {
		t.Errorf("Get(x) = %d, want 5", got)
	}
	snap := c.Snapshot()
	if snap["x"] != 5 || snap[`y{kind="delay"}`] != 2 {
		t.Errorf("Snapshot = %v", snap)
	}
	if s := c.Summary(); !strings.Contains(s, "x=5") {
		t.Errorf("Summary %q misses x=5", s)
	}
	// Nil receivers must be safe no-ops.
	var nilC *Counters
	nilC.Inc("z")
	if nilC.Get("z") != 0 || nilC.Snapshot() != nil {
		t.Error("nil Counters not inert")
	}
}

// TestInstrumentRecordsExchange runs a small verified exchange on the mem
// transport through the instrumented wrapper and checks the recorded events
// against what the program did.
func TestInstrumentRecordsExchange(t *testing.T) {
	const n = 4
	const size = 256
	recs := make([]*Recorder, n)
	for i := range recs {
		recs[i] = NewRecorder(i)
	}
	err := mem.Run(n, func(raw mpi.Comm) error {
		c := Instrument(raw, recs[raw.Rank()])
		me := c.Rank()
		// Every rank sends one block to every other rank and receives one.
		reqs := make([]mpi.Request, 0, 2*(n-1))
		bufs := make([][]byte, n)
		for p := 0; p < n; p++ {
			if p == me {
				continue
			}
			out := make([]byte, size)
			for i := range out {
				out[i] = byte(me*17 + p*5 + i)
			}
			bufs[p] = make([]byte, size)
			reqs = append(reqs, mpi.Isend(c, out, p, 1), mpi.Irecv(c, bufs[p], p, 1))
		}
		for _, r := range reqs {
			if err := mpi.Wait(r); err != nil {
				return err
			}
		}
		for p := 0; p < n; p++ {
			if p == me {
				continue
			}
			for i, got := range bufs[p] {
				if got != byte(p*17+me*5+i) {
					t.Errorf("rank %d: corrupt byte %d from %d", me, i, p)
					break
				}
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rec := range recs {
		var sends, recvs, barriers int
		for _, e := range rec.Events() {
			switch e.Kind {
			case KindSend:
				sends++
				if e.Bytes != size {
					t.Errorf("rank %d send of %d bytes, want %d", r, e.Bytes, size)
				}
				if e.End < e.Start {
					t.Errorf("rank %d send ends before it starts", r)
				}
			case KindRecv:
				recvs++
			case KindBarrier:
				barriers++
			}
		}
		if sends != n-1 || recvs != n-1 || barriers != 1 {
			t.Errorf("rank %d recorded %d sends, %d recvs, %d barriers; want %d, %d, 1",
				r, sends, recvs, barriers, n-1, n-1)
		}
		if rec.BytesSent() != uint64(size*(n-1)) {
			t.Errorf("rank %d BytesSent = %d, want %d", r, rec.BytesSent(), size*(n-1))
		}
		if sw := rec.SendWait(); sw.Count() != uint64(n-1) {
			t.Errorf("rank %d SendWait count = %d", r, sw.Count())
		}
	}
}

func TestInstrumentNilRecorderPassthrough(t *testing.T) {
	comms := mem.NewWorld(1)
	if got := Instrument(comms[0], nil); got != comms[0] {
		t.Error("Instrument(c, nil) must return c unchanged")
	}
	if m := MarkerFor(comms[0]); m != nil {
		t.Error("MarkerFor on a plain comm must be nil")
	}
	if m := MarkerFor(Instrument(comms[0], NewRecorder(0))); m == nil {
		t.Error("MarkerFor on an instrumented comm must not be nil")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	rec := NewRecorder(0)
	rec2 := NewRecorder(1)
	// Produce events through the wrapper over a tiny mem world.
	err := mem.Run(2, func(raw mpi.Comm) error {
		c := Instrument(raw, []*Recorder{rec, rec2}[raw.Rank()])
		if m := MarkerFor(c); m != nil {
			m.MarkPhase(0)
			m.MarkSyncWait(1-c.Rank(), c.Now(), c.Now())
		}
		peer := 1 - c.Rank()
		sr := mpi.Isend(c, []byte{1, 2, 3}, peer, 0)
		buf := make([]byte, 3)
		rr := mpi.Irecv(c, buf, peer, 0)
		if err := mpi.Wait(sr); err != nil {
			return err
		}
		return mpi.Wait(rr)
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{Ranks: 2, Transport: "mem", Name: "test", Msize: 3}
	var buf bytes.Buffer
	if err := WriteRecorders(&buf, meta, rec, rec2); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotEvents, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Ranks != 2 || gotMeta.Transport != "mem" || gotMeta.Name != "test" || gotMeta.Msize != 3 {
		t.Errorf("meta round trip: %+v", gotMeta)
	}
	want := MergedEvents(rec, rec2)
	if !reflect.DeepEqual(gotEvents, want) {
		t.Errorf("events round trip mismatch:\ngot  %+v\nwant %+v", gotEvents, want)
	}
}

func TestReadJSONLBadKind(t *testing.T) {
	in := `{"meta":{"version":1,"ranks":1}}` + "\n" +
		`{"kind":"frobnicate","rank":0,"phase":-1}` + "\n"
	if _, _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("unknown event kind must fail loudly")
	}
}

func TestRegistryMetricsEndpoint(t *testing.T) {
	rec := NewRecorder(0)
	rec.Counters().Add("aapc_tcp_reconnects_total", 3)
	err := mem.Run(1, func(raw mpi.Comm) error {
		c := Instrument(raw, rec)
		sr := mpi.Isend(c, []byte{9}, 0, 0)
		buf := make([]byte, 1)
		rr := mpi.Irecv(c, buf, 0, 0)
		if err := mpi.Wait(sr); err != nil {
			return err
		}
		return mpi.Wait(rr)
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	NewRegistry(rec).WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"aapc_ranks 1",
		`aapc_events_total{kind="send"} 1`,
		`aapc_bytes_total{dir="sent"} 1`,
		"aapc_send_wait_seconds_count 1",
		"aapc_tcp_reconnects_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestServeMetricsHTTP(t *testing.T) {
	rec := NewRecorder(0)
	rec.Counters().Inc("aapc_test_total")
	addr, closeSrv, err := ServeMetrics("127.0.0.1:0", NewRegistry(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer closeSrv()
	if addr == "" {
		t.Fatal("no bound address")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "aapc_test_total 1") {
		t.Errorf("metrics body misses counter:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	// The debug mux rides along.
	resp, err = http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars status %d", resp.StatusCode)
	}
}
