package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/obsv"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// testCluster is two switches with three machines each.
func testCluster(t testing.TB) *topology.Graph { return twoSwitchCluster(t, 3) }

// twoSwitchCluster is two switches with perSwitch machines each.
func twoSwitchCluster(t testing.TB, perSwitch int) *topology.Graph {
	t.Helper()
	g := topology.New()
	s0 := g.MustAddSwitch("s0")
	s1 := g.MustAddSwitch("s1")
	g.MustConnect(s0, s1)
	for i := 0; i < 2*perSwitch; i++ {
		sw := s0
		if i >= perSwitch {
			sw = s1
		}
		g.MustConnect(sw, g.MustAddMachine(fmt.Sprintf("n%d", i)))
	}
	return g.MustValidate()
}

// newTestDaemon spins up a daemon and an httptest server around it.
func newTestDaemon(t testing.TB, opts Options) (*Daemon, *httptest.Server, *Client) {
	t.Helper()
	if opts.Graph == nil {
		opts.Graph = testCluster(t)
	}
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(NewServer(d, opts.Registry))
	// net/http logs a handler or connection panic and carries on; fail the
	// test instead. The check runs after srv.Close has waited out every
	// connection.
	var logged syncBuffer
	srv.Config.ErrorLog = log.New(&logged, "", 0)
	t.Cleanup(func() {
		if out := logged.String(); strings.Contains(out, "panic serving") {
			t.Errorf("server logged a panic:\n%s", out)
		}
	})
	srv.Start()
	t.Cleanup(srv.Close)
	return d, srv, NewClient(srv.URL, srv.Client())
}

// syncBuffer is a bytes.Buffer safe for the server's concurrent log writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestScheduleEndpointServesVerifiedSchedules(t *testing.T) {
	d, _, cl := newTestDaemon(t, Options{})
	ctx := context.Background()
	for _, alg := range []string{AlgOurs, AlgGreedy, AlgAuto} {
		resp, err := cl.Schedule(ctx, alg, 64<<10, true, "")
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if resp.Alg != alg || resp.NumRanks != 6 || resp.Version != 1 {
			t.Errorf("%s: bad echo: %+v", alg, resp)
		}
		if resp.Class != string(ClassMedium) || resp.SyncMode != "pairwise" {
			t.Errorf("%s: class/sync advice: %q/%q", alg, resp.Class, resp.SyncMode)
		}
		if resp.TopoHash != d.Store().Current().Hash {
			t.Errorf("%s: hash mismatch", alg)
		}
		s := resp.ToSchedule()
		g := d.Store().Current().Graph
		var verr error
		if alg == AlgRing || alg == AlgAuto {
			verr = schedule.VerifyCapacity(g, s)
		} else {
			verr = schedule.Verify(g, s, alg == AlgOurs)
		}
		if verr != nil {
			t.Errorf("%s: served schedule invalid: %v", alg, verr)
		}
		if len(resp.Syncs) == 0 && alg == AlgOurs {
			t.Errorf("%s: requested syncs but got none", alg)
		}
		if plan := resp.ToPlan(); alg == AlgOurs && plan.NumSyncs() != len(resp.Syncs) {
			t.Errorf("%s: plan round-trip lost syncs", alg)
		}
	}
}

// TestRingServedOnlyWhenCapacityValid: the ring schedule ignores switch
// structure, so on a uniform cluster its permutation phases oversubscribe
// the trunk and the daemon must refuse it (422) rather than serve an
// oversubscribed schedule. On a fast-trunk cluster the same request is
// served and capacity-verified.
func TestRingServedOnlyWhenCapacityValid(t *testing.T) {
	ctx := context.Background()

	// Uniform trunk: infeasible.
	_, srv, cl := newTestDaemon(t, Options{})
	if _, err := cl.Schedule(ctx, AlgRing, 512, false, ""); err == nil {
		t.Fatal("ring on a uniform cluster was served; want 422")
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/schedule?alg=ring")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("ring on uniform cluster: status %d, want 422", resp.StatusCode)
	}

	// Fast trunk (speed 8 carries any permutation phase of 3 crossers):
	// feasible, served, capacity-valid.
	g := topology.New()
	s0 := g.MustAddSwitch("s0")
	s1 := g.MustAddSwitch("s1")
	g.MustConnectSpeed(s0, s1, 8)
	for i := 0; i < 6; i++ {
		sw := s0
		if i >= 3 {
			sw = s1
		}
		g.MustConnect(sw, g.MustAddMachine(fmt.Sprintf("n%d", i)))
	}
	g.MustValidate()
	d, _, cl := newTestDaemon(t, Options{Graph: g})
	rr, err := cl.Schedule(ctx, AlgRing, 512, true, "")
	if err != nil {
		t.Fatalf("ring on fast-trunk cluster: %v", err)
	}
	s := rr.ToSchedule()
	if got, want := s.NumMessages(), 6*5; got != want {
		t.Errorf("ring schedule has %d messages, want %d", got, want)
	}
	if err := schedule.VerifyCapacity(d.Store().Current().Graph, s); err != nil {
		t.Errorf("served ring schedule exceeds capacity: %v", err)
	}
}

// TestCacheHitMissAccounting: a schedule is keyed by what it depends on
// (topology, algorithm), not by message size, so a second size class hits
// the cache — while class and syncMode still follow the request's msize.
func TestCacheHitMissAccounting(t *testing.T) {
	d, _, cl := newTestDaemon(t, Options{})
	ctx := context.Background()
	c := d.Counters()

	r1, err := cl.Schedule(ctx, AlgOurs, 1024, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first request reported cached")
	}
	if r1.CompileNanos <= 0 {
		t.Error("compileNanos not recorded")
	}
	for _, tc := range []struct {
		msize       int
		class, mode string
	}{
		{2048, "small", "barrier"},
		{64 << 10, "medium", "pairwise"},
		{1 << 20, "large", "pairwise"},
	} {
		r, err := cl.Schedule(ctx, AlgOurs, tc.msize, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if !r.Cached {
			t.Errorf("msize %d missed the cache", tc.msize)
		}
		if r.Class != tc.class || r.SyncMode != tc.mode {
			t.Errorf("msize %d: class/syncMode %q/%q, want %q/%q", tc.msize, r.Class, r.SyncMode, tc.class, tc.mode)
		}
	}
	// Another algorithm is another schedule.
	if _, err := cl.Schedule(ctx, AlgGreedy, 1024, false, ""); err != nil {
		t.Fatal(err)
	}
	if got := c.Get(ctrHits); got != 3 {
		t.Errorf("hits = %d, want 3", got)
	}
	if got := c.Get(ctrMisses); got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
	if got := c.Get(ctrCompiles); got != 2 {
		t.Errorf("compiles = %d, want 2", got)
	}
	if got := d.CacheLen(); got != 2 {
		t.Errorf("cache holds %d entries, want 2", got)
	}
}

// TestSingleflightDedup holds one compile open while K identical requests
// arrive: exactly one compile must run, and the followers must share its
// result, proven by the daemon's own counters.
func TestSingleflightDedup(t *testing.T) {
	const K = 8
	d, _, cl := newTestDaemon(t, Options{})
	ctx := context.Background()

	var entered atomic.Int32
	release := make(chan struct{})
	d.compileHook = func(Key) {
		entered.Add(1)
		<-release
	}

	var wg sync.WaitGroup
	responses := make([]*ScheduleResponse, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = cl.Schedule(ctx, AlgGreedy, 512, false, "")
		}(i)
	}

	// Wait until the one compile is blocked inside the hook and the other
	// K-1 requests are parked on its flight.
	deadline := time.Now().Add(10 * time.Second)
	for entered.Load() != 1 || d.Counters().Get(ctrDedup) != K-1 {
		if time.Now().After(deadline) {
			t.Fatalf("never converged: entered=%d dedup=%d",
				entered.Load(), d.Counters().Get(ctrDedup))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := entered.Load(); got != 1 {
		t.Errorf("%d compiles entered, want 1", got)
	}
	if got := d.Counters().Get(ctrCompiles); got != 1 {
		t.Errorf("compiles counter = %d, want 1", got)
	}
	if got := d.Counters().Get(ctrMisses); got != 1 {
		t.Errorf("misses counter = %d, want 1 (followers are dedups, not misses)", got)
	}
	want := responses[0].NumPhases
	for i, r := range responses {
		if r.NumPhases != want || r.TopoHash != responses[0].TopoHash {
			t.Errorf("response %d diverged from the shared compile", i)
		}
	}
}

func TestCacheEvictionUnderCap(t *testing.T) {
	d, _, cl := newTestDaemon(t, Options{Shards: 1, CacheCap: 2})
	ctx := context.Background()
	// Three distinct keys through a cap of two.
	for _, alg := range []string{AlgOurs, AlgGreedy, AlgAuto} {
		if _, err := cl.Schedule(ctx, alg, 512, false, ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.CacheLen(); got != 2 {
		t.Errorf("cache holds %d entries, want 2", got)
	}
	if got := d.Counters().Get(ctrEvictions); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// The LRU victim was the first key; re-requesting it is a miss.
	if _, err := cl.Schedule(ctx, AlgOurs, 512, false, ""); err != nil {
		t.Fatal(err)
	}
	if got := d.Counters().Get(ctrMisses); got != 4 {
		t.Errorf("misses = %d, want 4 (evicted key recompiles)", got)
	}
}

// TestMalformedRequests pins the error surface: status codes and the JSON
// error shape.
func TestMalformedRequests(t *testing.T) {
	d, srv, _ := newTestDaemon(t, Options{})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"bad alg", http.MethodGet, "/v1/schedule?alg=quantum", "", http.StatusBadRequest},
		{"bad msize", http.MethodGet, "/v1/schedule?msize=banana", "", http.StatusBadRequest},
		{"negative msize", http.MethodGet, "/v1/schedule?msize=-1", "", http.StatusBadRequest},
		{"unknown param", http.MethodGet, "/v1/schedule?msizes=4096", "", http.StatusBadRequest},
		{"repeated param", http.MethodGet, "/v1/schedule?alg=ours&alg=ours", "", http.StatusBadRequest},
		{"bad syncs", http.MethodGet, "/v1/schedule?syncs=maybe", "", http.StatusBadRequest},
		{"unknown hash", http.MethodGet, "/v1/schedule?hash=deadbeef00000000", "", http.StatusNotFound},
		{"schedule wrong method", http.MethodPost, "/v1/schedule", "", http.StatusMethodNotAllowed},
		{"topology wrong method", http.MethodPost, "/v1/topology", "", http.StatusMethodNotAllowed},
		{"topology bad version", http.MethodGet, "/v1/topology?version=x", "", http.StatusBadRequest},
		{"topology unknown version", http.MethodGet, "/v1/topology?version=99", "", http.StatusNotFound},
		{"updates wrong method", http.MethodGet, "/v1/updates", "", http.StatusMethodNotAllowed},
		{"updates bad syntax", http.MethodPost, "/v1/updates", "jion n9 s0\n", http.StatusBadRequest},
		{"updates unknown node", http.MethodPost, "/v1/updates", "leave ghost\n", http.StatusUnprocessableEntity},
	}
	errorsBefore := d.Counters().Get(ctrReqErrors + `{code="400"}`)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("error body not {\"error\": ...}: decode err %v, %+v", err, e)
			}
		})
	}
	if got := d.Counters().Get(ctrReqErrors + `{code="400"}`); got <= errorsBefore {
		t.Error("request-error counter did not move")
	}
}

// TestUpdatesStreamLockstep drives the streaming endpoint through the
// client: acks arrive per delta, versions advance, rejected deltas come
// back as in-stream error acks without killing the stream, and schedules
// pinned to a pre-update hash still resolve.
func TestUpdatesStreamLockstep(t *testing.T) {
	d, _, cl := newTestDaemon(t, Options{})
	ctx := context.Background()

	// Prime the cache so the update has something to patch.
	before, err := cl.Schedule(ctx, AlgOurs, 512, false, "")
	if err != nil {
		t.Fatal(err)
	}

	st, err := cl.StartUpdates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ack, err := st.Apply(topology.Delta{Op: topology.OpJoin, Node: "n6", Attach: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Error != "" || ack.Version != 2 || ack.NumRanks != 7 {
		t.Fatalf("join ack: %+v", ack)
	}
	if ack.Patched != 1 {
		t.Errorf("join patched %d entries, want 1", ack.Patched)
	}

	// A rejected delta must not advance the version or kill the stream.
	ack, err = st.Apply(topology.Delta{Op: topology.OpLeave, Node: "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Error == "" {
		t.Fatal("expected in-stream error ack for unknown machine")
	}
	ack, err = st.Apply(topology.Delta{Op: topology.OpLeave, Node: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Error != "" || ack.Version != 3 || ack.NumRanks != 6 {
		t.Fatalf("leave ack: %+v", ack)
	}

	// The current schedule reflects version 3 and was patched, not
	// recompiled.
	after, err := cl.Schedule(ctx, AlgOurs, 512, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != 3 || !after.Incremental || !after.Cached {
		t.Errorf("post-update schedule: version=%d incremental=%v cached=%v, want 3/true/true",
			after.Version, after.Incremental, after.Cached)
	}
	if err := schedule.Verify(d.Store().Current().Graph, after.ToSchedule(), false); err != nil {
		t.Errorf("patched schedule invalid: %v", err)
	}
	if got := d.Counters().Get(ctrPatches); got != 2 {
		t.Errorf("incremental patches = %d, want 2", got)
	}

	// The boot-version schedule is still resolvable by its hash.
	pinned, err := cl.Schedule(ctx, AlgOurs, 512, false, before.TopoHash)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Version != 1 || pinned.TopoHash != before.TopoHash || pinned.NumRanks != 6 {
		t.Errorf("hash-pinned schedule: %+v", pinned)
	}

	// And the topology endpoint serves both versions.
	cur, err := cl.Topology(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 3 || cur.NumMachines != 6 {
		t.Errorf("current topology: %+v", cur)
	}
	v1, err := cl.Topology(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := topology.ParseString(v1.DSL)
	if err != nil {
		t.Fatalf("version-1 DSL does not parse: %v", err)
	}
	if g1.Hash() != before.TopoHash {
		t.Error("version-1 DSL round-trip changed the hash")
	}
}

// TestUpdatesStreamReportsReadError: a line the daemon cannot read after the
// stream has started ends it with an error ack naming the read error, not
// with a silently closed stream.
func TestUpdatesStreamReportsReadError(t *testing.T) {
	_, _, cl := newTestDaemon(t, Options{})
	st, err := cl.StartUpdates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ack, err := st.Apply(topology.Delta{Op: topology.OpJoin, Node: "n6", Attach: "s1"}); err != nil || ack.Error != "" {
		t.Fatalf("join: %+v, %v", ack, err)
	}
	long := topology.Delta{Op: topology.OpJoin, Node: strings.Repeat("x", 70<<10), Attach: "s1"} // past bufio.MaxScanTokenSize
	ack, err := st.Apply(long)
	if err != nil {
		t.Fatalf("70 KiB line: stream failed with %v, want an error ack", err)
	}
	if !strings.Contains(ack.Error, "reading body") {
		t.Errorf("70 KiB line: ack %+v, want an error naming the read error", ack)
	}
}

// TestUpdatesStreamFailedStartEnds: when the first Apply fails — the
// daemon answers the first delta with 422, or the dial fails — the stream
// keeps that error: a later Apply returns it and Close returns at once.
// Each call runs under a timer, so a hang fails the test instead of
// stalling it.
func TestUpdatesStreamFailedStartEnds(t *testing.T) {
	_, _, live := newTestDaemon(t, Options{})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	for _, tc := range []struct {
		name string
		cl   *Client
		want string
	}{
		{"rejected first delta", live, "422"},
		{"dial error", NewClient(dead.URL, nil), "connect"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := tc.cl.StartUpdates(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			leave := topology.Delta{Op: topology.OpLeave, Node: "nosuchnode"}
			var first, again error
			within(t, "first Apply", func() { _, first = st.Apply(leave) })
			if first == nil || !strings.Contains(first.Error(), tc.want) {
				t.Fatalf("first Apply: %v, want an error naming %q", first, tc.want)
			}
			within(t, "second Apply", func() { _, again = st.Apply(leave) })
			if again == nil || again.Error() != first.Error() {
				t.Errorf("second Apply: %v, want the stream error %v", again, first)
			}
			within(t, "Close", func() { st.Close() })
		})
	}
}

// within runs f and fails the test if it has not returned after 3 s.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatalf("%s did not return within 3 s", what)
	}
}

// TestLargeDeltaDropsInsteadOfPatching: a delta touching more than a
// quarter of the machines must invalidate cached entries rather than patch
// them.
func TestLargeDeltaDropsInsteadOfPatching(t *testing.T) {
	// Two machines on s0, four on s1: failing s1 removes 4 of 6 machines.
	g := topology.New()
	s0 := g.MustAddSwitch("s0")
	s1 := g.MustAddSwitch("s1")
	g.MustConnect(s0, s1)
	for i := 0; i < 6; i++ {
		sw := s0
		if i >= 2 {
			sw = s1
		}
		g.MustConnect(sw, g.MustAddMachine(fmt.Sprintf("n%d", i)))
	}
	g.MustValidate()

	d, _, cl := newTestDaemon(t, Options{Graph: g})
	ctx := context.Background()
	if _, err := cl.Schedule(ctx, AlgOurs, 512, false, ""); err != nil {
		t.Fatal(err)
	}
	res, err := d.ApplyDelta(topology.Delta{Op: topology.OpSwitchFail, Node: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Patched != 0 || res.Dropped != 1 {
		t.Errorf("patched=%d dropped=%d, want 0/1", res.Patched, res.Dropped)
	}
	after, err := cl.Schedule(ctx, AlgOurs, 512, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if after.Incremental || after.NumRanks != 2 {
		t.Errorf("post-failure schedule: incremental=%v ranks=%d, want false/2", after.Incremental, after.NumRanks)
	}
}

// TestMetricsEndpointExposesDaemonCounters: the daemon's counters render on
// /metrics through the shared obsv registry.
func TestMetricsEndpointExposesDaemonCounters(t *testing.T) {
	reg := obsv.NewRegistry()
	_, srv, cl := newTestDaemon(t, Options{Registry: reg})
	for i := 0; i < 3; i++ { // one compile and plan build, two reuses
		if _, err := cl.Schedule(context.Background(), AlgOurs, 512, true, ""); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{ctrMisses + " 1", ctrCompiles + " 1", ctrPlanBuilds + " 1", ctrPlanReuses + " 2"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
