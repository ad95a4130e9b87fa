package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/syncplan"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// get serves one schedule request without a network in between.
func get(t testing.TB, h http.Handler, alg string, msize int, syncs bool) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v1/schedule?alg=%s&msize=%d&syncs=%v", alg, msize, syncs), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s msize=%d syncs=%v: status %d: %s", alg, msize, syncs, rec.Code, rec.Body)
	}
	return rec
}

// TestConcurrentSyncFetchesBuildOnePlan holds the compile of a cold key open
// until K syncs=1 requests are waiting on it, then lets them all reach the
// plan at once: exactly one derives it, the others share it, by the daemon's
// own counters.
func TestConcurrentSyncFetchesBuildOnePlan(t *testing.T) {
	const K = 8
	d, _, cl := newTestDaemon(t, Options{})

	release := make(chan struct{})
	d.compileHook = func(Key) { <-release }

	var wg sync.WaitGroup
	responses := make([]*ScheduleResponse, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = cl.Schedule(context.Background(), AlgOurs, 64<<10, true, "")
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.Counters().Get(ctrDedup) != K-1 {
		if time.Now().After(deadline) {
			t.Fatalf("never converged: dedup=%d", d.Counters().Get(ctrDedup))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(responses[i].Syncs) == 0 || !reflect.DeepEqual(responses[i].Syncs, responses[0].Syncs) {
			t.Errorf("request %d: %d syncs, request 0 has %d", i, len(responses[i].Syncs), len(responses[0].Syncs))
		}
	}
	if got := d.Counters().Get(ctrPlanBuilds); got != 1 {
		t.Errorf("plan builds = %d, want 1", got)
	}
	if got := d.Counters().Get(ctrPlanReuses); got != K-1 {
		t.Errorf("plan reuses = %d, want %d", got, K-1)
	}
}

// TestPatchedEntryDerivesItsOwnPlan: the entry ApplyDelta publishes must
// never serve its predecessor's memo. Its plan is the one a fresh Build
// gives for the new topology and the schedule actually served, and the two
// compile into a pair-wise synchronized routine.
func TestPatchedEntryDerivesItsOwnPlan(t *testing.T) {
	d, _, cl := newTestDaemon(t, Options{})
	ctx := context.Background()
	before, err := cl.Schedule(ctx, AlgOurs, 64<<10, true, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Schedule(ctx, AlgOurs, 64<<10, true, ""); err != nil { // the predecessor's body is memoised too
		t.Fatal(err)
	}
	res, err := d.ApplyDelta(topology.Delta{Op: topology.OpJoin, Node: "n6", Attach: "s1"})
	if err != nil || res.Patched != 1 {
		t.Fatalf("join: %+v, %v", res, err)
	}
	for i := 0; i < 2; i++ { // first fetch of the patched entry derives, second is served from its memo
		after, err := cl.Schedule(ctx, AlgOurs, 64<<10, true, "")
		if err != nil {
			t.Fatal(err)
		}
		if !after.Cached || !after.Incremental || after.Version != 2 || after.NumRanks != 7 {
			t.Fatalf("fetch %d after join: cached=%v incremental=%v version=%d ranks=%d",
				i, after.Cached, after.Incremental, after.Version, after.NumRanks)
		}
		s := after.ToSchedule()
		want, err := syncplan.Build(res.Version.Graph, s)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.ToPlan(); !reflect.DeepEqual(got.Syncs, want.Syncs) {
			t.Fatalf("fetch %d: served plan has %d syncs, a fresh Build %d (predecessor's had %d)",
				i, got.NumSyncs(), want.NumSyncs(), len(before.Syncs))
		}
		if _, err := alltoall.NewScheduled(s, after.ToPlan(), alltoall.PairwiseSync); err != nil {
			t.Fatalf("fetch %d: served schedule and plan do not compile: %v", i, err)
		}
	}
	if got := d.Counters().Get(ctrPlanBuilds); got != 2 {
		t.Errorf("plan builds = %d, want 2 (one per entry)", got)
	}
	// The predecessor is still served, with its own plan, when pinned.
	pinned, err := cl.Schedule(ctx, AlgOurs, 64<<10, true, before.TopoHash)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Version != 1 || !reflect.DeepEqual(pinned.Syncs, before.Syncs) {
		t.Errorf("pinned predecessor: version %d, %d syncs, want 1, %d", pinned.Version, len(pinned.Syncs), len(before.Syncs))
	}
	if got := d.Counters().Get(ctrPlanBuilds); got != 2 {
		t.Errorf("plan builds = %d after the pinned fetch, want 2 still", got)
	}
}

// TestMemoisedBodyMatchesFreshRendering: for every algorithm, class and
// syncs, the bytes a cache hit is answered with are exactly what rendering
// the response afresh gives.
func TestMemoisedBodyMatchesFreshRendering(t *testing.T) {
	d, err := New(Options{Graph: testCluster(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(d, nil)
	for _, alg := range []string{AlgOurs, AlgGreedy, AlgAuto} {
		get(t, h, alg, 0, false) // compile
		for _, msize := range []int{512, 64 << 10, 1 << 20} {
			for _, syncs := range []bool{false, true} {
				res, err := d.Schedule(alg, msize, "")
				if err != nil {
					t.Fatal(err)
				}
				var plan *syncplan.Plan
				if syncs {
					if plan, err = d.SyncPlan(res); err != nil {
						t.Fatal(err)
					}
				}
				want := responseFor(res, plan)
				if !want.Cached || want.Class != string(ClassifyMsize(msize)) || (len(want.Syncs) > 0) != (syncs && plan.NumSyncs() > 0) {
					t.Fatalf("%s/%d/%v: reference rendering is off: cached=%v class=%s syncs=%d",
						alg, msize, syncs, want.Cached, want.Class, len(want.Syncs))
				}
				var fresh bytes.Buffer
				if err := json.NewEncoder(&fresh).Encode(want); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ { // the hit that renders and a hit that is served the memo
					rec := get(t, h, alg, msize, syncs)
					if !bytes.Equal(rec.Body.Bytes(), fresh.Bytes()) {
						t.Errorf("%s/%d/%v hit %d: body differs from a fresh rendering", alg, msize, syncs, i)
					}
					if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(fresh.Len()) {
						t.Errorf("%s/%d/%v hit %d: Content-Length %q, want %d", alg, msize, syncs, i, got, fresh.Len())
					}
				}
			}
		}
	}
}

// TestWarmFetchDerivesNothing is the gate on the warm path: a syncs=1 fetch
// of a served key builds no plan, renders nothing and allocates only what
// parsing the request and writing the stored bytes take.
func TestWarmFetchDerivesNothing(t *testing.T) {
	d, err := New(Options{Graph: testCluster(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(d, nil)
	get(t, h, AlgOurs, 64<<10, true) // compiles
	get(t, h, AlgOurs, 64<<10, true) // first hit: renders
	builds := d.Counters().Get(ctrPlanBuilds)
	body := get(t, h, AlgOurs, 64<<10, true).Body.Len()

	// The recorder's own buffer is part of the count, so it is made once.
	req := httptest.NewRequest(http.MethodGet, "/v1/schedule?alg=ours&msize=65536&syncs=1", nil)
	rec := httptest.NewRecorder()
	rec.Body.Grow(body)
	allocs := testing.AllocsPerRun(100, func() {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	})
	if rec.Code != http.StatusOK || rec.Body.Len() != body {
		t.Fatalf("warm fetch: status %d, %d bytes, want 200, %d", rec.Code, rec.Body.Len(), body)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(body) {
		t.Errorf("Content-Length %q, want %d", got, body)
	}
	if got := d.Counters().Get(ctrPlanBuilds); got != builds {
		t.Errorf("warm fetches built %d plans", got-builds)
	}
	// Measured 9: the query map and its strings, the header values.
	// Rendering the response per fetch takes 37 on this six-rank cluster.
	const ceiling = 16
	if allocs > ceiling {
		t.Errorf("warm syncs=1 fetch: %.0f allocs, ceiling %d", allocs, ceiling)
	}
}

// TestClientKeepsOneConnection: the client must hand every connection back
// to the transport — cold responses (cached:false, chunked), cache hits
// (Content-Length) and topology fetches alike.
func TestClientKeepsOneConnection(t *testing.T) {
	// 24 ranks: bodies of several chunks, so the end of a chunked one is not
	// already buffered when the decoder has its value.
	d, err := New(Options{Graph: twoSwitchCluster(t, 12)})
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(NewServer(d, nil))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	cl := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	cold := 0
	for i := 0; i < 40; i++ {
		if i%8 == 0 { // auto is not patched, so every join makes its next fetch cold
			if _, err := d.ApplyDelta(topology.Delta{Op: topology.OpJoin, Node: fmt.Sprintf("j%d", i), Attach: "s0"}); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 9 {
			if _, err := cl.Topology(ctx, 0); err != nil {
				t.Fatal(err)
			}
			continue
		}
		resp, err := cl.Schedule(ctx, []string{AlgAuto, AlgOurs}[i%2], 64<<10, i%3 == 0, "")
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			cold++
		}
	}
	if cold < 5 {
		t.Errorf("%d cold fetches of 36, want one per join at least", cold)
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("40 sequential fetches used %d connections, want 1", got)
	}
}
