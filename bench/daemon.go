package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/sched"
	"github.com/aapc-sched/aapcsched/internal/schedule"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

const (
	daemonClients = 2
	// daemonUpdateEvery: client 0 applies one topology delta before every
	// 25th of its fetches.
	daemonUpdateEvery = 25
	// driftDeltas is the length of the fixed delta sequence that
	// schedule.reschedule_phase_drift is measured over.
	driftDeltas = 8
)

// daemonKey is one cache key a client may ask for.
type daemonKey struct {
	alg   string
	msize int
}

// daemonKeys is the working set: both reschedulable algorithms at a size of
// each class. Syncs are requested exactly as harness.DaemonBacked requests
// them: when the class's advice is pair-wise synchronization.
var daemonKeys = []daemonKey{
	{sched.AlgOurs, 4 << 10}, {sched.AlgOurs, 64 << 10}, {sched.AlgOurs, 1 << 20},
	{sched.AlgGreedy, 4 << 10}, {sched.AlgGreedy, 64 << 10}, {sched.AlgGreedy, 1 << 20},
}

func (k daemonKey) wantSyncs() bool {
	return sched.ClassifyMsize(k.msize).SyncModeFor() == "pairwise"
}

// daemonWorkload is the schedule daemon under a mixed load: two closed-loop
// clients fetching from a small working set while one of them also streams
// topology deltas that patch the cache under the readers.
type daemonWorkload struct {
	cold     []float64 // ms, first fetch of each key in each pass
	updates  []float64 // ms, one per applied delta
	nUpdates int
	hits     uint64
	misses   uint64
	compiles uint64
	patches  uint64
	dropped  uint64

	// direct-call probes, traced pass
	warmUs []float64
	planMs []float64
	respKB float64
}

func (w *daemonWorkload) spec() spec {
	return spec{name: "daemon_mix", algs: []string{"fetch"}, block: len(daemonKeys), minBlock: len(daemonKeys), rounds: 16, clients: daemonClients,
		ratio: [2]string{"fetch_syncs", "fetch_nosyncs"},
		yard:  func() (yardstick, error) { return graphYard{nodes: 992, degree: 160}, nil }, yardBlock: 3, yardRefMs: 20}
}

// fetched is one response awaiting verification.
type fetched struct {
	key  daemonKey
	resp *sched.ScheduleResponse
}

type daemonPass struct {
	w      *daemonWorkload
	e      *env
	d      *sched.Daemon
	srv    *httptest.Server
	cl     *sched.Client
	stream *sched.UpdateStream
	rngs   [daemonClients]*rand.Rand
	// decks holds each client's draw order: every client asks for every key
	// once per len(daemonKeys) ops, in an order its seed shuffles anew each
	// time round, so every block carries the same mix of cheap and costly
	// fetches and only the interleaving is random.
	decks [daemonClients][]daemonKey

	mu     sync.Mutex
	mirror map[int]*topology.Graph // topology of every version the daemon has named
	cur    int                     // newest version
	joined int                     // machines added so far, for fresh names
	got    []fetched
}

func (w *daemonWorkload) setup(e *env, sp spanRef) (pass, error) {
	g := harness.TopologyB()
	c := sp.child("sched.New")
	d, err := sched.New(sched.Options{Graph: g})
	c.end()
	if err != nil {
		return nil, err
	}
	p := &daemonPass{w: w, e: e, d: d, mirror: map[int]*topology.Graph{1: g}, cur: 1}
	p.srv = httptest.NewServer(sched.NewServer(d, nil))
	p.cl = sched.NewClient(p.srv.URL, p.srv.Client())
	for i := range p.rngs {
		p.rngs[i] = rand.New(rand.NewSource(e.cfg.seed*int64(numPasses*daemonClients) + int64(e.passIdx*daemonClients+i)))
	}
	p.stream, err = p.cl.StartUpdates(context.Background())
	if err != nil {
		p.srv.Close()
		return nil, err
	}
	// First fetch of every key compiles it.
	for _, k := range daemonKeys {
		c := sp.child("client.fetch.cold")
		t0 := time.Now()
		resp, err := p.cl.Schedule(context.Background(), k.alg, k.msize, k.wantSyncs(), "")
		d := time.Since(t0)
		c.end()
		if err == nil {
			err = p.verify(fetched{k, resp})
		}
		if err != nil {
			p.close()
			return nil, fmt.Errorf("cold fetch of %v: %w", k, err)
		}
		w.cold = append(w.cold, float64(d)/1e6)
	}
	return p, nil
}

func (p *daemonPass) before(alg, round int) { p.got = p.got[:0] }

func (p *daemonPass) op(_, client, seq int, sp spanRef) (time.Duration, error) {
	if client == 0 && seq%daemonUpdateEvery == daemonUpdateEvery-1 {
		if err := p.update(sp); err != nil {
			return 0, err
		}
	}
	if len(p.decks[client]) == 0 {
		p.decks[client] = append(p.decks[client], daemonKeys...)
		p.rngs[client].Shuffle(len(daemonKeys), func(i, j int) {
			p.decks[client][i], p.decks[client][j] = p.decks[client][j], p.decks[client][i]
		})
	}
	k := p.decks[client][0]
	p.decks[client] = p.decks[client][1:]
	c := sp.child("client.fetch")
	t0 := time.Now()
	resp, err := p.cl.Schedule(context.Background(), k.alg, k.msize, k.wantSyncs(), "")
	d := time.Since(t0)
	c.end()
	if err != nil {
		return d, err
	}
	if k.wantSyncs() {
		p.e.sample("fetch_syncs", d)
	} else {
		p.e.sample("fetch_nosyncs", d)
	}
	p.mu.Lock()
	p.got = append(p.got, fetched{k, resp})
	p.mu.Unlock()
	return d, nil
}

// update applies the next join or leave through the update stream. The
// mirror learns the new topology before the daemon does, so a response that
// names the new version can always be checked.
func (p *daemonPass) update(sp spanRef) error {
	rng := p.rngs[0]
	p.mu.Lock()
	g := p.mirror[p.cur]
	var delta topology.Delta
	if p.joined%2 == 0 || g.NumMachines() <= 2 {
		delta = topology.Delta{Op: topology.OpJoin, Node: fmt.Sprintf("j%d", p.joined), Attach: fmt.Sprintf("s%d", rng.Intn(4))}
	} else {
		delta = topology.Delta{Op: topology.OpLeave, Node: g.Node(g.MachineID(rng.Intn(g.NumMachines()))).Name}
	}
	p.joined++
	next, _, err := g.ApplyDelta(delta)
	if err != nil {
		p.mu.Unlock()
		return fmt.Errorf("mirror: %s: %w", delta.Format(), err)
	}
	want := p.cur + 1
	p.mirror[want], p.cur = next, want
	p.mu.Unlock()

	c := sp.child("client.update")
	t0 := time.Now()
	ack, err := p.stream.Apply(delta)
	d := time.Since(t0)
	c.end()
	switch {
	case err != nil:
		return fmt.Errorf("update stream: %w", err)
	case ack.Error != "":
		return fmt.Errorf("daemon rejected %q: %s", delta.Format(), ack.Error)
	case ack.Version != want || ack.Hash != next.Hash() || ack.NumRanks != next.NumMachines():
		return fmt.Errorf("ack of %q names version %d hash %s, mirror has version %d hash %s",
			delta.Format(), ack.Version, ack.Hash, want, next.Hash())
	}
	p.mu.Lock()
	p.w.updates = append(p.w.updates, float64(d)/1e6)
	p.mu.Unlock()
	return nil
}

// verify checks one response against the mirrored topology of the version
// it names: right shape, contention-free, load as computed locally, the
// optimal phase count unless it was patched, syncs present iff asked for.
func (p *daemonPass) verify(f fetched) error {
	r := f.resp
	p.mu.Lock()
	g := p.mirror[r.Version]
	p.mu.Unlock()
	if g == nil {
		return fmt.Errorf("response names version %d, which the mirror never produced", r.Version)
	}
	if r.TopoHash != g.Hash() || r.NumRanks != g.NumMachines() || r.Load != g.AAPCLoad() || r.Alg != f.key.alg {
		return fmt.Errorf("response header (hash %s, %d ranks, load %d, alg %s) does not match version %d",
			r.TopoHash, r.NumRanks, r.Load, r.Alg, r.Version)
	}
	optimal := f.key.alg == sched.AlgOurs && !r.Incremental
	s := r.ToSchedule()
	if err := schedule.Verify(g, s, optimal); err != nil {
		return fmt.Errorf("%s schedule of version %d: %w", f.key.alg, r.Version, err)
	}
	if err := schedule.VerifyCapacity(g, s); err != nil {
		return fmt.Errorf("%s schedule of version %d: %w", f.key.alg, r.Version, err)
	}
	if (len(r.Syncs) > 0) != f.key.wantSyncs() {
		return fmt.Errorf("asked syncs=%v, got %d syncs", f.key.wantSyncs(), len(r.Syncs))
	}
	return nil
}

func (p *daemonPass) after(alg, round int) error {
	for _, f := range p.got {
		if err := p.verify(f); err != nil {
			return err
		}
	}
	return nil
}

func (p *daemonPass) close() error {
	cnt := p.d.Counters().Snapshot() // before the probes below add their own hits
	if p.e.tr != nil {
		if err := p.directProbes(); err != nil {
			return err
		}
	}
	w := p.w
	w.hits += cnt["aapcd_cache_hits_total"]
	w.misses += cnt["aapcd_cache_misses_total"]
	w.compiles += cnt["aapcd_compiles_total"]
	w.patches += cnt["aapcd_incremental_patches_total"]
	w.dropped += cnt["aapcd_full_recompiles_total"]
	w.nUpdates += int(cnt["aapcd_topology_updates_total"])
	err := p.stream.Close()
	p.srv.Close()
	return err
}

// directProbes times the daemon's two layers below HTTP by calling them
// directly, on the traced pass's warm daemon: the cached schedule lookup and
// the sync-plan derivation that every syncs=1 fetch repeats.
func (p *daemonPass) directProbes() error {
	k := daemonKeys[1] // ours, 64 KiB: a pairwise class
	const lookups, plans = 50, 5
	res, err := p.d.Schedule(k.alg, k.msize, "")
	for i := 0; i < lookups && err == nil; i++ {
		sp := p.e.tr.root("sched.Daemon.Schedule", -1)
		t0 := time.Now()
		res, err = p.d.Schedule(k.alg, k.msize, "")
		p.w.warmUs = append(p.w.warmUs, float64(time.Since(t0))/1e3)
		sp.end()
	}
	if err != nil {
		return err
	}
	// The plan is derived by as many callers at once as the mix has
	// clients: that is the load under which the fetches paid for it.
	errs := make([]error, daemonClients)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < plans && errs[c] == nil; i++ {
				sp := p.e.tr.root("sched.Daemon.SyncPlan", -1)
				t0 := time.Now()
				_, errs[c] = p.d.SyncPlan(res)
				d := time.Since(t0)
				sp.end()
				mu.Lock()
				p.w.planMs = append(p.w.planMs, float64(d)/1e6)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	resp, err := p.srv.Client().Get(fmt.Sprintf("%s/v1/schedule?alg=%s&msize=%d&syncs=1", p.srv.URL, k.alg, k.msize))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("raw fetch: status %s: %v", resp.Status, err)
	}
	p.w.respKB = float64(n) / 1024
	return nil
}

func (w *daemonWorkload) finish(e *env) error {
	e.set("sched.fetch_syncs_p50_ms", median(e.samples("fetch_syncs")))
	e.set("sched.fetch_nosyncs_p50_ms", median(e.samples("fetch_nosyncs")))
	e.set("sched.cold_fetch_ms", median(w.cold))
	e.set("sched.update_p50_ms", median(w.updates))
	e.set("sched.hit_ratio", ratio(float64(w.hits), float64(w.hits+w.misses)))
	e.set("sched.compiles", float64(w.compiles))
	e.set("sched.patches_per_update", ratio(float64(w.patches), float64(w.nUpdates)))
	e.set("sched.dropped_per_update", ratio(float64(w.dropped), float64(w.nUpdates)))
	e.set("sched.schedule_warm_us", median(w.warmUs))
	e.set("sched.syncplan_ms", median(w.planMs))
	e.set("sched.response_kb", w.respKB)
	return rescheduleDrift(e)
}

// rescheduleDrift patches the optimal schedule of topology (b) through a
// fixed, seed-derived sequence of joins and leaves, calling the layers
// directly, and compares the phase count it ends with against a fresh
// Build of the final topology: how far incremental rescheduling drifts
// from optimal. The sequence has a fixed length, so the count is exact.
func rescheduleDrift(e *env) error {
	rng := rand.New(rand.NewSource(e.cfg.seed))
	g := harness.TopologyB()
	s, err := schedule.Build(g)
	if err != nil {
		return err
	}
	var applyUs, patchMs []float64
	for i := 0; i < driftDeltas; i++ {
		delta := topology.Delta{Op: topology.OpLeave, Node: g.Node(g.MachineID(rng.Intn(g.NumMachines()))).Name}
		if i%2 == 0 {
			delta = topology.Delta{Op: topology.OpJoin, Node: fmt.Sprintf("j%d", i), Attach: fmt.Sprintf("s%d", rng.Intn(4))}
		}
		sp := e.tr.root("topology.ApplyDelta", -1)
		t0 := time.Now()
		next, rd, err := g.ApplyDelta(delta)
		applyUs = append(applyUs, float64(time.Since(t0))/1e3)
		sp.end()
		if err != nil {
			return err
		}
		sp = e.tr.root("schedule.Reschedule", -1)
		t0 = time.Now()
		s, err = schedule.Reschedule(s, next, rd)
		patchMs = append(patchMs, float64(time.Since(t0))/1e6)
		sp.end()
		if err != nil {
			return err
		}
		if err := schedule.Verify(next, s, false); err != nil {
			return fmt.Errorf("patched schedule after %q: %w", delta.Format(), err)
		}
		g = next
	}
	fresh, err := schedule.Build(g)
	if err != nil {
		return err
	}
	e.set("topology.apply_delta_us", median(applyUs))
	e.set("schedule.reschedule_ms", median(patchMs))
	e.set("schedule.reschedule_phase_drift", ratio(float64(len(s.Phases)), float64(len(fresh.Phases))))
	e.set("schedule.phases", float64(len(fresh.Phases)))
	return nil
}
