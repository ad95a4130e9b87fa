package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/sched"
)

func TestRunPresetSummary(t *testing.T) {
	if err := run("", "fig1", "", "", "main", "newX", true); err != nil {
		t.Fatal(err)
	}
}

func TestRunEmitsFiles(t *testing.T) {
	dir := t.TempDir()
	jsonPath := dir + "/s.json"
	goPath := dir + "/r.go"
	if err := run("", "fig1", jsonPath, goPath, "main", "newFig1", false); err != nil {
		t.Fatal(err)
	}
	jdata, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jdata), `"numPhases": 9`) {
		t.Errorf("JSON output missing phase count")
	}
	gdata, err := os.ReadFile(goPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gdata), "func newFig1()") {
		t.Errorf("Go output missing constructor")
	}
}

func TestRunTopologyFileAndErrors(t *testing.T) {
	dir := t.TempDir()
	topo := dir + "/t.topo"
	if err := os.WriteFile(topo, []byte("switch s\nmachines a b c\nlink s a\nlink s b\nlink s c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(topo, "", "-", "", "main", "newX", false); err != nil {
		t.Fatal(err)
	}
	if err := run("", "", "", "", "main", "newX", false); err == nil {
		t.Error("want error without -file or -topo")
	}
	if err := run("", "zzz", "", "", "main", "newX", false); err == nil {
		t.Error("want error for unknown preset")
	}
	if err := run("/nope", "", "", "", "main", "newX", false); err == nil {
		t.Error("want error for missing file")
	}
}

func TestRunCheck(t *testing.T) {
	dir := t.TempDir()
	jsonPath := dir + "/s.json"
	if err := run("", "fig1", jsonPath, "", "main", "newX", false); err != nil {
		t.Fatal(err)
	}
	if err := runCheck("", "fig1", jsonPath); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	// A schedule for the wrong topology must be rejected.
	if err := runCheck("", "a", jsonPath); err == nil {
		t.Error("want error for schedule/topology mismatch")
	}
	// Corrupt JSON must be rejected.
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCheck("", "fig1", bad); err == nil {
		t.Error("want error for corrupt JSON")
	}
	if err := runCheck("", "fig1", dir+"/missing.json"); err == nil {
		t.Error("want error for missing file")
	}
}

// TestRunCheckVerifiesPlan: -check accepts a carried plan only if it is the
// minimal plan of the schedule, so a routine with one sync dropped fails; a
// schedule without syncs is checked without a plan.
func TestRunCheckVerifiesPlan(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	if err := run("", "fig1", full, "", "main", "newX", false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	var routine map[string]any
	if err := json.Unmarshal(data, &routine); err != nil {
		t.Fatal(err)
	}
	write := func(name string) string {
		t.Helper()
		b, err := json.Marshal(routine)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	routine["syncs"] = routine["syncs"].([]any)[1:]
	if err := runCheck("", "fig1", write("dropped.json")); err == nil || !strings.Contains(err.Error(), "synchronizations INVALID") {
		t.Errorf("a plan missing one sync: %v, want synchronizations INVALID", err)
	}
	delete(routine, "syncs")
	if err := runCheck("", "fig1", write("nosyncs.json")); err != nil {
		t.Errorf("a schedule without a plan: %v", err)
	}
}

// TestRunCheckDaemonRing: the ring aapcd serves for bg shares its fast
// trunks within a phase; -check accepts it by the capacity rule, and its
// plan.
func TestRunCheckDaemonRing(t *testing.T) {
	d, err := sched.New(sched.Options{Graph: harness.TopologyBGiga()})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	sched.NewServer(d, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/schedule?alg=ring&syncs=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ring on bg: status %d: %s", rec.Code, rec.Body)
	}
	path := filepath.Join(t.TempDir(), "ring.json")
	if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCheck("", "bg", path); err != nil {
		t.Errorf("daemon's bg ring rejected: %v", err)
	}
}

func TestWiringMode(t *testing.T) {
	dir := t.TempDir()
	wfile := dir + "/w.topo"
	wtext := "switches s0 s1 s2\nmachines a b c\nlink s0 s1\nlink s1 s2\nlink s2 s0\nlink s0 a\nlink s1 b\nlink s2 c\n"
	if err := os.WriteFile(wfile, []byte(wtext), 0o644); err != nil {
		t.Fatal(err)
	}
	topoFromWiring = true
	defer func() { topoFromWiring = false }()
	if err := run(wfile, "", "", "", "main", "newX", false); err != nil {
		t.Fatalf("wiring generation: %v", err)
	}
}
