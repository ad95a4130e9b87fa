package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/sched"
)

// compileNanos is the one field of a schedule body that is wall time.
var compileNanos = regexp.MustCompile(`"compileNanos":[0-9]+`)

// scheduleBody is the GET /v1/schedule body a cache hit of fig1 is answered
// with, its compile time zeroed.
func scheduleBody(t *testing.T, h http.Handler, alg string, syncs int) []byte {
	t.Helper()
	u := fmt.Sprintf("/v1/schedule?alg=%s&msize=65536&syncs=%d", alg, syncs)
	var body []byte
	for i := 0; i < 2; i++ { // the compile, then the hit
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
		body = rec.Body.Bytes()
	}
	return compileNanos.ReplaceAll(body, []byte(`"compileNanos":0`))
}

// TestScheduleBodiesGolden pins the wire bytes of every algorithm's schedule
// body on fig1, with and without syncs, to the ones in testdata (ring's is
// the 422 error body: fig1's trunks are standard links).
func TestScheduleBodiesGolden(t *testing.T) {
	d, err := sched.New(sched.Options{Graph: harness.Fig1()})
	if err != nil {
		t.Fatal(err)
	}
	h := sched.NewServer(d, nil)
	for _, alg := range []string{sched.AlgOurs, sched.AlgGreedy, sched.AlgAuto, sched.AlgRing} {
		for syncs := 0; syncs <= 1; syncs++ {
			path := filepath.Join("testdata", fmt.Sprintf("schedule_fig1_%s_syncs%d.json", alg, syncs))
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := scheduleBody(t, h, alg, syncs); !bytes.Equal(got, want) {
				t.Errorf("%s differs from the served body:\n%s", path, got)
			}
		}
	}
}
