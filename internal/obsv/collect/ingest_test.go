package collect

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// post sends one request through the handler in-process and returns the
// response.
func post(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestIngestRejectsOutOfWorldRanks is the regression for the one-POST kill
// of aapcd: an event naming rank 4e9 used to be stored, and the next report
// sized its per-rank table by it (fatal out of memory, not a recoverable
// panic). Ingest now refuses every event outside the trace's world, and a
// header claiming more than MaxRanks, with a 400 — storing nothing.
func TestIngestRejectsOutOfWorldRanks(t *testing.T) {
	g := starGraph(t, 4)
	s := NewStore()
	h := Handler(s, g)
	header := func(ranks int) string { return fmt.Sprintf(`{"meta":{"version":1,"ranks":%d}}`+"\n", ranks) }
	send := func(rank, peer int) string {
		return fmt.Sprintf(`{"kind":"send","rank":%d,"peer":%d,"phase":-1,"start":0,"end":0.001,"seq":1,"bytes":4096}`+"\n", rank, peer)
	}
	bad := map[string]string{
		"huge rank, no header":     send(4000000000, 0),
		"negative rank":            send(-1, 0),
		"peer below -1":            send(0, -2),
		"huge peer, no header":     send(0, MaxRanks),
		"rank beyond header":       header(4) + send(4, 0),
		"peer beyond header":       header(4) + send(0, 4),
		"header beyond ceiling":    header(MaxRanks + 1),
		"one bad event among good": header(4) + send(0, 1) + send(7, 1),
	}
	for name, body := range bad {
		if rec := post(h, http.MethodPost, "/v1/trace/ingest", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: ingest status %d, want 400", name, rec.Code)
		}
	}
	if s.NumSpans() != 0 {
		t.Fatalf("rejected traces left %d spans in the store", s.NumSpans())
	}
	// The collector is still alive and serves a sane report.
	if rec := post(h, http.MethodGet, "/v1/trace/report", ""); rec.Code != http.StatusOK {
		t.Fatalf("report status %d", rec.Code)
	}

	// In-world traces still ingest: rank and peer bounded by the header, and
	// by MaxRanks without one; peer -1 (no peer) is valid.
	good := header(4) + send(3, 0) + `{"kind":"phase","rank":2,"peer":-1,"phase":0,"start":0,"end":0,"seq":1}` + "\n"
	if rec := post(h, http.MethodPost, "/v1/trace/ingest", good); rec.Code != http.StatusOK {
		t.Fatalf("in-world trace refused: %d %s", rec.Code, rec.Body.String())
	}
	if rec := post(h, http.MethodPost, "/v1/trace/ingest", send(MaxRanks-1, 0)); rec.Code != http.StatusOK {
		t.Fatalf("headerless trace within MaxRanks refused: %d %s", rec.Code, rec.Body.String())
	}
	rec := post(h, http.MethodGet, "/v1/trace/report?format=text", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), fmt.Sprintf("%d ranks", MaxRanks)) {
		t.Errorf("report after in-world ingest: %d\n%s", rec.Code, rec.Body.String())
	}
}

// FuzzTraceIngest: whatever body is posted, ingest either stores it or
// refuses it, and the reports and the event dump never panic — on a
// collector holding a topology smaller than the ranks a trace may name.
func FuzzTraceIngest(f *testing.F) {
	f.Add([]byte(`{"meta":{"version":1,"ranks":2,"transport":"mem","msize":4096}}
{"kind":"send","rank":0,"peer":1,"phase":0,"start":0.1,"end":0.2,"seq":1,"bytes":4096,"deliver":0.2}
{"kind":"recv","rank":1,"peer":0,"phase":0,"start":0.1,"end":0.3,"seq":1,"link":1,"bytes":4096,"deliver":0.2}
{"kind":"phase","rank":0,"peer":-1,"phase":0,"start":0,"end":0,"seq":2}
{"kind":"syncwait","rank":1,"peer":0,"phase":0,"start":0.3,"end":0.4,"seq":2}
`))
	f.Add([]byte(`{"kind":"send","rank":4000000000,"peer":0,"phase":-1,"start":0,"end":0}`))
	f.Add([]byte(`{"kind":"recv","rank":9,"peer":3,"phase":1,"start":-5,"end":1e300,"seq":7,"link":7,"bytes":65536,"deliver":3}
{"kind":"send","rank":3,"peer":9,"phase":1,"start":2,"end":1,"seq":7,"bytes":65536}
{"kind":"phase","rank":3,"peer":-1,"phase":1,"start":0,"end":0,"seq":6}`))
	f.Add([]byte(`{"meta":{"ranks":1025}}`))
	f.Add([]byte("not json\n"))
	g := starGraph(f, 4)
	f.Fuzz(func(t *testing.T, body []byte) {
		h := Handler(NewStore(), g)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trace/ingest", bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("ingest status %d", rec.Code)
		}
		for _, path := range []string{"/v1/trace/report", "/v1/trace/report?format=text", "/v1/trace/events"} {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
		}
	})
}
