package sched

import (
	"net/url"
	"strconv"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/gen"
)

// FuzzScheduleRequest throws arbitrary query strings at the schedule
// endpoint's parser: it must never panic, must reject what the grammar
// rejects, and everything it accepts must be servable (known algorithm,
// non-negative msize, classifiable).
func FuzzScheduleRequest(f *testing.F) {
	f.Add("alg=ours&msize=65536")
	f.Add("alg=greedy&msize=512&syncs=1")
	f.Add("alg=auto&syncs=false&hash=deadbeef")
	f.Add("alg=ring")
	f.Add("msize=-1")
	f.Add("alg=ours&alg=ours")
	f.Add("msizes=4096")
	f.Add("syncs=maybe")
	f.Add("hash=")
	f.Add("alg=%6furs&msize=0012")
	f.Fuzz(func(t *testing.T, raw string) {
		vals, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := parseScheduleQuery(vals)
		if err != nil {
			return
		}
		if !gen.ValidAlg(q.alg) {
			t.Fatalf("accepted unknown alg %q from %q", q.alg, raw)
		}
		if q.msize < 0 {
			t.Fatalf("accepted negative msize %d from %q", q.msize, raw)
		}
		switch ClassifyMsize(q.msize) {
		case ClassSmall, ClassMedium, ClassLarge:
		default:
			t.Fatalf("msize %d has no class", q.msize)
		}
		if got := vals.Get("msize"); got != "" {
			n, aerr := strconv.Atoi(got)
			if aerr != nil || n != q.msize {
				t.Fatalf("msize round-trip: query %q parsed as %d", got, q.msize)
			}
		}
		if vals.Get("hash") != q.hash {
			t.Fatalf("hash round-trip: %q became %q", vals.Get("hash"), q.hash)
		}
	})
}
