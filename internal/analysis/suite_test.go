package analysis_test

import (
	"testing"

	"github.com/aapc-sched/aapcsched/internal/analysis"
	"github.com/aapc-sched/aapcsched/internal/analysis/analysistest"
)

// Each analyzer runs over a corpus under testdata/src containing both
// violations (annotated `// want`) and clean idioms, including
// //aapc:allow suppressions which must silence the finding.

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Determinism, "simnet")
}

// TestDeterminismScope proves the analyzer keeps out of packages that are
// not replay-sensitive: the corpus reads wall clocks and iterates maps.
func TestDeterminismScope(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Determinism, "other")
}

func TestSpscsafe(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Spscsafe, "spscsafe")
}

// TestUnusedAllowAudit drives the full Result surface: a suppressed finding
// marks its allow comment used; a comment that suppressed nothing surfaces
// in UnusedAllows with its position; a comment naming no registered
// analyzer leaves its finding live and surfaces as misnamed.
func TestUnusedAllowAudit(t *testing.T) {
	pi := analysistest.LoadCorpus(t, "testdata", "unusedallow", "go1.22")
	res, err := analysis.RunWith(pi, []*analysis.Analyzer{analysis.Spscsafe})
	if err != nil {
		t.Fatal(err)
	}

	suppressed, live := 0, 0
	for _, d := range res.Diags {
		if d.Suppressed {
			suppressed++
		} else {
			live++
		}
	}
	if suppressed != 1 || live != 1 {
		t.Errorf("findings: %d suppressed, %d live; want 1 and 1 (the misnamed comment's)", suppressed, live)
	}

	if len(res.UnusedAllows) != 2 {
		t.Fatalf("unused allows = %+v, want the stale one and the misnamed one", res.UnusedAllows)
	}
	stale, misnamed := res.UnusedAllows[0], res.UnusedAllows[1]
	if stale.Analyzer != "spscsafe" || stale.Misnamed {
		t.Errorf("stale entry = %+v, want a spscsafe claim", stale)
	}
	if misnamed.Analyzer != "spscsafee" || !misnamed.Misnamed {
		t.Errorf("misnamed entry = %+v, want spscsafee marked misnamed", misnamed)
	}
	pos := pi.Fset.Position(pi.Files[0].Pos())
	for _, e := range res.UnusedAllows {
		if e.File != pos.Filename {
			t.Errorf("entry file = %q, want %q", e.File, pos.Filename)
		}
	}
}

// TestUnusedAllowScopedToRanAnalyzers proves a comment for a pass that was
// not enabled this run is not reported as stale: absence of evidence only
// counts when the analyzer actually looked. A misnamed comment is reported
// whichever passes ran: no pass could ever use it.
func TestUnusedAllowScopedToRanAnalyzers(t *testing.T) {
	pi := analysistest.LoadCorpus(t, "testdata", "unusedallow", "go1.22")
	res, err := analysis.RunWith(pi, []*analysis.Analyzer{analysis.Determinism})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnusedAllows) != 1 || !res.UnusedAllows[0].Misnamed {
		t.Errorf("unused allows with spscsafe disabled = %+v, want only the misnamed one", res.UnusedAllows)
	}
}
