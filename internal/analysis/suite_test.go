package analysis_test

import (
	"testing"

	"github.com/aapc-sched/aapcsched/internal/analysis"
	"github.com/aapc-sched/aapcsched/internal/analysis/analysistest"
)

// Each analyzer runs over a corpus under testdata/src containing both
// violations (annotated `// want`) and clean idioms, including
// //aapc:allow suppressions which must silence the finding.

func TestPoolsafe(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Poolsafe, "poolsafe")
}

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Determinism, "simnet")
}

// TestDeterminismScope proves the analyzer keeps out of packages that are
// not replay-sensitive: the corpus reads wall clocks and iterates maps.
func TestDeterminismScope(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Determinism, "other")
}

func TestWaitcheck(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Waitcheck, "waitcheck")
}

func TestNoalloc(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Noalloc, "noalloc")
}

func TestCopycount(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Copycount, "copycount")
}

func TestLockorder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Lockorder, "lockorder")
}

func TestSpscsafe(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Spscsafe, "spscsafe")
}

// TestPoolsafeInterprocedural runs poolsafe with facts over a corpus whose
// every finding crosses a call boundary: helper releases (direct and
// transitive) and aliases through returns-param callees.
func TestPoolsafeInterprocedural(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Poolsafe, "poolsafeinter")
}

func TestShadow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Shadow, "shadow")
}

// TestUnusedAllowAudit drives the full Result surface: a suppressed finding
// marks its allow comment used; a comment that suppressed nothing surfaces
// in UnusedAllows with its position.
func TestUnusedAllowAudit(t *testing.T) {
	pi := analysistest.LoadCorpus(t, "testdata", "unusedallow", "go1.22")
	res, err := analysis.RunWith(pi, []*analysis.Analyzer{analysis.Poolsafe}, analysis.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}

	suppressed := 0
	for _, d := range res.Diags {
		if !d.Suppressed {
			t.Errorf("unexpected live diagnostic: %s", d.Message)
			continue
		}
		suppressed++
	}
	if suppressed != 1 {
		t.Errorf("suppressed findings = %d, want 1", suppressed)
	}

	if len(res.UnusedAllows) != 1 {
		t.Fatalf("unused allows = %+v, want exactly one", res.UnusedAllows)
	}
	e := res.UnusedAllows[0]
	if e.Analyzer != "poolsafe" {
		t.Errorf("stale entry analyzer = %q, want poolsafe", e.Analyzer)
	}
	pos := pi.Fset.Position(pi.Files[0].Pos())
	if e.File != pos.Filename {
		t.Errorf("stale entry file = %q, want %q", e.File, pos.Filename)
	}
}

// TestUnusedAllowScopedToRanAnalyzers proves a comment for a pass that was
// not enabled this run is not reported as stale: absence of evidence only
// counts when the analyzer actually looked.
func TestUnusedAllowScopedToRanAnalyzers(t *testing.T) {
	pi := analysistest.LoadCorpus(t, "testdata", "unusedallow", "go1.22")
	res, err := analysis.RunWith(pi, []*analysis.Analyzer{analysis.Determinism}, analysis.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnusedAllows) != 0 {
		t.Errorf("unused allows with poolsafe disabled = %+v, want none", res.UnusedAllows)
	}
}
