// Package analysistest runs a single analyzer over a corpus package under
// testdata/src and checks its diagnostics against expectations written in
// the corpus sources, mirroring the x/tools harness of the same name:
//
//	rand.Intn(4) // want `global rand\.Intn is shared`
//
// Each `want` comment holds one or more quoted regular expressions; every
// diagnostic reported on that line must match one of them, every
// expectation must be matched by some diagnostic, and diagnostics on lines
// with no expectation fail the test. Because expectations are checked
// after the allow filter, a corpus line carrying //aapc:allow exercises the
// suppression machinery by expecting nothing.
//
// Corpus packages are typechecked from source against the installed GOROOT
// (go/importer's source mode), so they may import the standard library but
// nothing else.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/analysis"
)

// Run analyzes testdata/src/<pkg> with the module's language version.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	pi := LoadCorpus(t, testdata, pkg, "go1.22")
	diags, err := analysis.Run(pi, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, pi.Fset, pi.Files)
	for _, d := range diags {
		pos := pi.Fset.Position(d.Pos)
		if !matchWant(wants, pos, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s [%s]", filepath.Base(pos.Filename), pos.Line, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.re.String())
		}
	}
}

// LoadCorpus parses and typechecks testdata/src/<pkg> into a PackageInfo,
// for tests that drive analysis.RunWith directly (unused-allow audits).
func LoadCorpus(t *testing.T, testdata, pkg, goVersion string) *analysis.PackageInfo {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing corpus: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("corpus %s is empty", dir)
	}

	info := analysis.NewTypesInfo()
	conf := types.Config{
		Importer:  importer.ForCompiler(fset, "source", nil),
		GoVersion: goVersion,
	}
	tpkg, err := conf.Check(pkg, fset, files, info)
	if err != nil {
		t.Fatalf("typechecking corpus %s: %v", pkg, err)
	}
	return &analysis.PackageInfo{
		Fset:      fset,
		Files:     files,
		Pkg:       tpkg,
		Info:      info,
		PkgPath:   pkg,
		GoVersion: goVersion,
	}
}

// expectation is one quoted regexp of a want comment.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantPattern pulls quoted strings ("..." with escapes, or `...`) out of the
// tail of a want comment.
var wantPattern = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantPattern.FindAllString(strings.TrimPrefix(text, "want "), -1) {
					pat := strings.Trim(q, "`")
					if strings.HasPrefix(q, "\"") {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// matchWant consumes the first unmatched expectation on the diagnostic's
// line whose regexp matches the message.
func matchWant(wants []*expectation, pos token.Position, message string) bool {
	for _, w := range wants {
		if w.matched || w.file != pos.Filename || w.line != pos.Line {
			continue
		}
		if w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}
