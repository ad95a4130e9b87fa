// Package analysis is the repo's static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// model (Analyzer, Pass, Diagnostic) plus the project-specific analyzers
// that enforce invariants the runtime gates can only sample:
//
//   - determinism: replay-sensitive packages must not consult wall clocks,
//     global randomness, or map iteration order;
//   - spscsafe: //aapc:spsc ring types keep atomic access and producer /
//     consumer role separation.
//
// Every pass reasons about one function body at a time and keeps no
// summaries of its callees, so no finding depends on another package.
//
// The framework is built on the standard library's go/ast and go/types
// only. The build environment pins no external modules, so rather than
// depending on golang.org/x/tools this package re-derives the two pieces it
// needs: the analyzer/pass model (this file) and the `go vet -vettool`
// unit-checker protocol (unitchecker.go).
//
// Findings are suppressed with a comment on the flagged line or the line
// above it:
//
//	//aapc:allow <analyzer>... [reason]
//
// The reason is free text; the convention is to state why the invariant
// holds anyway (e.g. "results are keyed by job index").
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
	// Suppressed marks findings silenced by an //aapc:allow comment; they
	// are dropped from human output but survive into -json.
	Suppressed bool
}

// Analyzer is one named pass over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier: flag name, suppression token, and
	// diagnostic tag.
	Name string
	// Doc is the one-line description shown in usage output.
	Doc string
	// SkipTests excludes _test.go files from the pass (used by analyzers
	// whose invariants only bind production code, like determinism).
	SkipTests bool
	// AppliesTo, when non-nil, restricts the pass to packages for which it
	// returns true (matched against the package's import path).
	AppliesTo func(pkgPath string) bool
	// Run reports findings through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees. When the analyzer sets
	// SkipTests, _test.go files are already filtered out.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// PkgPath is the import path the package was loaded under.
	PkgPath string

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ObjectOf resolves an identifier through Uses then Defs.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// PackageInfo is a loaded, type-checked package handed to the runner by a
// front end (the unitchecker or the test harness).
type PackageInfo struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	Info      *types.Info
	PkgPath   string
	GoVersion string
}

// NewTypesInfo returns a types.Info with every map the analyzers consult.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// isTestFile reports whether the file's name has the _test.go suffix.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// AllowEntry is one analyzer name claimed by an //aapc:allow comment,
// together with whether it suppressed anything during the run.
type AllowEntry struct {
	File     string
	Line     int
	Analyzer string
	// Misnamed marks a comment whose first token (Analyzer, possibly empty)
	// is no registered analyzer: it can never suppress anything.
	Misnamed bool
	used     bool
}

// Result is the full outcome of a run: every diagnostic (suppressed ones
// flagged, all sorted by file/line/column/analyzer) plus the allow entries
// that suppressed nothing — the raw material of the -unusedallow audit.
type Result struct {
	Diags        []Diagnostic
	UnusedAllows []AllowEntry
}

// Run executes the analyzers over the package and returns the surviving
// diagnostics, suppressed findings dropped.
func Run(pkg *PackageInfo, analyzers []*Analyzer) ([]Diagnostic, error) {
	res, err := RunWith(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, d := range res.Diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out, nil
}

// RunWith executes the analyzers and returns the full Result.
func RunWith(pkg *PackageInfo, analyzers []*Analyzer) (*Result, error) {
	allow := buildAllowIndex(pkg.Fset, pkg.Files)
	res := &Result{}

	for _, a := range analyzers {
		if a.AppliesTo != nil && !a.AppliesTo(pkg.PkgPath) {
			continue
		}
		files := pkg.Files
		if a.SkipTests {
			files = nil
			for _, f := range pkg.Files {
				if !isTestFile(pkg.Fset, f) {
					files = append(files, f)
				}
			}
		}
		if len(files) == 0 {
			continue
		}
		var diags []Diagnostic
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			PkgPath:  pkg.PkgPath,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range diags {
			d.Suppressed = allow.allows(pkg.Fset.Position(d.Pos), a.Name)
			res.Diags = append(res.Diags, d)
		}
	}

	// Byte-stable output order regardless of analyzer registration or file
	// load order: (file, line, column, analyzer, message).
	sort.Slice(res.Diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(res.Diags[i].Pos), pkg.Fset.Position(res.Diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if res.Diags[i].Analyzer != res.Diags[j].Analyzer {
			return res.Diags[i].Analyzer < res.Diags[j].Analyzer
		}
		return res.Diags[i].Message < res.Diags[j].Message
	})

	res.UnusedAllows = allow.unused(analyzers)
	return res, nil
}
