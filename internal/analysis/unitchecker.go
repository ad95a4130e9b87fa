package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// This file implements the `go vet -vettool` unit-checker protocol with no
// dependency on golang.org/x/tools. The protocol, from
// cmd/go/internal/work/exec.go:
//
//  1. `tool -V=full` must print a line `<name> version <id>...` whose
//     trailing id changes when the tool changes (cmd/go hashes it into the
//     vet cache key).
//  2. `tool -flags` must print a JSON array of the tool's flags so cmd/go
//     can validate command-line vet flags.
//  3. `tool [flags] <dir>/vet.cfg` is invoked once per package with a JSON
//     config naming the source files, the import map, and the export-data
//     files of every dependency. The tool must write cfg.VetxOutput — the
//     facts file cmd/go caches and feeds back through cfg.PackageVetx on
//     dependent packages — print diagnostics to stderr, and exit 2 when it
//     found anything, 0 when clean.
//
// The vetx channel carries the interprocedural fact summaries (facts.go):
// cmd/go invokes the tool with VetxOnly=true on every transitive dependency
// first, so by the time a package is analyzed for diagnostics, the facts of
// everything it imports sit in PackageVetx. Standard-library dependencies
// are exempt — they get the constant marker payload — both to keep `make
// lint` inside its time budget and because no analyzer consumes facts about
// std functions.
type vetConfig struct {
	ID         string
	Compiler   string
	Dir        string
	ImportPath string
	ModulePath string
	GoVersion  string
	GoFiles    []string
	NonGoFiles []string

	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool
	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// vetxMarker is the facts payload for packages whose facts are not computed
// (standard library, typecheck failures): a constant that DecodeFacts
// rejects by magic, so importing it is a clean no-op.
var vetxMarker = []byte("aapcvet: no facts\n")

// Main is the entry point of cmd/aapcvet. It never returns.
func Main(analyzers ...*Analyzer) {
	fs := flag.NewFlagSet("aapcvet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(which aapcvet) [-<analyzer>=false] [-json] [-unusedallow] packages...\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	vFlag := fs.String("V", "", "print version and exit (cmd/go protocol)")
	flagsFlag := fs.Bool("flags", false, "print flag description in JSON and exit (cmd/go protocol)")
	jsonFlagV := fs.Bool("json", false, "emit diagnostics as NDJSON on stderr (suppressed findings included)")
	unusedFlag := fs.Bool("unusedallow", false, "flag //aapc:allow comments that suppressed nothing")
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, true, a.Doc)
	}
	_ = fs.Parse(os.Args[1:])

	switch {
	case *vFlag != "":
		// Any stable-looking id works; hash the binary so edits to the
		// tool invalidate cmd/go's vet cache.
		fmt.Printf("aapcvet version v1-%s\n", selfHash())
		os.Exit(0)
	case *flagsFlag:
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		out := []jsonFlag{
			{Name: "json", Bool: true, Usage: "emit diagnostics as NDJSON"},
			{Name: "unusedallow", Bool: true, Usage: "flag stale //aapc:allow comments"},
		}
		for _, a := range analyzers {
			out = append(out, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
		}
		data, _ := json.Marshal(out)
		os.Stdout.Write(data)
		os.Exit(0)
	}

	args := fs.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fs.Usage()
		os.Exit(1)
	}
	var active []*Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	os.Exit(runConfig(args[0], active, runOptions{json: *jsonFlagV, unusedAllow: *unusedFlag}))
}

// runOptions are the output-shaping flags of one invocation.
type runOptions struct {
	json        bool
	unusedAllow bool
}

// jsonDiagnostic is one NDJSON output line of -json mode.
type jsonDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
}

// runConfig executes one unit-checker invocation and returns the process
// exit code.
func runConfig(cfgFile string, analyzers []*Analyzer, opts runOptions) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aapcvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "aapcvet: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	needFacts := false
	for _, a := range analyzers {
		if a.NeedsFacts {
			needFacts = true
		}
	}

	if cfg.VetxOnly {
		// Dependency run: the only product is the facts file. Standard
		// library packages get the marker (no analyzer asks about them, and
		// summarizing all of std would dominate the wall clock).
		if !needFacts || isStdPackage(&cfg) {
			return writeVetx(&cfg, vetxMarker)
		}
		pkg, ok := loadPackage(&cfg)
		if !ok {
			// A dependency that fails to load (cgo, typecheck quirks) simply
			// contributes no facts; dependents stay conservative.
			return writeVetx(&cfg, vetxMarker)
		}
		facts := ComputeFacts(pkg, importFacts(&cfg))
		payload, err := facts.Encode()
		if err != nil {
			fmt.Fprintf(os.Stderr, "aapcvet: encoding facts for %s: %v\n", cfg.ImportPath, err)
			return 1
		}
		return writeVetx(&cfg, payload)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx(&cfg, vetxMarker)
			}
			fmt.Fprintf(os.Stderr, "aapcvet: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	imp := newExportDataImporter(fset, &cfg)
	info := NewTypesInfo()
	tcfg := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(compilerName(cfg.Compiler), buildArch()),
		GoVersion: cfg.GoVersion, // e.g. "go1.22"
	}
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(&cfg, vetxMarker)
		}
		fmt.Fprintf(os.Stderr, "aapcvet: typecheck %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	var imported *FactSet
	if needFacts {
		imported = importFacts(&cfg)
	}
	res, err := RunWith(&PackageInfo{
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		Info:      info,
		PkgPath:   cfg.ImportPath,
		GoVersion: cfg.GoVersion,
	}, analyzers, RunConfig{Imported: imported})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aapcvet: %v\n", err)
		return 1
	}

	// The leaf package's facts also enter the cache: a dependent package in
	// the same `go vet` invocation imports them through PackageVetx.
	payload := vetxMarker
	if res.Facts != nil {
		if payload, err = res.Facts.Encode(); err != nil {
			fmt.Fprintf(os.Stderr, "aapcvet: encoding facts for %s: %v\n", cfg.ImportPath, err)
			return 1
		}
	}
	if code := writeVetx(&cfg, payload); code != 0 {
		return code
	}

	findings := 0
	emit := func(pos token.Position, analyzer, message string, suppressed bool) {
		if opts.json {
			rel := relPosition(pos, cfg.Dir)
			line, _ := json.Marshal(jsonDiagnostic{
				File: rel.Filename, Line: rel.Line, Col: rel.Column,
				Analyzer: analyzer, Message: message, Suppressed: suppressed,
			})
			fmt.Fprintf(os.Stderr, "%s\n", line)
		} else if !suppressed {
			fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", relPosition(pos, cfg.Dir), message, analyzer)
		}
		if !suppressed {
			findings++
		}
	}
	for _, d := range res.Diags {
		emit(fset.Position(d.Pos), d.Analyzer, d.Message, d.Suppressed)
	}
	if opts.unusedAllow {
		for _, e := range res.UnusedAllows {
			msg := fmt.Sprintf("stale //aapc:allow %s: the comment suppressed nothing in this run", e.Analyzer)
			if e.Misnamed {
				msg = fmt.Sprintf("//aapc:allow %q names no registered analyzer, so the comment suppresses nothing", e.Analyzer)
			}
			emit(token.Position{Filename: e.File, Line: e.Line, Column: 1}, "unusedallow", msg, false)
		}
	}
	if findings > 0 {
		return 2
	}
	return 0
}

// writeVetx satisfies the facts side of the protocol; cmd/go caches the file
// keyed by the action.
func writeVetx(cfg *vetConfig, payload []byte) int {
	if cfg.VetxOutput == "" {
		return 0
	}
	if err := os.WriteFile(cfg.VetxOutput, payload, 0o666); err != nil {
		fmt.Fprintf(os.Stderr, "aapcvet: %v\n", err)
		return 1
	}
	return 0
}

// isStdPackage reports whether the unit being checked is a standard-library
// package. cmd/go sets ModulePath only for module units (cfg.Standard lists
// the unit's std *dependencies*, not the unit itself, so it cannot answer
// this); the fallback for GOPATH-mode units is "no dot in the first path
// element" (module paths are domain-rooted, std paths are not).
func isStdPackage(cfg *vetConfig) bool {
	if cfg.ModulePath != "" {
		return false
	}
	first := cfg.ImportPath
	if i := strings.IndexByte(first, '/'); i >= 0 {
		first = first[:i]
	}
	return !strings.Contains(first, ".")
}

// loadPackage parses and typechecks the unit for a facts-only run; ok is
// false on any failure (the caller degrades to the marker payload).
func loadPackage(cfg *vetConfig) (*PackageInfo, bool) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, false
		}
		files = append(files, f)
	}
	imp := newExportDataImporter(fset, cfg)
	info := NewTypesInfo()
	tcfg := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(compilerName(cfg.Compiler), buildArch()),
		GoVersion: cfg.GoVersion,
	}
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, false
	}
	return &PackageInfo{
		Fset: fset, Files: files, Pkg: pkg, Info: info,
		PkgPath: cfg.ImportPath, GoVersion: cfg.GoVersion,
	}, true
}

// importFacts merges the fact sets of every dependency listed in
// PackageVetx. Marker payloads (std packages, older cache entries) decode
// to nothing and are skipped; a corrupt facts file is reported but not
// fatal — analysis just loses precision.
func importFacts(cfg *vetConfig) *FactSet {
	merged := NewFactSet()
	for dep, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil {
			continue
		}
		fs, ok, err := DecodeFacts(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aapcvet: facts of %s: %v\n", dep, err)
			continue
		}
		if ok {
			merged.Merge(fs)
		}
	}
	return merged
}

// relPosition shortens absolute file names under dir for readability.
func relPosition(pos token.Position, dir string) token.Position {
	if dir != "" {
		if rel, err := filepath.Rel(dir, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
	}
	return pos
}

func compilerName(name string) string {
	if name == "" {
		return "gc"
	}
	return name
}

func buildArch() string {
	if a := os.Getenv("GOARCH"); a != "" {
		return a
	}
	return runtime.GOARCH
}

// exportDataImporter resolves imports through the vet config: source paths
// map through ImportMap to canonical package paths, whose compiled export
// data is listed in PackageFile. The heavy lifting (reading gc export data)
// is delegated to a single go/importer instance with a lookup function, so
// shared dependencies resolve to one *types.Package and type identity
// holds across the whole unit.
type exportDataImporter struct {
	cfg *vetConfig
	gc  types.Importer
}

func newExportDataImporter(fset *token.FileSet, cfg *vetConfig) *exportDataImporter {
	m := &exportDataImporter{cfg: cfg}
	m.gc = importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		target := p
		if mapped, ok := cfg.ImportMap[p]; ok {
			target = mapped
		}
		file, ok := cfg.PackageFile[target]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(file)
	})
	return m
}

func (m *exportDataImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := m.cfg.ImportMap[path]; ok {
		path = mapped
	}
	return m.gc.Import(path)
}

// selfHash fingerprints the running binary for the -V=full build id.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
