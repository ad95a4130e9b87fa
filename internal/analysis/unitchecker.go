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
// No analyzer here reads facts, so the vetx channel carries nothing: every
// unit writes an empty VetxOutput, and a VetxOnly unit (a dependency cmd/go
// visits only for its facts) is not even parsed.

// vetConfig holds the vet.cfg fields this tool reads; the rest are ignored.
type vetConfig struct {
	Compiler   string
	Dir        string
	ImportPath string
	GoVersion  string
	GoFiles    []string

	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

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

	// cmd/go caches the (empty) facts file of every unit it runs.
	if code := writeVetx(&cfg); code != 0 || cfg.VetxOnly {
		return code
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
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
			return 0
		}
		fmt.Fprintf(os.Stderr, "aapcvet: typecheck %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	res, err := RunWith(&PackageInfo{
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		Info:      info,
		PkgPath:   cfg.ImportPath,
		GoVersion: cfg.GoVersion,
	}, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aapcvet: %v\n", err)
		return 1
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

// writeVetx writes the unit's facts file, which cmd/go caches keyed by the
// action; it is empty because no analyzer exports facts.
func writeVetx(cfg *vetConfig) int {
	if cfg.VetxOutput == "" {
		return 0
	}
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		fmt.Fprintf(os.Stderr, "aapcvet: %v\n", err)
		return 1
	}
	return 0
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
