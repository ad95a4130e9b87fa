package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// vetSource is a one-file package with no imports whose only finding is
// spscsafe's, for the plain cursor read on line 9, column 9.
const vetSource = `package vetcase

//aapc:spsc
type ring struct {
	tail uint64 //aapc:cursor producer
}

func peek(r *ring) uint64 {
	return r.tail
}
`

const vetFinding = "plain read of cursor ring.tail: use sync/atomic (the compiler may tear or cache a plain load)"

// runVet writes src as the package's one file, writes a vet.cfg for it the
// way cmd/go does (edit adjusts it), and runs the unit checker with the
// whole suite. It returns the exit code, what the run printed to stderr,
// and the path the config names as VetxOutput.
func runVet(t *testing.T, src string, opts runOptions, edit func(*vetConfig)) (code int, stderr, vetx string) {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "vetcase.go")
	if err := os.WriteFile(file, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg := vetConfig{
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "vetcase",
		GoVersion:  "go1.22",
		GoFiles:    []string{file},
		VetxOutput: filepath.Join(dir, "vet.out"),
	}
	if edit != nil {
		edit(&cfg)
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgFile := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgFile, data, 0o666); err != nil {
		t.Fatal(err)
	}

	errFile, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errFile.Close()
	saved := os.Stderr
	os.Stderr = errFile
	code = runConfig(cfgFile, Suite(), opts)
	os.Stderr = saved
	out, err := os.ReadFile(errFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), cfg.VetxOutput
}

func requireFile(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

// TestVetxOnlyWritesOutputQuietly: a dependency visited only for its facts
// gets its VetxOutput file and reports nothing, whatever its source holds.
func TestVetxOnlyWritesOutputQuietly(t *testing.T) {
	code, out, vetx := runVet(t, vetSource, runOptions{}, func(c *vetConfig) { c.VetxOnly = true })
	if code != 0 || out != "" {
		t.Errorf("VetxOnly run: exit %d, stderr %q; want 0 and nothing", code, out)
	}
	requireFile(t, vetx)
}

// TestVetLeafRunReportsFinding: an unsuppressed finding prints as
// file:line:col: message [analyzer], relative to the package directory,
// and the run exits 2.
func TestVetLeafRunReportsFinding(t *testing.T) {
	code, out, vetx := runVet(t, vetSource, runOptions{}, nil)
	want := "vetcase.go:9:9: " + vetFinding + " [spscsafe]\n"
	if code != 2 || out != want {
		t.Errorf("leaf run: exit %d, stderr %q; want 2 and %q", code, out, want)
	}
	requireFile(t, vetx)
}

// TestVetJSONMarksSuppressed: -json emits an allowed finding as an NDJSON
// object with "suppressed":true, and a run whose every finding is allowed
// exits 0.
func TestVetJSONMarksSuppressed(t *testing.T) {
	src := strings.Replace(vetSource, "\treturn r.tail", "\t//aapc:allow spscsafe the producer has exited, nothing races\n\treturn r.tail", 1)
	code, out, _ := runVet(t, src, runOptions{json: true}, nil)
	want := `{"file":"vetcase.go","line":10,"col":9,"analyzer":"spscsafe","message":"` + vetFinding + `","suppressed":true}` + "\n"
	if code != 0 || out != want {
		t.Errorf("-json run: exit %d, stderr %q; want 0 and %q", code, out, want)
	}
}

// TestVetUnusedAllowReportsStale: -unusedallow turns an allow comment that
// suppressed nothing into a finding at the comment's line.
func TestVetUnusedAllowReportsStale(t *testing.T) {
	src := strings.Replace(vetSource, "\treturn r.tail", "\t//aapc:allow spscsafe nothing on the next line is flagged\n\treturn 0", 1)
	code, out, _ := runVet(t, src, runOptions{unusedAllow: true}, nil)
	want := "vetcase.go:9:1: stale //aapc:allow spscsafe: the comment suppressed nothing in this run [unusedallow]\n"
	if code != 2 || out != want {
		t.Errorf("-unusedallow run: exit %d, stderr %q; want 2 and %q", code, out, want)
	}
}

// TestVetTypecheckFailureSucceeds: with SucceedOnTypecheckFailure, a unit
// that does not typecheck exits 0, prints nothing and still leaves the
// VetxOutput file cmd/go expects.
func TestVetTypecheckFailureSucceeds(t *testing.T) {
	src := vetSource + "\nvar broken int = \"not an int\"\n"
	code, out, vetx := runVet(t, src, runOptions{}, func(c *vetConfig) { c.SucceedOnTypecheckFailure = true })
	if code != 0 || out != "" {
		t.Errorf("typecheck failure: exit %d, stderr %q; want 0 and nothing", code, out)
	}
	requireFile(t, vetx)
}
