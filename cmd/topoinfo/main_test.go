package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/harness"
)

func TestRunPresets(t *testing.T) {
	for _, preset := range []string{"fig1", "a", "bg"} {
		if err := run(&options{preset: preset, bwMbps: 100}); err != nil {
			t.Errorf("%s: %v", preset, err)
		}
	}
	if err := run(&options{preset: "fig1", bwMbps: 100, dot: true}); err != nil {
		t.Errorf("dot: %v", err)
	}
}

func TestRunFileAndErrors(t *testing.T) {
	dir := t.TempDir()
	topo := dir + "/t.topo"
	if err := os.WriteFile(topo, []byte("switch s\nmachines a b c\nlink s a\nlink s b\nlink s c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&options{file: topo, bwMbps: 100}); err != nil {
		t.Fatal(err)
	}
	if err := run(&options{bwMbps: 100}); err == nil {
		t.Error("want error without inputs")
	}
	if err := run(&options{file: "/nope", bwMbps: 100}); err == nil {
		t.Error("want error for missing file")
	}
	if err := run(&options{preset: "zzz", bwMbps: 100}); err == nil {
		t.Error("want error for unknown preset")
	}
	// Wiring mode: a redundant square derives a tree.
	wfile := dir + "/w.topo"
	wtext := "switches s0 s1\nmachines a b\nlink s0 s1\nlink s0 s1\nlink s0 a\nlink s1 b\n"
	if err := os.WriteFile(wfile, []byte(wtext), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&options{file: wfile, bwMbps: 100, wiring: true}); err != nil {
		t.Errorf("wiring: %v", err)
	}
	if err := run(&options{file: "/nope", bwMbps: 100, wiring: true}); err == nil {
		t.Error("want error for missing wiring file")
	}
}

// TestTopoHelpNamesEveryPreset: -topo's help lists every preset.
func TestTopoHelpNamesEveryPreset(t *testing.T) {
	fs := flag.NewFlagSet("topoinfo", flag.ContinueOnError)
	new(options).bind(fs)
	if u := fs.Lookup("topo").Usage; !strings.Contains(u, harness.PresetList()) {
		t.Errorf("-topo help %q does not list %s", u, harness.PresetList())
	}
}
