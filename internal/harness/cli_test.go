package harness

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/aapc-sched/aapcsched/internal/simnet"
)

// TestPresetList: the list the commands' help texts and Preset's error
// print names every preset, and every name it lists resolves.
func TestPresetList(t *testing.T) {
	names := strings.Split(PresetList(), ", ")
	if len(names) != len(presets) {
		t.Fatalf("PresetList() = %q, want %d names", PresetList(), len(presets))
	}
	for _, name := range names {
		if g, err := Preset(name); err != nil || g.NumMachines() == 0 {
			t.Errorf("Preset(%q) = %v, %v", name, g, err)
		}
	}
	if _, err := Preset("z"); err == nil || !strings.Contains(err.Error(), PresetList()) {
		t.Errorf("unknown preset error %v does not list %s", err, PresetList())
	}
}

// TestLoadTopology: a file wins over a preset, -wiring derives the tree and
// counts the blocked cables, and a missing input, file or preset fails.
func TestLoadTopology(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "fig1.topo")
	if err := os.WriteFile(file, []byte(Fig1().Format()), 0o644); err != nil {
		t.Fatal(err)
	}
	g, blocked, err := LoadTopology(file, "a", false)
	if err != nil || blocked != 0 || g.Hash() != Fig1().Hash() {
		t.Errorf("file over preset: %v, %d blocked, %v", g, blocked, err)
	}
	if g, _, err := LoadTopology("", "a", false); err != nil || g.NumMachines() != 24 {
		t.Errorf("preset a: %v, %v", g, err)
	}
	// A triangle of switches with one machine each: one cable blocked.
	wiring := filepath.Join(dir, "w.topo")
	wtext := "switches s0 s1 s2\nmachines a b c\nlink s0 s1\nlink s1 s2\nlink s2 s0\nlink s0 a\nlink s1 b\nlink s2 c\n"
	if err := os.WriteFile(wiring, []byte(wtext), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadTopology(wiring, "", false); err == nil {
		t.Error("a cyclic file parsed as a tree")
	}
	if g, blocked, err := LoadTopology(wiring, "", true); err != nil || blocked != 1 || g.NumMachines() != 3 {
		t.Errorf("wiring: %v, %d blocked, %v", g, blocked, err)
	}
	for _, bad := range [][2]string{{"", ""}, {"", "z"}, {filepath.Join(dir, "missing"), ""}} {
		if _, _, err := LoadTopology(bad[0], bad[1], false); err == nil {
			t.Errorf("LoadTopology(%q, %q): want error", bad[0], bad[1])
		}
	}
}

// TestRoutine: every algorithm name resolves to a routine that runs on
// the simulator, and an unknown one fails with the names it wants.
func TestRoutine(t *testing.T) {
	g := Fig1()
	for _, name := range []string{"ours", "lam", "mpich"} {
		fn, err := Routine(g, name, time.Minute)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Measure(simnet.Config{Graph: g}, fn, 1<<10); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Routine(g, "zzz", 0); err == nil || err.Error() != `unknown algorithm "zzz" (want ours, lam or mpich)` {
		t.Errorf("unknown algorithm: %v", err)
	}
}

func TestParseMsizes(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"", nil},
		{"8K", []int{8192}},
		{"8K,64K,256K", []int{8192, 65536, 262144}},
		{"8KB,64KB", []int{8192, 65536}},
		{"1M", []int{1 << 20}},
		{"1MB", []int{1 << 20}},
		{"100", []int{100}},
		{"100B", []int{100}},
		{" 4K , 2K ", []int{4096, 2048}},
	}
	for _, tc := range cases {
		got, err := ParseMsizes(tc.in)
		if err != nil {
			t.Errorf("ParseMsizes(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseMsizes(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"x", "8Q", "-4K", "0", "0K", "K", "KB", "4KK", "8K,", "8K,,1M", "9223372036854775807K"} {
		if _, err := ParseMsizes(bad); err == nil {
			t.Errorf("ParseMsizes(%q): want error", bad)
		}
	}
}

// TestParseMsizeReadsFormatMsize: every positive size survives a print and
// a parse, at the unit boundaries, the extremes and random sizes.
func TestParseMsizeReadsFormatMsize(t *testing.T) {
	sizes := []int{1, 1023, 1 << 10, 1<<10 + 1, 1<<20 - 1, 1 << 20, 3 << 20, math.MaxInt, math.MaxInt &^ (1<<20 - 1)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		sizes = append(sizes, 1+rng.Intn(1<<30), (1+rng.Intn(1<<20))<<10, 1+rng.Intn(math.MaxInt))
	}
	for _, s := range sizes {
		if got, err := ParseMsize(FormatMsize(s)); err != nil || got != s {
			t.Fatalf("ParseMsize(FormatMsize(%d) = %q) = %d, %v", s, FormatMsize(s), got, err)
		}
	}
}
