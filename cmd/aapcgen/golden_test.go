package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRoutineJSONGolden pins the bytes of `aapcgen -topo P -json` to the ones
// in testdata.
func TestRoutineJSONGolden(t *testing.T) {
	for _, preset := range []string{"fig1", "bg"} {
		out := filepath.Join(t.TempDir(), preset+".json")
		if err := run("", preset, out, "", "main", "newX", false); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "routine_"+preset+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the generated routine JSON", path)
		}
	}
}
