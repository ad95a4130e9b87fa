package schedule

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// flatInts is the oracle's view of messages: [src,dst,src,dst,…].
func flatInts(ms []Message) []int {
	out := make([]int, 0, 2*len(ms))
	for _, m := range ms {
		out = append(out, m.Src, m.Dst)
	}
	return out
}

func TestPhaseJSONRoundTrip(t *testing.T) {
	in := []Phase{{{0, 4}, {1, 0}, {3, 5}}, {{12, 7}}, {}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[[0,4,1,0,3,5],[12,7],[]]`; string(b) != want {
		t.Fatalf("marshaled %s, want %s", b, want)
	}
	var out []Phase
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out[:2], in[:2]) || len(out[2]) != 0 {
		t.Fatalf("round trip gave %v, want %v", out, in)
	}
	// null leaves a phase as it is, as encoding/json's own Unmarshalers do.
	p := Phase{{1, 2}}
	if err := json.Unmarshal([]byte("null"), &p); err != nil || !slices.Equal(p, Phase{{1, 2}}) {
		t.Fatalf("null: phase %v, err %v", p, err)
	}
}

// TestAppendMessagePairsRejects: every input the pair form excludes is an
// error that leaves dst as it was, and whitespace anywhere JSON allows it is
// accepted.
func TestAppendMessagePairsRejects(t *testing.T) {
	prefix := []Message{{7, 8}}
	for _, bad := range []string{
		"", "[", "]", "{}", `"[0,1]"`, "[0,1", "[0,1,]", "[,0,1]", "[0 1]",
		"[-1,2]", "[-0,1]", "[1.5,2]", "[1.0,2]", "[1e2,3]", "[1E2,3]", "[01,2]", "[00,2]",
		"[9223372036854775808,0]", "[99999999999999999999,0]",
		"[1,2,3]", "[1]", "[1,2] x", "[1,2][3,4]", "nullx", "nul",
		"[null,1]", "[true,1]", `["1",2]`, "[[1,2]]",
	} {
		got, err := AppendMessagePairs(prefix, []byte(bad))
		if err == nil {
			t.Errorf("%q: accepted as %v", bad, got)
		}
		if !slices.Equal(got, prefix) {
			t.Errorf("%q: dst became %v on error", bad, got)
		}
	}
	for in, want := range map[string][]Message{
		"null":                     nil,
		" null\n":                  nil,
		"[]":                       nil,
		" [ ] ":                    nil,
		"[0,1]":                    {{0, 1}},
		"[\n  3,\r\n\t4 , 5,6 ]\n": {{3, 4}, {5, 6}},
		"[9223372036854775807,10]": {{9223372036854775807, 10}},
	} {
		got, err := AppendMessagePairs(prefix, []byte(in))
		if err != nil || !slices.Equal(got[1:], want) || got[0] != prefix[0] {
			t.Errorf("%q: got %v, %v; want %v after the prefix", in, got, err, want)
		}
	}
}

// goldenPairSeeds are the phase and sync arrays of the committed schedule
// bodies and routine JSON.
func goldenPairSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var paths []string
	for _, dir := range []string{"../../cmd/aapcd/testdata", "../../cmd/aapcgen/testdata"} {
		ps, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			tb.Fatal(err)
		}
		paths = append(paths, ps...)
	}
	var seeds [][]byte
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		var body struct{ Phases, Syncs []json.RawMessage }
		if err := json.Unmarshal(data, &body); err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		// A few of each file are plenty: the arrays differ only in values.
		for _, raws := range [][]json.RawMessage{body.Phases, body.Syncs} {
			for _, raw := range raws[:min(len(raws), 4)] {
				seeds = append(seeds, raw)
			}
		}
	}
	if len(seeds) == 0 {
		tb.Fatal("no seeds in the goldens")
	}
	return seeds
}

// FuzzMessagePairs checks AppendMessagePairs against encoding/json decoding
// into []int. For any bytes the parser errors, leaving dst as it was, or
// returns exactly the oracle's values: an even count of non-negative ints,
// which Phase.MarshalJSON renders as the oracle's canonical bytes. It may be
// stricter than the oracle only where the pair form is: a null or a minus
// sign inside the array. And it accepts the canonical bytes of every even
// count of non-negative ints the oracle decodes.
func FuzzMessagePairs(f *testing.F) {
	for _, seed := range goldenPairSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range []string{
		"null", "[]", " [ 0 , 1 ] ", "[-1,2]", "[-0,1]", "[1.5,2]", "[1e2,3]", "[01,2]",
		"[9223372036854775808,0]", "[1,2,3]", "[1,2] x", "[null,1]",
	} {
		f.Add([]byte(seed))
	}
	prefix := []Message{{7, 8}}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []int
		oerr := json.Unmarshal(data, &want)
		got, err := AppendMessagePairs(slices.Clip(prefix), data)
		if got[0] != prefix[0] {
			t.Fatalf("%q: dst's first message became %v", data, got[0])
		}
		got = got[1:]
		pairForm := oerr == nil && len(want)%2 == 0 && !slices.ContainsFunc(want, func(v int) bool { return v < 0 })
		if err != nil {
			if len(got) != 0 {
				t.Fatalf("%q: error %v, but dst grew by %v", data, err, got)
			}
			if pairForm && !bytes.Contains(data, []byte("null")) && !bytes.Contains(data, []byte("-")) {
				t.Fatalf("%q: rejected (%v), but encoding/json decodes it as %v", data, err, want)
			}
		} else {
			if !pairForm {
				t.Fatalf("%q: accepted as %v, but encoding/json gives %v, %v", data, got, want, oerr)
			}
			if !slices.Equal(flatInts(got), want) {
				t.Fatalf("%q: parsed %v, encoding/json %v", data, flatInts(got), want)
			}
		}
		if !pairForm || want == nil {
			return
		}
		canon, merr := json.Marshal(want)
		if merr != nil {
			t.Fatal(merr)
		}
		back, err := AppendMessagePairs(nil, canon)
		if err != nil || !slices.Equal(flatInts(back), want) {
			t.Fatalf("canonical %s: got %v, %v", canon, back, err)
		}
		if mine, _ := Phase(back).MarshalJSON(); !bytes.Equal(mine, canon) {
			t.Fatalf("%v renders as %s, encoding/json as %s", back, mine, canon)
		}
	})
}
