package analysis

import (
	"bytes"
	"testing"
)

// TestFactsRoundTrip proves the vetx payload survives encode/decode with
// nothing lost: the serialized form is the cross-package contract.
func TestFactsRoundTrip(t *testing.T) {
	fs := NewFactSet()
	fs.funcs["pkg.helper"] = &FuncFact{
		Params: []ParamFact{
			{Index: ReceiverIndex, Releases: true},
			{Index: 1, Copied: true, Consumed: true},
		},
		ReturnsParams: []int{0},
	}
	fs.funcs["pkg.T.method"] = &FuncFact{
		Params: []ParamFact{{Index: 0, Escapes: true}},
	}

	data, err := fs.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, ok, err := DecodeFacts(data)
	if err != nil || !ok {
		t.Fatalf("decode: ok=%v err=%v", ok, err)
	}
	for key, want := range fs.funcs {
		g := got.Func(key)
		if g == nil {
			t.Fatalf("decoded facts lost %q", key)
		}
		if !g.equal(want) {
			t.Errorf("fact %q changed across the round trip: %+v != %+v", key, g, want)
		}
	}
	if g := got.Func("pkg.helper"); !g.Param(ReceiverIndex).Releases || !g.returnsParam(0) {
		t.Errorf("accessor mismatch after decode: %+v", g)
	}

	// Byte stability: encoding twice yields identical bytes (cmd/go caches
	// the payload; a nondeterministic file would thrash the vet cache).
	again, _ := fs.Encode()
	if !bytes.Equal(data, again) {
		t.Errorf("Encode is not deterministic")
	}

	// A payload from a build that still summarized lock state carries acq
	// and edges keys: they are skipped, and the parameter bits survive.
	old := factsMagic + `{"pkg.helper":{"params":[{"i":-1,"rel":true},{"i":1,"cp":true,"cons":true}],"ret":[0],` +
		`"acq":[{"c":"pkg.mu","m":"w"}],"edges":[{"f":"pkg.mu","fm":"w","t":"pkg.T.mu","tm":"r","fn":"pkg.helper","p":"a.go:10","hp":"a.go:8"}]}}` + "\n"
	legacy, ok, err := DecodeFacts([]byte(old))
	if err != nil || !ok {
		t.Fatalf("decode of a lock-carrying payload: ok=%v err=%v", ok, err)
	}
	if g := legacy.Func("pkg.helper"); g == nil || !g.equal(fs.funcs["pkg.helper"]) {
		t.Errorf("lock-carrying payload decoded to %+v, want %+v", g, fs.funcs["pkg.helper"])
	}
}

// TestDecodeFactsRejectsMarker proves foreign vetx payloads (the pre-facts
// marker, other tools' files) are skipped, not fatal.
func TestDecodeFactsRejectsMarker(t *testing.T) {
	for _, payload := range [][]byte{
		vetxMarker,
		[]byte(""),
		[]byte("something else entirely"),
	} {
		if _, ok, err := DecodeFacts(payload); ok || err != nil {
			t.Errorf("DecodeFacts(%q) = ok=%v err=%v, want ok=false err=nil", payload, ok, err)
		}
	}
	// A truncated facts file is an error, not silence: it means cache
	// corruption, and pretending it is empty would hide real findings.
	if _, ok, err := DecodeFacts([]byte(factsMagic + "{bad")); !ok || err == nil {
		t.Errorf("corrupt facts file: ok=%v err=%v, want ok=true with error", ok, err)
	}
}
