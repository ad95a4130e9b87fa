package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file defines the interprocedural fact model: per-function summaries
// computed bottom-up over the call graph (interproc.go) and carried across
// package boundaries through the unit checker's vetx files (unitchecker.go),
// the same channel go/analysis uses for its facts.
//
// A fact describes how a function treats its parameters, in exactly the
// vocabulary the three fact-driven analyzers consume:
//
//   - poolsafe asks "does this callee release its argument back to a pool?"
//     and "does its result alias one of its arguments?";
//   - copycount asks "does this callee copy its argument's payload bytes on
//     its own hot path?";
//   - waitcheck asks "does this callee consume (wait, retain, or escape) the
//     request I hand it?".
//
// Facts are an over- or under-approximation in exactly the direction each
// consumer needs to avoid false positives: Releases and Copies are "on some
// path / on the hot path" (used to *add* findings, so they are computed from
// direct evidence only), while Consumed and Escapes are generous "on any
// plausible path" (used to *suppress* findings).

// ReceiverIndex is the parameter index of a method receiver in a ParamFact.
const ReceiverIndex = -1

// ParamFact describes what a function does with one of its parameters.
// Index is the 0-based parameter position; ReceiverIndex (-1) is the method
// receiver.
type ParamFact struct {
	Index int `json:"i"`
	// Releases: the parameter is handed back to a pool (pool.put(p),
	// p.Release(), or a callee that releases it) on some path.
	Releases bool `json:"rel,omitempty"`
	// Escapes: the parameter is stored into retained state — a field, index,
	// global, channel, composite literal, another escaping callee — or its
	// address is taken or it is captured by a function literal.
	Escapes bool `json:"esc,omitempty"`
	// Copied: the parameter's payload bytes are copied (copy, append-spread,
	// string conversion, or a copying callee) on the function's hot path.
	Copied bool `json:"cp,omitempty"`
	// Consumed: the parameter is consumed in the waitcheck sense — a method
	// is called on it, it is returned, stored, ranged over, sent, assigned
	// onward, or passed to a callee that consumes it. A request passed to a
	// function whose fact lacks Consumed (and Escapes and Releases) never
	// reaches a Wait.
	Consumed bool `json:"cons,omitempty"`
}

// FuncFact is the summary of one function.
type FuncFact struct {
	// Params holds one entry per parameter with at least one bit set.
	Params []ParamFact `json:"params,omitempty"`
	// ReturnsParams lists parameter indices that some result value may
	// alias (return p, return p[4:], return &p[0]...): the caller's handle
	// to pooled memory survives through the call.
	ReturnsParams []int `json:"ret,omitempty"`
}

// Param returns the fact for parameter index i (ReceiverIndex for the
// receiver), or nil.
func (f *FuncFact) Param(i int) *ParamFact {
	if f == nil {
		return nil
	}
	for k := range f.Params {
		if f.Params[k].Index == i {
			return &f.Params[k]
		}
	}
	return nil
}

// returnsParam reports whether some result may alias parameter i.
func (f *FuncFact) returnsParam(i int) bool {
	if f == nil {
		return false
	}
	for _, r := range f.ReturnsParams {
		if r == i {
			return true
		}
	}
	return false
}

// normalize sorts every list so serialized facts are byte-stable.
func (f *FuncFact) normalize() {
	sort.Slice(f.Params, func(i, j int) bool { return f.Params[i].Index < f.Params[j].Index })
	sort.Ints(f.ReturnsParams)
}

// equal reports whether two normalized facts carry the same information.
func (f *FuncFact) equal(g *FuncFact) bool {
	if len(f.Params) != len(g.Params) || len(f.ReturnsParams) != len(g.ReturnsParams) {
		return false
	}
	for i := range f.Params {
		if f.Params[i] != g.Params[i] {
			return false
		}
	}
	for i := range f.ReturnsParams {
		if f.ReturnsParams[i] != g.ReturnsParams[i] {
			return false
		}
	}
	return true
}

// FactSet is the fact universe one pass sees: everything imported from
// dependency packages plus everything computed for the current package.
type FactSet struct {
	funcs map[string]*FuncFact
}

// NewFactSet returns an empty fact universe.
func NewFactSet() *FactSet {
	return &FactSet{funcs: make(map[string]*FuncFact)}
}

// Func returns the fact recorded for the qualified function key, or nil.
func (fs *FactSet) Func(key string) *FuncFact {
	if fs == nil {
		return nil
	}
	return fs.funcs[key]
}

// Merge copies every fact of other into fs (imported facts never collide
// with local ones: keys carry the package path).
func (fs *FactSet) Merge(other *FactSet) {
	if other == nil {
		return
	}
	for k, v := range other.funcs {
		fs.funcs[k] = v
	}
}

// FuncKey builds the qualified fact key of a function object:
// pkgpath.Name for package functions, pkgpath.Type.Name for methods.
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(fn.Pkg().Path())
	b.WriteByte('.')
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := namedTypeName(sig.Recv().Type()); name != "" {
			b.WriteString(name)
			b.WriteByte('.')
		}
	}
	b.WriteString(fn.Name())
	return b.String()
}

// namedTypeName returns the bare name of a (possibly pointer-to) named
// type, or "".
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// CalleeFunc resolves the function object a call statically dispatches to,
// or nil (builtins, conversions, function values, interface methods of
// unknown dynamic type resolve to the interface method — still useful as a
// key miss).
func CalleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// CallArgs maps fact parameter indices to the argument expressions of a
// call: the method receiver (if the call is a selector method call) under
// ReceiverIndex, positional arguments under 0..n-1. Arguments feeding a
// variadic slot are omitted — facts cannot name them individually.
func CallArgs(pass *Pass, call *ast.CallExpr, fn *types.Func) map[int]ast.Expr {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	args := make(map[int]ast.Expr, len(call.Args)+1)
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args[ReceiverIndex] = sel.X
		}
	}
	np := sig.Params().Len()
	for i, a := range call.Args {
		if i >= np || (sig.Variadic() && i >= np-1) {
			break
		}
		args[i] = a
	}
	return args
}

// factsMagic is the first line of a vetx facts file written by aapcvet.
// Files not starting with it (including the pre-facts "no facts" marker)
// are ignored on import, so mixed-version caches degrade gracefully. The
// version stays v1 when a fact field goes: -V=full fingerprints the binary
// (selfHash), so cmd/go never feeds one tool build the payloads of another,
// and a stray older payload still decodes because unknown keys are skipped.
const factsMagic = "aapcvet-facts v1\n"

// Encode serializes the fact set (magic line + JSON with sorted keys).
func (fs *FactSet) Encode() ([]byte, error) {
	keys := make([]string, 0, len(fs.funcs))
	for k := range fs.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Build an ordered JSON object by hand so the output is byte-stable
	// (encoding/json sorts map keys too, but being explicit keeps the
	// normalize() requirement visible).
	var b strings.Builder
	b.WriteString(factsMagic)
	b.WriteString("{")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(",")
		}
		name, _ := json.Marshal(k)
		val, err := json.Marshal(fs.funcs[k])
		if err != nil {
			return nil, err
		}
		b.Write(name)
		b.WriteString(":")
		b.Write(val)
	}
	b.WriteString("}\n")
	return []byte(b.String()), nil
}

// DecodeFacts parses a vetx facts file; ok is false when the payload is not
// an aapcvet facts file.
func DecodeFacts(data []byte) (*FactSet, bool, error) {
	s := string(data)
	if !strings.HasPrefix(s, factsMagic) {
		return nil, false, nil
	}
	var funcs map[string]*FuncFact
	if err := json.Unmarshal([]byte(strings.TrimPrefix(s, factsMagic)), &funcs); err != nil {
		return nil, true, fmt.Errorf("decoding facts: %w", err)
	}
	fs := NewFactSet()
	for k, v := range funcs {
		fs.funcs[k] = v
	}
	return fs, true, nil
}
