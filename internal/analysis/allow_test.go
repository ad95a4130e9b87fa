package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

func TestParseAllowNames(t *testing.T) {
	cases := []struct {
		rest string
		want []string
	}{
		{" spscsafe", []string{"spscsafe"}},
		{" determinism spscsafe the producer has exited", []string{"determinism", "spscsafe"}},
		{" determinism results are keyed by job index", []string{"determinism"}},
		{" spscsafe (read after the join)", []string{"spscsafe"}},
		{" noalloc a retired pass names nothing", nil},
		{"", nil},
		{" Not-An-Analyzer reason", nil},
	}
	for _, c := range cases {
		if got := parseAllowNames(c.rest); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseAllowNames(%q) = %v, want %v", c.rest, got, c.want)
		}
	}
}

func TestAllowIndexLines(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //aapc:allow spscsafe same line
	//aapc:allow determinism line above
	_ = 2
	_ = 3
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := buildAllowIndex(fset, []*ast.File{f})
	at := func(line int) token.Position {
		return token.Position{Filename: "p.go", Line: line}
	}
	if !idx.allows(at(4), "spscsafe") {
		t.Error("same-line suppression not honored")
	}
	if !idx.allows(at(6), "determinism") {
		t.Error("line-above suppression not honored")
	}
	if idx.allows(at(7), "determinism") {
		t.Error("suppression leaked past one line")
	}
	if idx.allows(at(4), "determinism") {
		t.Error("suppression applied to the wrong analyzer")
	}
}
