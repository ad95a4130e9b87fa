package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Copycount is the static face of the zero-copy data path. A function (or
// function literal) annotated
//
//	//aapc:nocopy [reason]
//
// — the comment in a declaration's doc block, or on the line directly above
// a literal — must move payload by reference, not by value. Flagged
// constructs:
//
//   - copy(dst, src) where dst is a byte slice (the canonical payload
//     copy, whether from another slice or from a string);
//   - append(x, src...) spreading a byte slice into another (the disguised
//     copy; appending a []byte into a [][]byte batch — the borrow idiom —
//     is untouched);
//   - string <-> []byte conversions, which copy the bytes.
//
// Copies on cold paths — inside a conditional block that ends by leaving
// the function — are exempt, matching noalloc: overflow and error fallbacks
// are allowed to stage. Deliberate hot-path copies (the small-message
// skip-copy fast path, ring staging) are annotated //aapc:allow copycount
// with the reason.
var Copycount = &Analyzer{
	Name:      "copycount",
	Doc:       "rejects payload byte copies in functions annotated //aapc:nocopy",
	SkipTests: true,
	Run:       runCopycount,
}

const nocopyMarker = "aapc:nocopy"

// nocopyComments returns the line numbers of every //aapc:nocopy comment in
// the file.
func nocopyComments(pass *Pass, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, nocopyMarker) {
				lines[pass.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

func runCopycount(pass *Pass) error {
	for _, file := range pass.Files {
		marks := nocopyComments(pass, file)
		if len(marks) == 0 {
			continue
		}
		functionsIn(file, func(fb funcBody) {
			if !isNocopyAnnotated(pass, fb, marks) {
				return
			}
			checkCopycount(pass, fb)
		})
	}
	return nil
}

// isNocopyAnnotated matches the annotation to a function: in the doc
// comment of a declaration, or on the line directly above (or of) a
// function literal.
func isNocopyAnnotated(pass *Pass, fb funcBody, marks map[int]bool) bool {
	if fb.doc != nil {
		for _, c := range fb.doc.List {
			if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), nocopyMarker) {
				return true
			}
		}
	}
	if _, ok := fb.node.(*ast.FuncLit); ok {
		line := pass.Fset.Position(fb.node.Pos()).Line
		return marks[line] || marks[line-1]
	}
	return false
}

// checkCopycount walks the annotated function's body, including nested
// literals, and reports payload copies on hot paths.
func checkCopycount(pass *Pass, fb funcBody) {
	ast.Inspect(fb.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok {
			checkCopycountCall(pass, fb, call)
		}
		return true
	})
}

func checkCopycountCall(pass *Pass, fb funcBody, call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "copy":
				if len(call.Args) == 2 && isByteSlice(pass.TypeOf(call.Args[0])) {
					reportCopy(pass, fb, call.Pos(), "copy moves payload bytes")
				}
			case "append":
				if call.Ellipsis.IsValid() && len(call.Args) == 2 &&
					isByteSlice(pass.TypeOf(call.Args[0])) && isByteSlice(pass.TypeOf(call.Args[1])) {
					reportCopy(pass, fb, call.Pos(), "append(x, src...) moves payload bytes")
				}
			}
			return
		}
	}
	// String <-> byte slice conversions copy their contents.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 &&
		isAllocatingConversion(pass.TypeOf(call.Fun), pass.TypeOf(call.Args[0])) {
		reportCopy(pass, fb, call.Pos(), "string/byte-slice conversion moves payload bytes")
	}
}

// reportCopy files a diagnostic unless the position is on a cold
// (early-exit) path, where staging fallbacks are sanctioned.
func reportCopy(pass *Pass, fb funcBody, pos token.Pos, what string) {
	if onColdPath(enclosingPath(fb.node, pos)) {
		return
	}
	pass.Reportf(pos, "%s in a //aapc:nocopy function", what)
}

// isByteSlice reports whether t is a []byte (or named []byte).
func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}
