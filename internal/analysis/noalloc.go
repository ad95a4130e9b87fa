package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Noalloc is the static face of the repo's allocation gates. A function (or
// function literal) annotated
//
//	//aapc:noalloc [reason]
//
// — the comment in a declaration's doc block, or on the line directly above
// a literal — is checked for constructs that allocate in the steady state:
//
//   - make, new, slice/map literals, &T{...} composites;
//   - fmt.* / errors.* calls, string concatenation and string<->[]byte
//     conversions;
//   - boxing a non-pointer-shaped value into an interface argument;
//   - go statements and escaping function literals (a literal that is only
//     assigned to a local and called directly, like a loop-body helper, is
//     allowed);
//   - append that does not grow its own slice in place
//     (x = append(x, ...) is the sanctioned amortized pattern).
//
// Allocations on cold paths — inside a conditional block that ends by
// leaving the function, the shape of error handling — are exempt: the
// runtime gates measure the success path, and so does this analyzer.
// Deliberate amortized growth (pool-miss make, chunk growth) is annotated
// //aapc:allow noalloc on the allocating line.
var Noalloc = &Analyzer{
	Name:      "noalloc",
	Doc:       "rejects allocating constructs in functions annotated //aapc:noalloc",
	SkipTests: true,
	Run:       runNoalloc,
}

const noallocMarker = "aapc:noalloc"

// noallocComments returns the line numbers of every //aapc:noalloc comment
// in the file.
func noallocComments(pass *Pass, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, noallocMarker) {
				lines[pass.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

func runNoalloc(pass *Pass) error {
	for _, file := range pass.Files {
		marks := noallocComments(pass, file)
		if len(marks) == 0 {
			continue
		}
		functionsIn(file, func(fb funcBody) {
			if !isNoallocAnnotated(pass, fb, marks) {
				return
			}
			checkNoalloc(pass, fb)
		})
	}
	return nil
}

// isNoallocAnnotated matches the annotation to a function: in the doc
// comment of a declaration, or on the line directly above (or of) a
// function literal — which covers the `return func(...)` closure shape.
func isNoallocAnnotated(pass *Pass, fb funcBody, marks map[int]bool) bool {
	if fb.doc != nil {
		for _, c := range fb.doc.List {
			if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), noallocMarker) {
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

// checkNoalloc walks the annotated function's body, including nested
// helper literals, and reports allocating constructs on hot paths.
func checkNoalloc(pass *Pass, fb funcBody) {
	parents := buildParentsOf(fb.body)
	// localOnlyLits are function literals assigned to a local variable
	// whose every use is a direct call — the compiler keeps those on the
	// stack, so they are allowed and their bodies are still checked.
	localOnlyLits := map[*ast.FuncLit]bool{}
	ast.Inspect(fb.body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return true
		}
		lit, ok := asg.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		id, ok := asg.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.ObjectOf(id); obj != nil && onlyCalled(pass, fb.body, obj, id) {
			localOnlyLits[lit] = true
		}
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n == fb.node {
				return true
			}
			if !localOnlyLits[n] && !noallocCold(pass, fb, n.Pos()) {
				pass.Reportf(n.Pos(), "function literal may escape and allocate in a //aapc:noalloc function")
			}
			return true // still check the literal's body
		case *ast.GoStmt:
			report(pass, fb, n.Pos(), "go statement allocates a goroutine")
			return true
		case *ast.CallExpr:
			checkNoallocCall(pass, fb, parents, n)
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(pass, fb, n.Pos(), "&composite literal allocates")
				}
			}
			return true
		case *ast.CompositeLit:
			checkCompositeLit(pass, fb, n)
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := pass.TypeOf(n); t != nil && isStringType(t) {
					report(pass, fb, n.Pos(), "string concatenation allocates")
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(fb.body, walk)
}

// report files a diagnostic unless the position is on a cold (early-exit)
// path.
func report(pass *Pass, fb funcBody, pos token.Pos, format string, args ...any) {
	if noallocCold(pass, fb, pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}

func noallocCold(pass *Pass, fb funcBody, pos token.Pos) bool {
	return onColdPath(enclosingPath(fb.node, pos))
}

// onlyCalled reports whether every use of obj within scope is as the
// function of a call.
func onlyCalled(pass *Pass, scope ast.Node, obj types.Object, def *ast.Ident) bool {
	ok := true
	ast.Inspect(scope, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if isCall {
			if id, isID := call.Fun.(*ast.Ident); isID && pass.ObjectOf(id) == obj {
				// Direct call: skip the Fun child so the generic ident
				// check below doesn't see it; args still inspected.
				for _, a := range call.Args {
					ast.Inspect(a, func(m ast.Node) bool {
						if id, isID := m.(*ast.Ident); isID && id != def && pass.ObjectOf(id) == obj {
							ok = false
						}
						return ok
					})
				}
				return false
			}
		}
		if id, isID := n.(*ast.Ident); isID && id != def && pass.ObjectOf(id) == obj {
			ok = false
		}
		return ok
	})
	return ok
}

func checkNoallocCall(pass *Pass, fb funcBody, parents map[ast.Node]ast.Node, call *ast.CallExpr) {
	// Builtins and conversions.
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := pass.ObjectOf(fun).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(pass, fb, call.Pos(), "make allocates")
				return
			case "new":
				report(pass, fb, call.Pos(), "new allocates")
				return
			case "append":
				if !isSelfAppend(pass, parents, call) {
					report(pass, fb, call.Pos(), "append outside the x = append(x, ...) self-growth pattern allocates")
				}
				return
			}
		}
	}
	// String <-> byte/rune conversions.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := pass.TypeOf(call.Fun), pass.TypeOf(call.Args[0])
		if isAllocatingConversion(to, from) {
			report(pass, fb, call.Pos(), "conversion between string and byte/rune slice allocates")
		}
		return
	}
	// Calls into always-allocating packages.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pass.ObjectOf(sel.Sel).(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "fmt", "errors":
				report(pass, fb, call.Pos(), "%s.%s allocates", fn.Pkg().Name(), fn.Name())
				return
			}
		}
	}
	// Interface boxing of arguments.
	checkBoxing(pass, fb, call)
}

// isSelfAppend recognizes the sanctioned amortized pattern
// x = append(x, ...), including field and index targets
// (b.iovecs = append(b.iovecs, ...)).
func isSelfAppend(pass *Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	asg, ok := parents[call].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || asg.Rhs[0] != ast.Expr(call) {
		return false
	}
	lhs, arg := asg.Lhs[0], call.Args[0]
	if types.ExprString(lhs) != types.ExprString(arg) {
		return false
	}
	lr, ar := rootIdent(lhs), rootIdent(arg)
	return lr != nil && ar != nil && pass.ObjectOf(lr) == pass.ObjectOf(ar)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isAllocatingConversion(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	toStr, fromStr := isStringType(to), isStringType(from)
	toSlice := isByteOrRuneSlice(to)
	fromSlice := isByteOrRuneSlice(from)
	return (toStr && fromSlice) || (toSlice && fromStr)
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// checkBoxing flags arguments whose concrete, non-pointer-shaped value is
// implicitly converted to an interface parameter — the hidden allocation
// behind fmt-style APIs.
func checkBoxing(pass *Pass, fb funcBody, call *ast.CallExpr) {
	sigT := pass.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() == 0 {
				return
			}
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue // interface to interface: no box
		}
		if isPointerShaped(at) {
			continue // pointers box without allocating
		}
		if tv, ok := pass.Info.Types[arg]; ok && (tv.Value != nil || tv.IsNil()) {
			continue // untyped constants often intern (and signal intent); nil is no value at all
		}
		report(pass, fb, arg.Pos(), "boxing %s into an interface argument allocates", at.String())
	}
}

func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func checkCompositeLit(pass *Pass, fb funcBody, lit *ast.CompositeLit) {
	t := pass.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		report(pass, fb, lit.Pos(), "slice literal allocates")
	case *types.Map:
		report(pass, fb, lit.Pos(), "map literal allocates")
	}
	// Struct/array literals are values; they only allocate via &T{...},
	// which is flagged where the address is taken.
}
