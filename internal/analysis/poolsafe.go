package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Poolsafe enforces the payload-pool lifecycle: once a buffer (or pooled
// object) has been handed back with Put/put/Release/release on a pool-like
// receiver, the releasing function must not touch it again — not read it,
// not release it twice, not capture it in a closure — unless it is first
// reassigned. The transport's correctness depends on this: a released
// []byte is re-sliced and handed to another stream's read loop, so a stale
// use is a cross-message data race that no test reliably reproduces.
//
// The check is block-scoped: it flags uses after the release inside the
// release's own block, including nested statements and function literals
// (which would retain the buffer past the release point). Reassigning the
// released expression or its root variable ends tracking, releases on one
// loop iteration are not matched against uses on the next, and a release
// inside a helper function is not seen at the helper's call sites.
var Poolsafe = &Analyzer{
	Name: "poolsafe",
	Doc:  "flags use of a pooled buffer after it was released back to its pool",
	Run:  runPoolsafe,
}

// isPoolRelease reports whether call returns a value to a pool, and if so
// which expression was released. Recognized shapes:
//
//	pool.put(x), pool.Put(x)      -> x   (receiver is a pool or freelist type)
//	x.Release(), x.Recycle()      -> x
func isPoolRelease(pass *Pass, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	name := sel.Sel.Name
	switch name {
	case "put", "Put":
		if len(call.Args) != 1 {
			return nil, false
		}
		if !isPoolType(pass.TypeOf(sel.X)) {
			return nil, false
		}
		return call.Args[0], true
	case "release", "Release", "Recycle":
		if len(call.Args) != 0 {
			return nil, false
		}
		return sel.X, true
	}
	return nil, false
}

// isPoolType reports whether t names a pool: a defined type whose name
// contains "pool" or "freelist" (bufPool, sync.Pool, mpi.Freelist[T], ...).
func isPoolType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := strings.ToLower(named.Obj().Name())
	return strings.Contains(name, "pool") || strings.Contains(name, "freelist")
}

func runPoolsafe(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if released, ok := isPoolRelease(pass, call); ok {
				checkAfterRelease(pass, file, call, released)
			}
			return true
		})
	}
	return nil
}

// checkAfterRelease walks the statements that lexically follow the release
// inside its enclosing block and reports reads of the released expression.
func checkAfterRelease(pass *Pass, file *ast.File, call *ast.CallExpr, released ast.Expr) {
	root := rootIdent(released)
	if root == nil {
		return // released a temporary; nothing to track
	}
	rootObj := pass.ObjectOf(root)
	if rootObj == nil {
		return
	}
	relStr := types.ExprString(released)
	relLine := pass.Fset.Position(call.Pos()).Line

	path := enclosingPath(file, call.Pos())
	// Find the innermost statement list containing the release call and the
	// index of the statement holding it.
	var list []ast.Stmt
	holder := -1
	for i := len(path) - 1; i >= 0 && holder < 0; i-- {
		switch b := path[i].(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			continue
		}
		for j, s := range list {
			if s.Pos() <= call.Pos() && call.Pos() < s.End() {
				holder = j
				break
			}
		}
		if holder < 0 {
			list = nil
		}
	}
	if holder < 0 {
		return
	}

	// First: a second use inside the same statement as the release, after
	// the call (e.g. pool.put(b); pool.put(b) collapsed by a comma is not
	// syntax, but b reused in the same expression is possible).
	live := true
	for _, s := range list[holder+1:] {
		if !live {
			break
		}
		ast.Inspect(s, func(n ast.Node) bool {
			if !live || n == nil {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				// A reassignment of the released expression (or its root)
				// ends tracking; but inspect the RHS first — it reads the
				// old value.
				for _, rhs := range n.Rhs {
					inspectReleasedUse(pass, rhs, relStr, rootObj, relLine, &live)
				}
				if !live {
					return false
				}
				for _, lhs := range n.Lhs {
					if exprMatches(pass, lhs, relStr, rootObj) || isRootRewrite(pass, lhs, rootObj) {
						live = false
						return false
					}
				}
				return false
			case ast.Expr:
				inspectReleasedUse(pass, n, relStr, rootObj, relLine, &live)
				return false
			}
			return true
		})
	}
}

// inspectReleasedUse reports reads of the released expression inside e.
func inspectReleasedUse(pass *Pass, e ast.Expr, relStr string, rootObj types.Object, relLine int, live *bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if !*live {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if exprMatches(pass, expr, relStr, rootObj) {
			pass.Reportf(expr.Pos(), "use of %s after it was released to the pool at line %d",
				relStr, relLine)
			*live = false
			return false
		}
		return true
	})
}

// exprMatches reports whether e denotes the released expression: same
// printed form and same root object.
func exprMatches(pass *Pass, e ast.Expr, relStr string, rootObj types.Object) bool {
	if types.ExprString(e) != relStr {
		return false
	}
	r := rootIdent(e)
	return r != nil && pass.ObjectOf(r) == rootObj
}

// isRootRewrite reports whether lhs reassigns the root variable itself
// (x = ...), which also invalidates any released x.f / x[i] tracking.
func isRootRewrite(pass *Pass, lhs ast.Expr, rootObj types.Object) bool {
	id, ok := lhs.(*ast.Ident)
	return ok && pass.ObjectOf(id) == rootObj
}
