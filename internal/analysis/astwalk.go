package analysis

import (
	"go/ast"
	"go/token"
)

// Shared syntax-tree plumbing for the analyzers: enclosing-node paths,
// parent maps, function iteration, root-identifier extraction, and the
// cold-path test used by noalloc and copycount.

// enclosingPath returns the chain of nodes containing pos, outermost first.
// The final element is the innermost node whose source range covers pos.
func enclosingPath(root ast.Node, pos token.Pos) []ast.Node {
	var path []ast.Node
	for {
		var next ast.Node
		ast.Inspect(root, func(n ast.Node) bool {
			if n == nil || next != nil {
				return false
			}
			if n == root {
				return true
			}
			if n.Pos() <= pos && pos < n.End() {
				next = n
			}
			return false
		})
		path = append(path, root)
		if next == nil {
			return path
		}
		root = next
	}
}

// buildParentsOf maps each node under root to its parent.
func buildParentsOf(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// funcBody is one function-like unit of analysis: a declared function or a
// function literal, with its body.
type funcBody struct {
	// node is the *ast.FuncDecl or *ast.FuncLit.
	node ast.Node
	body *ast.BlockStmt
	// doc is the declaration's doc comment (nil for literals).
	doc *ast.CommentGroup
}

// functionsIn yields every function and function literal in the file.
func functionsIn(f *ast.File, visit func(fb funcBody)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(funcBody{node: n, body: n.Body, doc: n.Doc})
			}
		case *ast.FuncLit:
			visit(funcBody{node: n, body: n.Body})
		}
		return true
	})
}

// rootIdent returns the leftmost identifier of an lvalue-like expression
// (x, x.f, x[i], *x, (x)), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// terminates reports whether stmt unconditionally leaves the enclosing
// function: a return, or a panic call.
func terminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// onColdPath reports whether the node at pos sits inside a conditional
// block that ends by leaving the function — the shape of an early-exit
// error path. Loop bodies never count as cold, and neither does the
// function's own body. path must be an enclosingPath ending at or inside
// the node of interest.
func onColdPath(path []ast.Node) bool {
	for i := len(path) - 1; i >= 1; i-- {
		var list []ast.Stmt
		switch b := path[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			// The innermost enclosing function: nothing beyond it counts.
			return false
		case *ast.BlockStmt:
			// Only blocks hanging off a conditional are cold candidates;
			// for/range bodies are by definition the hot part.
			switch path[i-1].(type) {
			case *ast.IfStmt:
				list = b.List
			case *ast.ForStmt, *ast.RangeStmt:
				continue
			default:
				continue
			}
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			continue
		}
		if n := len(list); n > 0 && terminates(list[n-1]) {
			return true
		}
	}
	return false
}
