package analysis

import (
	"go/ast"
	"go/types"
)

// Waitcheck enforces the request lifecycle of the mpi layer: every request
// returned by Isend/Irecv must reach a Wait (directly, through
// WaitAll-style helpers, or by escaping to a caller) on every path out of
// the acquiring function. An unwaited request is a goroutine or matcher
// entry that outlives the collective — the static complement of the
// runtime goroutine-leak check.
//
// Recognized consumptions of a request (or of the slice it was appended
// to): calling any method on it, passing it to any function, returning it,
// ranging over it, storing it into a field, index, channel, or composite
// literal. Self-growth (reqs = append(reqs, ...)) is not a consumption.
//
// Two findings are produced:
//
//   - a request that is discarded or never consumed at all;
//   - a return statement between the acquisition and its first consumption
//     — the classic leak-on-error-path. Deliberate abandonment (e.g. a
//     timed-out collective whose scratch is left to the GC) is annotated
//     //aapc:allow waitcheck with the reason.
//
// A callee handed the request is assumed to take responsibility for it: the
// pass does not look inside the callee.
var Waitcheck = &Analyzer{
	Name: "waitcheck",
	Doc:  "flags Isend/Irecv requests that can escape without reaching a Wait",
	Run:  runWaitcheck,
}

// acquisitionName returns the callee name when call starts a request — the
// Comm methods c.Isend(op)/c.Irecv(op) or the mpi package helpers
// Isend/Irecv (qualified or, inside package mpi, bare) — and "" otherwise.
func acquisitionName(call *ast.CallExpr) string {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	}
	switch name {
	case "Isend", "Irecv":
		return name
	}
	return ""
}

// isRequestAcquisition reports whether call starts a request: an
// acquisition name returning a waitable value (its type has a Wait method).
func isRequestAcquisition(pass *Pass, call *ast.CallExpr) bool {
	if acquisitionName(call) == "" {
		return false
	}
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, "Wait")
	_, isFunc := obj.(*types.Func)
	return isFunc
}

func runWaitcheck(pass *Pass) error {
	for _, file := range pass.Files {
		parents := buildParentsOf(file)
		// tracked dedupes variables holding several acquisitions (one
		// append can carry both an Isend and an Irecv).
		tracked := make(map[types.Object]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isRequestAcquisition(pass, call) {
				return true
			}
			checkAcquisition(pass, file, parents, call, tracked)
			return true
		})
	}
	return nil
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

// pathFromParents reconstructs the enclosing chain (outermost first).
func pathFromParents(parents map[ast.Node]ast.Node, n ast.Node) []ast.Node {
	var rev []ast.Node
	for n != nil {
		rev = append(rev, n)
		n = parents[n]
	}
	path := make([]ast.Node, len(rev))
	for i, x := range rev {
		path[len(rev)-1-i] = x
	}
	return path
}

// checkAcquisition classifies what happens to the request produced by call.
func checkAcquisition(pass *Pass, file *ast.File, parents map[ast.Node]ast.Node, call *ast.CallExpr, tracked map[types.Object]bool) {
	parent := parents[call]
	// Unwrap parens.
	for {
		if p, ok := parent.(*ast.ParenExpr); ok {
			parent = parents[p]
			continue
		}
		break
	}
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// Chained: c.Isend(op).Wait(d) — consumed immediately.
		return
	case *ast.CallExpr:
		// Passed straight to a function, which takes responsibility.
		// append(reqs, acq) transfers ownership to the slice: track the
		// slice variable instead.
		if isBuiltinAppend(pass, p) && len(p.Args) > 0 && p.Args[0] != call {
			if tgt := appendTarget(pass, parents, p); tgt != nil && !tracked[tgt] {
				tracked[tgt] = true
				trackVariable(pass, file, parents, call, tgt)
			}
		}
		return
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		return // escapes to the caller / a structure / a channel
	case *ast.AssignStmt:
		// _ = acq discards; x := acq (or x = acq) tracks x.
		for i, rhs := range p.Rhs {
			if rhs != call || i >= len(p.Lhs) {
				continue
			}
			lhs := p.Lhs[i]
			if id, ok := lhs.(*ast.Ident); ok {
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "result of %s is discarded; the request is never waited", callName(call))
					return
				}
				if obj := pass.ObjectOf(id); obj != nil && !tracked[obj] {
					tracked[obj] = true
					trackVariable(pass, file, parents, call, obj)
					return
				}
			}
			// Stored into a field/index: escapes, assumed managed.
			return
		}
		return
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "result of %s is discarded; the request is never waited", callName(call))
		return
	default:
		return
	}
}

func callName(call *ast.CallExpr) string { return acquisitionName(call) }

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendTarget returns the variable that receives the result of an append
// whose element is a request: reqs = append(reqs, acq) -> reqs.
func appendTarget(pass *Pass, parents map[ast.Node]ast.Node, appendCall *ast.CallExpr) types.Object {
	asg, ok := parents[appendCall].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 {
		return nil
	}
	id, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.ObjectOf(id)
}

// trackVariable verifies that obj (a request, or a slice of requests) is
// consumed, and that no return statement escapes the function between the
// acquisition and a consumption that covers it.
func trackVariable(pass *Pass, file *ast.File, parents map[ast.Node]ast.Node, acq *ast.CallExpr, obj types.Object) {
	acqPath := pathFromParents(parents, acq)
	fn := innermostFunc(acqPath)
	if fn == nil {
		return
	}

	// Gather consuming uses and return statements of the same function.
	var consumptions []ast.Stmt
	var returns []*ast.ReturnStmt
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if innermostFunc(pathFromParents(parents, n)) == fn {
				returns = append(returns, n)
			}
			return true
		case *ast.Ident:
			if pass.ObjectOf(n) != obj || !isConsumingUse(pass, parents, n) {
				return true
			}
			if stmt := owningStatement(parents, n); stmt != nil {
				consumptions = append(consumptions, stmt)
			}
		}
		return true
	})

	if len(consumptions) == 0 {
		pass.Reportf(acq.Pos(), "request stored in %q is never waited (no Wait, WaitAll, or escape in %s)",
			obj.Name(), funcDesc(fn))
		return
	}

	// Early-return check: a return after the acquisition is a leak unless
	// some consumption guards it — the return sits inside the consuming
	// statement itself, or the consumption completed lexically earlier
	// (per-round WaitAll loops drain before the function's final return).
	// The pass is lexical, not path-sensitive: a return between the
	// acquisition and its first consumption is the shape it exists to catch.
	for _, ret := range returns {
		if ret.Pos() <= acq.Pos() {
			continue
		}
		if returnConsumes(pass, ret, obj) {
			continue
		}
		guarded := false
		for _, c := range consumptions {
			if ret.Pos() >= c.Pos() && ret.End() <= c.End() {
				guarded = true // return is inside the consuming statement
				break
			}
			if c.End() <= ret.Pos() {
				guarded = true // consumption completed before this return
				break
			}
		}
		if !guarded {
			pass.Reportf(ret.Pos(), "return leaks request(s) in %q acquired at line %d without a Wait on this path",
				obj.Name(), pass.Fset.Position(acq.Pos()).Line)
		}
	}
}

// isConsumingUse reports whether the identifier use hands the request (or
// request slice) onward: method call, call argument, return, range, send,
// composite literal, or assignment into a structure. Self-growth and plain
// writes are not consumptions.
func isConsumingUse(pass *Pass, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	parent := parents[id]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// id.Wait() — method call on the request.
		if p.X == id {
			if call, ok := parents[p].(*ast.CallExpr); ok && call.Fun == p {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg != id {
				continue
			}
			// reqs = append(reqs, ...): growing the tracked slice in place
			// is bookkeeping, not consumption.
			if isBuiltinAppend(pass, p) && p.Args[0] == id {
				if tgt := appendTarget(pass, parents, p); tgt == pass.ObjectOf(id) {
					return false
				}
			}
			return true
		}
		return false
	case *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit, *ast.KeyValueExpr:
		return true
	case *ast.RangeStmt:
		return p.X == id
	case *ast.AssignStmt:
		// On the RHS: the value flows somewhere else — consumption unless
		// it is a self-reslice (reqs = reqs[:0] handled below via slice).
		for _, rhs := range p.Rhs {
			if rhs == id {
				return true
			}
		}
		return false
	case *ast.SliceExpr:
		// reqs[:0] — consumption only if the result leaves the variable.
		if asg, ok := parents[p].(*ast.AssignStmt); ok && len(asg.Lhs) == 1 {
			if lhs, ok := asg.Lhs[0].(*ast.Ident); ok && pass.ObjectOf(lhs) == pass.ObjectOf(id) {
				return false
			}
		}
		return true
	case *ast.UnaryExpr:
		return p.Op.String() == "&" // address escapes
	default:
		return false
	}
}

// owningStatement finds the innermost block-level statement containing the
// node.
func owningStatement(parents map[ast.Node]ast.Node, n ast.Node) ast.Stmt {
	path := pathFromParents(parents, n)
	for i := len(path) - 1; i >= 1; i-- {
		switch path[i-1].(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			if stmt, ok := path[i].(ast.Stmt); ok {
				return stmt
			}
		}
	}
	return nil
}

// returnConsumes reports whether the return expression mentions obj.
func returnConsumes(pass *Pass, ret *ast.ReturnStmt, obj types.Object) bool {
	found := false
	for _, e := range ret.Results {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
				found = true
			}
			return !found
		})
	}
	return found
}

func funcDesc(fn ast.Node) string {
	if d, ok := fn.(*ast.FuncDecl); ok {
		return "function " + d.Name.Name
	}
	return "this function literal"
}
