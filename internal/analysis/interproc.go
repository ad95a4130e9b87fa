package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The summary engine: computes a FuncFact for every declared function of a
// package, iterating to a fixed point so facts flow bottom-up through the
// intra-package call graph (mutual recursion converges because every bit is
// monotone). Cross-package flow needs no iteration: the unit checker hands
// us dependency facts already complete, and Go's import graph is acyclic.
//
// Capturing a parameter in a function literal marks it as escaping, and
// consumption anywhere (including literals) counts — both are suppression
// bits, so the generous reading is the safe one.

// maxFactIterations bounds the intra-package fixed point; facts are
// monotone, so this is a safety net, not a convergence requirement.
const maxFactIterations = 20

// ComputeFacts summarizes every function declared in pkg, seeding the
// result with imported (already stable) dependency facts.
func ComputeFacts(pkg *PackageInfo, imported *FactSet) *FactSet {
	fs := NewFactSet()
	fs.Merge(imported)

	pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Pkg, Info: pkg.Info, PkgPath: pkg.PkgPath}

	type fnUnit struct {
		key  string
		decl *ast.FuncDecl
	}
	var units []fnUnit
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			obj, _ := pass.ObjectOf(decl.Name).(*types.Func)
			key := FuncKey(obj)
			if key == "" {
				continue
			}
			units = append(units, fnUnit{key: key, decl: decl})
		}
	}

	for iter := 0; iter < maxFactIterations; iter++ {
		changed := false
		for _, u := range units {
			fact := summarizeFunc(pass, fs, u.decl)
			fact.normalize()
			if prev := fs.funcs[u.key]; prev == nil || !prev.equal(fact) {
				fs.funcs[u.key] = fact
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return fs
}

// summarizeFunc computes one function's parameter facts against the current
// fact universe.
func summarizeFunc(pass *Pass, fs *FactSet, decl *ast.FuncDecl) *FuncFact {
	fact := &FuncFact{}
	params := paramObjects(pass, decl)
	if len(params) > 0 {
		// get returns the (never-retained) fact entry for a parameter
		// object; callers set one bit and drop the pointer, so the append
		// below may reallocate freely.
		get := func(obj types.Object) *ParamFact {
			idx, ok := params[obj]
			if !ok {
				return nil
			}
			for i := range fact.Params {
				if fact.Params[i].Index == idx {
					return &fact.Params[i]
				}
			}
			fact.Params = append(fact.Params, ParamFact{Index: idx})
			return &fact.Params[len(fact.Params)-1]
		}
		summarizeParams(pass, fs, decl, params, get, fact)
	}
	// Drop all-zero param entries so facts stay minimal and equal() cheap.
	kept := fact.Params[:0]
	for _, p := range fact.Params {
		if p.Releases || p.Escapes || p.Copied || p.Consumed {
			kept = append(kept, p)
		}
	}
	fact.Params = kept
	return fact
}

// paramObjects maps each parameter's object to its fact index (receiver
// included under ReceiverIndex).
func paramObjects(pass *Pass, decl *ast.FuncDecl) map[types.Object]int {
	params := make(map[types.Object]int)
	add := func(names []*ast.Ident, idx func(k int) int) {
		for k, name := range names {
			if obj := pass.ObjectOf(name); obj != nil {
				params[obj] = idx(k)
			}
		}
	}
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		add(decl.Recv.List[0].Names, func(int) int { return ReceiverIndex })
	}
	i := 0
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			n := len(field.Names)
			if n == 0 {
				i++ // unnamed parameter still occupies a position
				continue
			}
			base := i
			add(field.Names, func(k int) int { return base + k })
			i += n
		}
	}
	return params
}

// summarizeParams fills the per-parameter bits by one walk over the body.
func summarizeParams(pass *Pass, fs *FactSet, decl *ast.FuncDecl, params map[types.Object]int, get func(types.Object) *ParamFact, fact *FuncFact) {
	parents := buildParentsOf(decl)
	paramOf := func(e ast.Expr) types.Object {
		root := rootIdent(e)
		if root == nil {
			return nil
		}
		obj := pass.ObjectOf(root)
		if _, ok := params[obj]; !ok {
			return nil
		}
		return obj
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			summarizeCall(pass, fs, decl, params, paramOf, get, n)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj := paramOf(res); obj != nil {
					if pf := get(obj); pf != nil {
						pf.Consumed = true
						if idx, ok := params[obj]; ok && !fact.returnsParam(idx) {
							fact.ReturnsParams = append(fact.ReturnsParams, idx)
						}
					}
				}
			}
		case *ast.Ident:
			obj := pass.ObjectOf(n)
			if _, ok := params[obj]; !ok {
				return true
			}
			if escapingUse(pass, parents, n) {
				if pf := get(obj); pf != nil {
					pf.Escapes = true
					pf.Consumed = true
				}
			} else if consumingUseWithFacts(pass, fs, parents, n) {
				if pf := get(obj); pf != nil {
					pf.Consumed = true
				}
			}
		case *ast.FuncLit:
			// A literal capturing a parameter retains it: escape. The walk
			// continues into the literal so the capture's Ident is seen, and
			// escapingUse treats uses under a FuncLit as escapes.
			return true
		}
		return true
	})
}

// summarizeCall folds one call's effect on parameter facts: releases and
// copies from direct evidence or callee facts.
func summarizeCall(pass *Pass, fs *FactSet, decl *ast.FuncDecl, params map[types.Object]int, paramOf func(ast.Expr) types.Object, get func(types.Object) *ParamFact, call *ast.CallExpr) {
	hot := !onColdPath(enclosingPath(decl, call.Pos()))

	// Direct pool release: p.put(x) / x.Release() on a parameter.
	if released, ok := isPoolRelease(pass, call); ok {
		if obj := paramOf(released); obj != nil {
			if pf := get(obj); pf != nil {
				pf.Releases = true
			}
		}
	}
	// Direct payload copies on the hot path.
	if hot {
		for _, arg := range directCopyArgs(pass, call) {
			if obj := paramOf(arg); obj != nil && isByteSlice(objType(obj)) {
				if pf := get(obj); pf != nil {
					pf.Copied = true
				}
			}
		}
	}
	// Callee facts: releases, copies, escapes propagate to our arguments.
	callee := CalleeFunc(pass, call)
	if callee == nil {
		return
	}
	cf := fs.Func(FuncKey(callee))
	if cf == nil {
		return
	}
	for idx, arg := range CallArgs(pass, call, callee) {
		obj := paramOf(arg)
		if obj == nil {
			continue
		}
		cp := cf.Param(idx)
		if cp == nil {
			continue
		}
		pf := get(obj)
		if pf == nil {
			continue
		}
		if cp.Releases {
			pf.Releases = true
		}
		if cp.Copied && hot {
			pf.Copied = true
		}
		if cp.Escapes {
			pf.Escapes = true
			pf.Consumed = true
		}
		if cp.Consumed {
			pf.Consumed = true
		}
	}
}

// directCopyArgs returns the payload-carrying argument expressions of a
// direct byte-copying construct (the same vocabulary copycount flags).
func directCopyArgs(pass *Pass, call *ast.CallExpr) []ast.Expr {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "copy":
				if len(call.Args) == 2 && isByteSlice(pass.TypeOf(call.Args[0])) {
					return call.Args
				}
			case "append":
				if call.Ellipsis.IsValid() && len(call.Args) == 2 &&
					isByteSlice(pass.TypeOf(call.Args[0])) && isByteSlice(pass.TypeOf(call.Args[1])) {
					return call.Args[1:]
				}
			}
			return nil
		}
	}
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 &&
		isAllocatingConversion(pass.TypeOf(call.Fun), pass.TypeOf(call.Args[0])) {
		return call.Args
	}
	return nil
}

func objType(obj types.Object) types.Type {
	if obj == nil {
		return nil
	}
	return obj.Type()
}

// escapingUse reports whether this identifier use stores the value into
// retained state: composite literal, channel send, store through a
// selector/index/deref, assignment to a package-level variable, address-of,
// or capture by a function literal.
func escapingUse(pass *Pass, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	// Capture: any use lexically inside a FuncLit below the declaring
	// function retains the variable beyond the current frame.
	for n := parents[id]; n != nil; n = parents[n] {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
		if _, ok := n.(*ast.FuncDecl); ok {
			break
		}
	}
	switch p := parents[id].(type) {
	case *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		return true
	case *ast.UnaryExpr:
		return p.Op == token.AND
	case *ast.AssignStmt:
		for _, rhs := range p.Rhs {
			if rhs != id {
				continue
			}
			for _, lhs := range p.Lhs {
				switch l := lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					return true
				case *ast.Ident:
					if obj := pass.ObjectOf(l); obj != nil && obj.Parent() == pass.Pkg.Scope() {
						return true
					}
				}
			}
		}
	}
	return false
}

// consumingUseWithFacts is isConsumingUse refined by callee facts: passing
// a value to a callee known not to consume that parameter is no longer a
// consumption.
func consumingUseWithFacts(pass *Pass, fs *FactSet, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	if !isConsumingUse(pass, parents, id) {
		return false
	}
	call, ok := parents[id].(*ast.CallExpr)
	if !ok || call.Fun == id {
		return true
	}
	consumed, known := calleeConsumesArg(pass, fs, call, id)
	if !known {
		return true
	}
	return consumed
}

// calleeConsumesArg resolves whether the callee's fact says the parameter
// receiving id is consumed/escaped/released; known is false when no fact
// covers the callee or the argument position.
func calleeConsumesArg(pass *Pass, fs *FactSet, call *ast.CallExpr, id *ast.Ident) (consumed, known bool) {
	callee := CalleeFunc(pass, call)
	if callee == nil {
		return false, false
	}
	cf := fs.Func(FuncKey(callee))
	if cf == nil {
		return false, false
	}
	for idx, arg := range CallArgs(pass, call, callee) {
		if ast.Unparen(arg) != id {
			continue
		}
		cp := cf.Param(idx)
		if cp == nil {
			return false, true
		}
		return cp.Consumed || cp.Escapes || cp.Releases, true
	}
	// Argument position not covered (variadic slot): stay conservative.
	return false, false
}
