package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Spscsafe enforces the shm ring discipline on types annotated //aapc:spsc:
// lock-free single-producer single-consumer structures whose whole
// correctness argument is "each cursor has exactly one writer and every
// cross-party access is an atomic with the right ordering". The compiler
// checks none of that; this pass checks the statically checkable half.
//
// Annotations:
//
//	//aapc:spsc                    on the type declaration
//	//aapc:cursor producer         on the producer-owned cursor field
//	//aapc:cursor consumer         on the consumer-owned cursor field
//	//aapc:role producer|consumer  on each method that mutates a cursor
//
// Rules:
//
//  1. Cursor fields are touched only through sync/atomic: the field passed
//     directly (pointer-typed cursors) or by address (word-typed cursors)
//     to an atomic call, or set in a composite literal during construction.
//     A plain read of an atomically-written word is a data race even when
//     it "only polls" — the compiler may tear, cache, or hoist it.
//  2. Atomic *writes* to a cursor happen only in methods of the annotated
//     type that carry an //aapc:role matching the cursor's owner. The
//     consumer storing tail (or any unannotated helper storing either
//     cursor) breaks the single-writer invariant the ring depends on.
//  3. A method annotated with one role never calls a method annotated with
//     the other: a producer that pops records is two parties on one end.
//
// Reads are unrestricted (the producer legitimately loads head to compute
// free space); role separation binds writers only.
var Spscsafe = &Analyzer{
	Name: "spscsafe",
	Doc:  "enforces atomic access and producer/consumer role separation on //aapc:spsc ring types",
	Run:  runSpscsafe,
}

// cursorInfo is one annotated cursor field.
type cursorInfo struct {
	role     string // "producer" or "consumer"
	typeName string
}

func runSpscsafe(pass *Pass) error {
	cursors := make(map[types.Object]cursorInfo)
	spscTypes := make(map[types.Object]bool)
	collectSpscTypes(pass, cursors, spscTypes)
	if len(spscTypes) == 0 {
		return nil
	}
	roles := methodRoles(pass, spscTypes)

	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			checkSpscFunc(pass, decl, cursors, spscTypes, roles)
		}
	}
	return nil
}

// collectSpscTypes finds //aapc:spsc struct types and their annotated
// cursor fields.
func collectSpscTypes(pass *Pass, cursors map[types.Object]cursorInfo, spscTypes map[types.Object]bool) {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			gen, ok := d.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !hasMarker("aapc:spsc", gen.Doc, ts.Doc, ts.Comment) {
					continue
				}
				obj := pass.ObjectOf(ts.Name)
				if obj == nil {
					continue
				}
				spscTypes[obj] = true
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					role, ok := markerArg("aapc:cursor", field.Doc, field.Comment)
					if !ok {
						continue
					}
					if role != "producer" && role != "consumer" {
						pass.Reportf(field.Pos(), "//aapc:cursor role must be producer or consumer, got %q", role)
						continue
					}
					for _, name := range field.Names {
						if fobj := pass.ObjectOf(name); fobj != nil {
							cursors[fobj] = cursorInfo{role: role, typeName: obj.Name()}
						}
					}
				}
			}
		}
	}
}

// methodRoles maps each role-annotated method (by its object) of an spsc
// type to its declared role.
func methodRoles(pass *Pass, spscTypes map[types.Object]bool) map[types.Object]string {
	roles := make(map[types.Object]string)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Recv == nil {
				continue
			}
			role, ok := markerArg("aapc:role", decl.Doc)
			if !ok {
				continue
			}
			if role != "producer" && role != "consumer" {
				pass.Reportf(decl.Pos(), "//aapc:role must be producer or consumer, got %q", role)
				continue
			}
			if !recvIsSpsc(pass, decl, spscTypes) {
				pass.Reportf(decl.Pos(), "//aapc:role on a method whose receiver is not an //aapc:spsc type")
				continue
			}
			if obj := pass.ObjectOf(decl.Name); obj != nil {
				roles[obj] = role
			}
		}
	}
	return roles
}

func recvIsSpsc(pass *Pass, decl *ast.FuncDecl, spscTypes map[types.Object]bool) bool {
	if decl.Recv == nil || len(decl.Recv.List) != 1 {
		return false
	}
	t := pass.TypeOf(decl.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return spscTypes[n.Obj()]
	}
	return false
}

// checkSpscFunc checks every cursor access and cross-role call inside one
// function.
func checkSpscFunc(pass *Pass, decl *ast.FuncDecl, cursors map[types.Object]cursorInfo, spscTypes map[types.Object]bool, roles map[types.Object]string) {
	var fnRole string
	var fnIsMethod bool
	if obj := pass.ObjectOf(decl.Name); obj != nil {
		fnRole = roles[obj]
	}
	fnIsMethod = recvIsSpsc(pass, decl, spscTypes)

	parents := buildParentsOf(decl)

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			fobj := pass.ObjectOf(n.Sel)
			info, isCursor := cursors[fobj]
			if !isCursor {
				return true
			}
			checkCursorAccess(pass, parents, decl, n, info, fnRole, fnIsMethod)
		case *ast.CallExpr:
			callee := calleeFunc(pass, n)
			if callee == nil {
				return true
			}
			calleeRole, ok := roles[types.Object(callee)]
			if !ok || fnRole == "" || calleeRole == fnRole {
				return true
			}
			pass.Reportf(n.Pos(), "%s-role method calls %s-role method %s: producer and consumer ends must stay separate",
				fnRole, calleeRole, callee.Name())
		}
		return true
	})
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

// checkCursorAccess classifies one selector access to a cursor field.
func checkCursorAccess(pass *Pass, parents map[ast.Node]ast.Node, decl *ast.FuncDecl, sel *ast.SelectorExpr, info cursorInfo, fnRole string, fnIsMethod bool) {
	field := info.typeName + "." + sel.Sel.Name
	parent := skipParens(parents, sel)
	switch p := parent.(type) {
	case *ast.CallExpr:
		// Pointer-typed cursor handed straight to sync/atomic.
		kind := atomicCallKind(pass, p)
		if kind == atomicNone {
			pass.Reportf(sel.Pos(), "cursor %s passed to a non-atomic call: cursors may only reach sync/atomic", field)
			return
		}
		if kind == atomicWrite {
			checkCursorWrite(pass, sel, info, field, fnRole, fnIsMethod)
		}
	case *ast.UnaryExpr:
		// Word-typed cursor: &s.cursor is legal only as an atomic argument.
		if p.Op != token.AND {
			pass.Reportf(sel.Pos(), "plain read of cursor %s: use sync/atomic (the compiler may tear or cache a plain load)", field)
			return
		}
		call, ok := skipParens(parents, p).(*ast.CallExpr)
		if !ok {
			pass.Reportf(sel.Pos(), "address of cursor %s escapes outside sync/atomic", field)
			return
		}
		kind := atomicCallKind(pass, call)
		if kind == atomicNone {
			pass.Reportf(sel.Pos(), "address of cursor %s passed to a non-atomic call", field)
			return
		}
		if kind == atomicWrite {
			checkCursorWrite(pass, sel, info, field, fnRole, fnIsMethod)
		}
	case *ast.StarExpr:
		// *r.cursor — plain access through the pointer.
		if isAssignTarget(parents, p) {
			pass.Reportf(sel.Pos(), "plain write of cursor %s: use sync/atomic store", field)
		} else {
			pass.Reportf(sel.Pos(), "plain read of cursor %s: use sync/atomic (the compiler may tear or cache a plain load)", field)
		}
	case *ast.KeyValueExpr:
		// Construction: Ring{tail: ...}. (Keyed literals use a bare Ident
		// key, so this arm only fires for nested selector values, which are
		// reads — but a read feeding a composite literal escapes.)
		pass.Reportf(sel.Pos(), "cursor %s stored into a composite literal outside construction", field)
	case *ast.AssignStmt:
		if isAssignTargetIn(p, sel) {
			pass.Reportf(sel.Pos(), "plain write of cursor %s: use sync/atomic store", field)
		} else {
			pass.Reportf(sel.Pos(), "cursor %s copied out by plain read: use sync/atomic", field)
		}
	case *ast.IncDecStmt:
		pass.Reportf(sel.Pos(), "plain write of cursor %s: use sync/atomic store", field)
	default:
		pass.Reportf(sel.Pos(), "plain read of cursor %s: use sync/atomic (the compiler may tear or cache a plain load)", field)
	}
}

// checkCursorWrite enforces single-writer role separation on an atomic
// store to a cursor.
func checkCursorWrite(pass *Pass, sel *ast.SelectorExpr, info cursorInfo, field, fnRole string, fnIsMethod bool) {
	switch {
	case !fnIsMethod:
		pass.Reportf(sel.Pos(), "cursor %s written outside a method of its //aapc:spsc type", field)
	case fnRole == "":
		pass.Reportf(sel.Pos(), "cursor %s written in a method without an //aapc:role annotation", field)
	case fnRole != info.role:
		pass.Reportf(sel.Pos(), "%s-role method writes %s-owned cursor %s: each cursor has exactly one writing party",
			fnRole, info.role, field)
	}
}

const (
	atomicNone = iota
	atomicRead
	atomicWrite
)

// atomicCallKind classifies a call as a sync/atomic read, write, or neither.
// Read-modify-write operations (Add, Swap, CompareAndSwap) count as writes.
func atomicCallKind(pass *Pass, call *ast.CallExpr) int {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return atomicNone
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return atomicNone
	}
	name := fn.Name()
	switch {
	case strings.HasPrefix(name, "Load"):
		return atomicRead
	case strings.HasPrefix(name, "Store"), strings.HasPrefix(name, "Add"),
		strings.HasPrefix(name, "Swap"), strings.HasPrefix(name, "CompareAndSwap"):
		return atomicWrite
	}
	return atomicNone
}

// skipParens returns the nearest non-paren ancestor.
func skipParens(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	p := parents[n]
	for {
		paren, ok := p.(*ast.ParenExpr)
		if !ok {
			return p
		}
		p = parents[paren]
	}
}

// isAssignTarget reports whether n appears on the left side of its
// enclosing assignment.
func isAssignTarget(parents map[ast.Node]ast.Node, n ast.Node) bool {
	assign, ok := parents[n].(*ast.AssignStmt)
	if !ok {
		return false
	}
	return isAssignTargetIn(assign, n)
}

func isAssignTargetIn(assign *ast.AssignStmt, n ast.Node) bool {
	for _, lhs := range assign.Lhs {
		if ast.Unparen(lhs) == n {
			return true
		}
	}
	return false
}

// hasMarker reports whether any of the comment groups contains the marker
// as a whole comment line.
func hasMarker(marker string, groups ...*ast.CommentGroup) bool {
	_, ok := markerLine(marker, groups)
	return ok
}

// markerArg returns the first whitespace-separated argument after the
// marker ("producer" in "//aapc:cursor producer").
func markerArg(marker string, groups ...*ast.CommentGroup) (string, bool) {
	rest, ok := markerLine(marker, groups)
	if !ok {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", true
	}
	return fields[0], true
}

func markerLine(marker string, groups []*ast.CommentGroup) (string, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if text == marker {
				return "", true
			}
			if strings.HasPrefix(text, marker+" ") {
				return strings.TrimPrefix(text, marker+" "), true
			}
		}
	}
	return "", false
}

// calleeFunc resolves the function object a call statically dispatches to
// (an interface method for a call through an interface), or nil for
// builtins, conversions and function values.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
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
