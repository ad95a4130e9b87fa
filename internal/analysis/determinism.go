package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism guards the packages whose tests and tooling assume
// bit-identical replays: the simulator (its solver-equivalence test replays
// the same instrumented run through the aggregated solver and the dense
// oracle and demands bit-identical event streams), the
// schedule builders (greedy construction must be reproducible for the
// committed benchmark schedules), and the experiment harness (parallel and
// serial runs must produce identical reports). In those packages the
// analyzer forbids, outside _test.go files:
//
//   - wall-clock reads (time.Now, time.Since, time.After, time.Tick):
//     simulated time comes from the engine's virtual clock;
//   - the global math/rand source (package-level rand.Intn etc.): all
//     randomness must flow through a seeded *rand.Rand;
//   - ranging over a map: iteration order varies run to run, so anything
//     emitted from such a loop (events, completions, appends) reorders;
//   - spawning goroutines: concurrency is only deterministic when results
//     are keyed, which the analyzer cannot prove — the spawn site must be
//     annotated //aapc:allow determinism with the keying argument.
var Determinism = &Analyzer{
	Name:      "determinism",
	Doc:       "forbids wall clocks, global rand, map iteration, and goroutine spawn in replay-sensitive packages",
	SkipTests: true,
	AppliesTo: determinismScoped,
	Run:       runDeterminism,
}

// determinismScope lists the replay-sensitive packages. Matching accepts
// both full import paths (the unitchecker) and bare directory names (the
// test corpus).
var determinismScope = []string{"simnet", "schedule", "harness"}

func determinismScoped(pkgPath string) bool {
	base := pkgPath
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	for _, s := range determinismScope {
		if base == s {
			return true
		}
	}
	return false
}

// bannedTimeFuncs are the wall-clock entry points of package time.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkBannedCall(pass, n)
			case *ast.RangeStmt:
				if t := pass.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						pass.Reportf(n.Pos(),
							"map iteration order is nondeterministic in a replay-sensitive package; iterate sorted keys or an indexed structure")
					}
				}
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"goroutine spawn in a replay-sensitive package; results must be keyed deterministically (annotate //aapc:allow determinism with the keying)")
			}
			return true
		})
	}
	return nil
}

func checkBannedCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Package-level functions only: methods on a seeded *rand.Rand are the
	// sanctioned source of randomness.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTimeFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in a replay-sensitive package; use the engine's virtual clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		pass.Reportf(call.Pos(),
			"global %s.%s is shared, unseeded randomness; thread a seeded *rand.Rand instead", pathBase(fn.Pkg().Path()), fn.Name())
	}
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
