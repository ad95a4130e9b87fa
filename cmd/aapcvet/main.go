// Command aapcvet is the repo's static-analysis tool, run through the
// standard vet driver:
//
//	go build -o bin/aapcvet ./cmd/aapcvet
//	go vet -vettool=$PWD/bin/aapcvet ./...
//
// It enforces two project invariants (determinism, spscsafe); allocation
// and payload copies are checked at run time by `make alloc-gates`. Each
// pass reasons within one function of one package, so the facts file vet
// asks for is left empty.
//
// Individual analyzers are disabled with -<name>=false; single findings
// are suppressed in source with //aapc:allow <name> <reason>. Extra
// modes: -json streams one NDJSON object per diagnostic, and
// -unusedallow flags allow comments whose analyzer no longer reports
// anything at that site, and those whose first name is no analyzer.
package main

import "github.com/aapc-sched/aapcsched/internal/analysis"

func main() {
	analysis.Main(analysis.Suite()...)
}
