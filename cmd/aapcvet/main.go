// Command aapcvet is the repo's static-analysis tool, run through the
// standard vet driver:
//
//	go build -o bin/aapcvet ./cmd/aapcvet
//	go vet -vettool=$PWD/bin/aapcvet ./...
//
// It enforces the project invariants (poolsafe, determinism, waitcheck,
// noalloc, copycount, lockorder, spscsafe) plus a refined port of the
// stock shadow pass. Function summaries flow
// across package boundaries through vet's facts channel, so poolsafe,
// waitcheck, copycount, and lockorder see through call sites.
//
// Individual analyzers are disabled with -<name>=false; single findings
// are suppressed in source with //aapc:allow <name> <reason>. Extra
// modes: -json streams one NDJSON object per diagnostic, and
// -unusedallow flags allow comments whose analyzer no longer reports
// anything at that site.
package main

import "github.com/aapc-sched/aapcsched/internal/analysis"

func main() {
	analysis.Main(analysis.Suite()...)
}
