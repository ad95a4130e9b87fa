package analysis

// Suite returns every analyzer enforced by aapcvet, in report order. The
// fact-driven passes among them (poolsafe, waitcheck, copycount) are marked
// NeedsFacts and share one interprocedural summary computation per package.
// copylocks and loopclosure are not here: `make vet` runs stock
// `go vet ./...`, which has both.
func Suite() []*Analyzer {
	return []*Analyzer{
		Poolsafe,
		Determinism,
		Waitcheck,
		Noalloc,
		Copycount,
		Spscsafe,
	}
}
