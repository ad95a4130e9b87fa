package analysis

// Suite returns every analyzer enforced by aapcvet, in report order: the
// project invariants first (the fact-driven passes among them are marked
// NeedsFacts and share one interprocedural summary computation per
// package), then the refined shadow pass. copylocks and loopclosure are not
// here: `make vet` runs stock `go vet ./...`, which has both.
func Suite() []*Analyzer {
	return []*Analyzer{
		Poolsafe,
		Determinism,
		Waitcheck,
		Noalloc,
		Copycount,
		Lockorder,
		Spscsafe,
		Shadow,
	}
}
