package analysis

// Suite returns every analyzer enforced by aapcvet, in report order.
// copylocks and loopclosure are not here: `make vet` runs stock
// `go vet ./...`, which has both.
func Suite() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Spscsafe,
	}
}
