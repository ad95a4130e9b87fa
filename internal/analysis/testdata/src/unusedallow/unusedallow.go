// Corpus for the -unusedallow audit: one allow comment that suppresses a
// real finding (used), one that suppresses nothing (stale), and one whose
// misspelled analyzer name leaves its finding live (misnamed).
package unusedallow

type bufPool struct{ free [][]byte }

func (p *bufPool) get(n int) []byte {
	if len(p.free) == 0 {
		return make([]byte, n)
	}
	b := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return b[:n]
}

func (p *bufPool) put(b []byte) { p.free = append(p.free, b) }

func suppressedFinding(p *bufPool) int {
	b := p.get(64)
	p.put(b)
	//aapc:allow poolsafe deliberate: len reads the header only, measured safe
	return len(b)
}

func staleComment(p *bufPool) {
	b := p.get(64)
	//aapc:allow poolsafe nothing here ever triggered
	p.put(b)
}

func misnamedComment(p *bufPool) int {
	b := p.get(64)
	p.put(b)
	//aapc:allow poolsafee the misspelling suppresses nothing
	return len(b)
}
