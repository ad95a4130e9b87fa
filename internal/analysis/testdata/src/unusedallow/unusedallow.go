// Corpus for the -unusedallow audit: one allow comment that suppresses a
// real finding (used), one that suppresses nothing (stale), and one whose
// misspelled analyzer name leaves its finding live (misnamed).
package unusedallow

//aapc:noalloc
func suppressedFinding(n int) []byte {
	//aapc:allow noalloc deliberate: one amortized growth per call, measured
	return make([]byte, n)
}

//aapc:noalloc
func staleComment(b []byte) []byte {
	//aapc:allow noalloc nothing here ever triggered
	return b[:0]
}

//aapc:noalloc
func misnamedComment(n int) []byte {
	//aapc:allow noallocc the misspelling suppresses nothing
	return make([]byte, n)
}
