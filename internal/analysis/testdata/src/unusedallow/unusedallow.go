// Corpus for the -unusedallow audit: one allow comment that suppresses a
// real finding (used), one that suppresses nothing (stale), and one whose
// misspelled analyzer name leaves its finding live (misnamed).
package unusedallow

import "sync/atomic"

//aapc:spsc
type ring struct {
	tail uint64 //aapc:cursor producer
	head uint64 //aapc:cursor consumer
}

//aapc:role consumer
func (r *ring) suppressedFinding() uint64 {
	//aapc:allow spscsafe deliberate: the producer has exited, nothing races
	return r.tail
}

//aapc:role consumer
func (r *ring) staleComment() uint64 {
	//aapc:allow spscsafe nothing here ever triggered
	return atomic.LoadUint64(&r.tail)
}

//aapc:role consumer
func (r *ring) misnamedComment() uint64 {
	//aapc:allow spscsafee the misspelling suppresses nothing
	return r.tail
}
