// Corpus for the copycount analyzer: //aapc:nocopy annotation enforcement.
package copycount

type batch struct {
	iovecs  [][]byte
	scratch []byte
}

//aapc:nocopy payload is borrowed into the writev batch
func (b *batch) borrow(payload []byte) {
	b.iovecs = append(b.iovecs, payload) // ok: appending the slice header, not its bytes
}

//aapc:nocopy
func hotCopy(dst, src []byte) int {
	return copy(dst, src) // want `copy moves payload bytes in a //aapc:nocopy function`
}

//aapc:nocopy
func hotCopyString(dst []byte, src string) int {
	return copy(dst, src) // want `copy moves payload bytes in a //aapc:nocopy function`
}

//aapc:nocopy
func intCopy(dst, src []int) int {
	return copy(dst, src) // ok: not payload bytes
}

//aapc:nocopy
func hotSpread(dst, src []byte) []byte {
	return append(dst, src...) // want `append\(x, src\.\.\.\) moves payload bytes in a //aapc:nocopy function`
}

//aapc:nocopy
func hotStringConv(src []byte) string {
	return string(src) // want `string/byte-slice conversion moves payload bytes in a //aapc:nocopy function`
}

// Op stubs the mpi message descriptor.
type Op struct {
	Buf []byte
}

//aapc:nocopy the send entry borrows the payload into the writev batch
func (b *batch) isendOp(op Op) {
	b.iovecs = append(b.iovecs, op.Buf) // ok: the descriptor's storage is borrowed
}

//aapc:nocopy the overflow fallback below legitimately stages
func coldStage(b *batch, payload []byte) []byte {
	if len(payload) > cap(b.scratch) {
		out := make([]byte, len(payload))
		copy(out, payload) // ok: cold path, the block leaves the function
		return out
	}
	return payload
}

//aapc:nocopy
func allowedCopy(dst, src []byte) int {
	//aapc:allow copycount tiny header prefix, measured free
	return copy(dst, src)
}

//aapc:nocopy annotation reaches the literal on the next line
var literalChecked = func(dst, src []byte) int {
	return copy(dst, src) // want `copy moves payload bytes in a //aapc:nocopy function`
}

// unannotated copies freely.
func unannotated(dst, src []byte) int {
	return copy(dst, src)
}
