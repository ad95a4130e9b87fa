// Corpus for the poolsafe analyzer: use-after-release of pooled buffers.
package poolsafe

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

type frame struct{ buf []byte }

func (f *frame) Release() {}

func useAfterPut(p *bufPool) int {
	b := p.get(64)
	p.put(b)
	return len(b) // want `use of b after it was released to the pool at line \d+`
}

func doubleRelease(p *bufPool) {
	b := p.get(64)
	p.put(b)
	p.put(b) // want `use of b after it was released to the pool at line \d+`
}

func retainedByClosure(p *bufPool) func() int {
	b := p.get(64)
	p.put(b)
	return func() int { return cap(b) } // want `use of b after it was released to the pool at line \d+`
}

func releaseMethodThenUse(f *frame) int {
	f.Release()
	return len(f.buf) // want `use of f after it was released to the pool at line \d+`
}

func reassignedIsFresh(p *bufPool) int {
	b := p.get(64)
	p.put(b)
	b = p.get(128)
	return len(b) // ok: b was reassigned after the release
}

func putLastIsClean(p *bufPool, b []byte) {
	b = b[:0]
	p.put(b)
}

func loopScopedIsClean(p *bufPool, n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = p.get(64)
		p.put(b)
	}
	return b // ok: releases are tracked within their own block only
}

// opFreelist mirrors mpi.Freelist: Put on a freelist type is a release, and
// so is the operation's own Recycle.
type opFreelist struct{ free []*frame }

func (f *opFreelist) Put(o *frame) { f.free = append(f.free, o) }

func (f *frame) Recycle() {}

func useAfterFreelistPut(f *opFreelist, o *frame) int {
	f.Put(o)
	return len(o.buf) // want `use of o after it was released to the pool at line \d+`
}

func useAfterRecycle(o *frame) []byte {
	o.Recycle()
	return o.buf // want `use of o after it was released to the pool at line \d+`
}

func infoReadBeforeRecycle(o *frame) int {
	n := len(o.buf)
	o.Recycle()
	return n // ok: read before the op went back to its freelist
}

type stack struct{ items [][]byte }

func (s *stack) put(b []byte) { s.items = append(s.items, b) }

func notAPool(s *stack) int {
	b := []byte("x")
	s.put(b)
	return len(b) // ok: stack is not a pool type
}

func suppressed(p *bufPool) int {
	b := p.get(64)
	p.put(b)
	return cap(b) //aapc:allow poolsafe capacity read is safe, buffer not dereferenced
}
