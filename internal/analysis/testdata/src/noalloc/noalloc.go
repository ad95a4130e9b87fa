// Corpus for the noalloc analyzer: //aapc:noalloc annotation enforcement.
package noalloc

import "fmt"

type ring struct {
	buf   []int
	items []int
}

type node struct{ v int }

func sink(v any) {}

//aapc:noalloc steady-state push reuses capacity
func (r *ring) push(v int) {
	r.buf = append(r.buf, v) // ok: self-growth is the sanctioned amortized pattern
}

//aapc:noalloc
func hotMake(n int) []int {
	return make([]int, n) // want `make allocates`
}

//aapc:noalloc
func coldMake(r *ring, n int) []int {
	if n > cap(r.buf) {
		return make([]int, n) // ok: cold path, the block leaves the function
	}
	return r.buf[:n]
}

//aapc:noalloc
func hotNew() *node {
	return new(node) // want `new allocates`
}

//aapc:noalloc
func crossAppend(dst, src []int) []int {
	dst = append(src, 1) // want `append outside the x = append\(x, \.\.\.\) self-growth pattern allocates`
	return dst
}

//aapc:noalloc
func logged(v int) {
	fmt.Println(v) // want `fmt\.Println allocates`
}

//aapc:noalloc
func boxes(v int, p *int) {
	sink(p)   // ok: pointers box without allocating
	sink(nil) // ok: a nil interface holds nothing
	sink(v)   // want `boxing int into an interface argument allocates`
}

//aapc:noalloc
func concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//aapc:noalloc
func convert(b []byte) string {
	return string(b) // want `conversion between string and byte/rune slice allocates`
}

//aapc:noalloc
func spawns(f func()) {
	go f() // want `go statement allocates a goroutine`
}

//aapc:noalloc
func sliceLit() []int {
	return []int{1, 2, 3} // want `slice literal allocates`
}

//aapc:noalloc
func heapNode(v int) *node {
	return &node{v: v} // want `&composite literal allocates`
}

//aapc:noalloc
func valueLit(v int) node {
	return node{v: v} // ok: struct literal is a value, no heap
}

//aapc:noalloc
func localHelper(xs []int) int {
	sum := 0
	add := func(v int) { sum += v }
	for _, v := range xs {
		add(v) // ok: the literal is only called locally, it stays on the stack
	}
	return sum
}

//aapc:noalloc
func escapingLiteral(ch chan func()) {
	ch <- func() {} // want `function literal may escape and allocate`
}

//aapc:noalloc
func amortizedGrowth(r *ring, v int) {
	if len(r.items) == cap(r.items) {
		next := make([]int, len(r.items), 2*cap(r.items)+1) //aapc:allow noalloc amortized doubling on overflow
		copy(next, r.items)
		r.items = next
	}
	r.items = append(r.items, v)
}

// The single send entry takes its descriptor by value and hands back the
// pooled operation itself as the request: no per-message allocation.

type request interface{ wait() }

type op struct {
	desc struct {
		buf []byte
		tag int
	}
}

func (o *op) wait() {}

type freelist struct{ free []*op }

//aapc:noalloc
func (f *freelist) isend(buf []byte, tag int) request {
	if len(f.free) == 0 {
		return new(op) // ok: cold path, the freelist refills from consumed waits
	}
	o := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	o.desc.buf, o.desc.tag = buf, tag
	return o // ok: the op pointer is the request
}

//aapc:noalloc
func (f *freelist) isendWrapped(buf []byte) request {
	o := &op{} // want `&composite literal allocates`
	o.desc.buf = buf
	return o
}

func makeCounter() func() int {
	n := 0
	//aapc:noalloc the closure itself is the hot path
	return func() int {
		n++
		return n
	}
}

func makeAllocator() func() []int {
	//aapc:noalloc
	return func() []int {
		return []int{1, 2, 3} // want `slice literal allocates`
	}
}

func unannotated(n int) []int {
	return make([]int, n) // ok: no annotation, no constraint
}
