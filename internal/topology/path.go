package topology

import (
	"fmt"
	"slices"
)

// rooted is a cached rooted view of the tree used for path and subtree
// queries. It is built lazily and invalidated by mutation (via validated).
type rooted struct {
	root   int
	parent []int // parent[v] = parent of v in the rooted tree; -1 at root
	depth  []int
	order  []int // preorder
	// machineCount[v] = number of machines in the subtree rooted at v.
	machineCount []int
}

// Root the tree at node r and compute parent/depth/preorder/machine counts.
func (g *Graph) rootAt(r int) *rooted {
	g.ensureValid()
	n := len(g.nodes)
	rt := &rooted{
		root:         r,
		parent:       make([]int, n),
		depth:        make([]int, n),
		order:        make([]int, 0, n),
		machineCount: make([]int, n),
	}
	for i := range rt.parent {
		rt.parent[i] = -1
	}
	stack := []int{r}
	visited := make([]bool, n)
	visited[r] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rt.order = append(rt.order, u)
		for _, v := range g.adj[u] {
			if !visited[v] {
				visited[v] = true
				rt.parent[v] = u
				rt.depth[v] = rt.depth[u] + 1
				stack = append(stack, v)
			}
		}
	}
	// Machine counts bottom-up in reverse preorder.
	for i := len(rt.order) - 1; i >= 0; i-- {
		v := rt.order[i]
		if g.nodes[v].Kind == Machine {
			rt.machineCount[v]++
		}
		if p := rt.parent[v]; p >= 0 {
			rt.machineCount[p] += rt.machineCount[v]
		}
	}
	return rt
}

// pathCache holds the canonical rooted view (rooted at node 0) that Path and
// the load analysis share.
func (g *Graph) canonical() *rooted {
	// Rebuilt on demand; cheap relative to scheduling, and mutation after
	// validation is rare. Cache keyed on validated flag.
	if g.cachedRoot == nil || !g.validated {
		g.ensureValid()
		g.cachedRoot = g.rootAt(0)
	}
	return g.cachedRoot
}

// Path returns the unique path from node u to node v as an ordered list of
// directed edges. Path(u, u) is empty.
func (g *Graph) Path(u, v int) []Edge {
	if u < 0 || u >= len(g.nodes) || v < 0 || v >= len(g.nodes) {
		panic(fmt.Sprintf("topology: Path(%d, %d): node out of range", u, v))
	}
	if u == v {
		return nil
	}
	rt := g.canonical()
	// Walk both endpoints up to their lowest common ancestor.
	var up []Edge   // edges from u toward the LCA
	var down []Edge // edges from v toward the LCA (to be reversed)
	a, b := u, v
	for rt.depth[a] > rt.depth[b] {
		up = append(up, Edge{U: a, V: rt.parent[a]})
		a = rt.parent[a]
	}
	for rt.depth[b] > rt.depth[a] {
		down = append(down, Edge{U: b, V: rt.parent[b]})
		b = rt.parent[b]
	}
	for a != b {
		up = append(up, Edge{U: a, V: rt.parent[a]})
		a = rt.parent[a]
		down = append(down, Edge{U: b, V: rt.parent[b]})
		b = rt.parent[b]
	}
	// The downward half traverses the reversed edges in reverse order.
	path := up
	for i := len(down) - 1; i >= 0; i-- {
		path = append(path, down[i].Reverse())
	}
	return path
}

// PathBetweenRanks returns the path between two machines given by rank.
func (g *Graph) PathBetweenRanks(src, dst int) []Edge {
	return g.Path(g.machines[src], g.machines[dst])
}

// EdgeIndex assigns a dense index to every directed edge of the tree so
// contention checks can use flat bitsets instead of maps.
type EdgeIndex struct {
	ids   map[Edge]int
	edges []Edge
	// up[v] and down[v] are the dense IDs of the directed edges
	// (v, parent(v)) and (parent(v), v) in the canonical rooting, -1 at
	// the root. They let AppendPathEdgeIDs walk a path without map
	// lookups.
	up, down []int32
}

// NewEdgeIndex builds the directed-edge index for the graph.
func (g *Graph) NewEdgeIndex() *EdgeIndex {
	g.ensureValid()
	idx := &EdgeIndex{ids: make(map[Edge]int)}
	for _, l := range g.Links() {
		for _, e := range []Edge{l, l.Reverse()} {
			idx.ids[e] = len(idx.edges)
			idx.edges = append(idx.edges, e)
		}
	}
	rt := g.canonical()
	idx.up = make([]int32, len(g.nodes))
	idx.down = make([]int32, len(g.nodes))
	for i := range idx.up {
		idx.up[i], idx.down[i] = -1, -1
	}
	for id, e := range idx.edges {
		switch {
		case rt.parent[e.U] == e.V:
			idx.up[e.U] = int32(id)
		case rt.parent[e.V] == e.U:
			idx.down[e.V] = int32(id)
		}
	}
	return idx
}

// Len returns the number of directed edges.
func (idx *EdgeIndex) Len() int { return len(idx.edges) }

// ID returns the dense index of a directed edge; the edge must exist.
func (idx *EdgeIndex) ID(e Edge) int {
	id, ok := idx.ids[e]
	if !ok {
		panic(fmt.Sprintf("topology: unknown edge %v", e))
	}
	return id
}

// Edge returns the directed edge with the given dense index.
func (idx *EdgeIndex) Edge(id int) Edge { return idx.edges[id] }

// PathIDs returns the dense directed-edge indices along Path(u, v), in path
// order.
func (g *Graph) PathIDs(idx *EdgeIndex, u, v int) []int {
	var buf [16]int32
	path := g.AppendPathEdgeIDs(idx, u, v, buf[:0])
	ids := make([]int, len(path))
	for i, id := range path {
		ids[i] = int(id)
	}
	return ids
}

// AppendPathEdgeIDs appends the dense directed-edge IDs of the unique path
// from u to v onto dst, in path order (the order of Path(u, v)), and returns
// the extended slice. It walks the cached rooting without map lookups or
// allocations beyond growing dst, so callers pass one buffer for every
// message. The index must have been built by NewEdgeIndex on this graph.
func (g *Graph) AppendPathEdgeIDs(idx *EdgeIndex, u, v int, dst []int32) []int32 {
	rt := g.canonical()
	lca, w := u, v
	for rt.depth[lca] > rt.depth[w] {
		lca = rt.parent[lca]
	}
	for rt.depth[w] > rt.depth[lca] {
		w = rt.parent[w]
	}
	for lca != w {
		lca, w = rt.parent[lca], rt.parent[w]
	}
	for x := u; x != lca; x = rt.parent[x] {
		dst = append(dst, idx.up[x])
	}
	// The downward half is v's climb to the LCA, reversed.
	mid := len(dst)
	for x := v; x != lca; x = rt.parent[x] {
		dst = append(dst, idx.down[x])
	}
	slices.Reverse(dst[mid:])
	return dst
}
