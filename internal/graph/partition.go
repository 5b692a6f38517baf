package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// This file implements balanced k-way min-cut partitioning, the work-horse of
// the core-to-switch assignment steps of Algorithms 1 and 2 of the paper
// ("Perform i min-cut partitions of PG" / "Obtain NP min-cut partitions of
// LPG"). Blocks are kept "about equal" in size: every block holds either
// floor(n/k) or ceil(n/k) vertices, matching the paper's balance requirement.
//
// The algorithm is recursive bisection. Each bisection starts from a
// BFS-based seeding that keeps strongly connected clusters together and is
// then refined with Kernighan–Lin style pairwise swaps until no swap improves
// the (undirected) cut weight. The sweep partitions every graph for every
// switch count, so a graph's dense, vertex-indexed view (a Partitioner) is
// built once and shared by all of its calls, and no map is touched inside the
// refinement. Each refinement pass bounds every pair's gain from above by the
// sum of the two vertices' external-minus-internal weights, which it
// computes once per pass, and scores in full only the pairs whose bound can
// beat the best swap found so far.

// Partitioner is the dense view of one graph, treated as undirected, that
// every partition of the graph reads. The view is immutable once built, so
// one Partitioner serves any number of PartitionK calls, concurrent ones
// included.
type Partitioner struct {
	n int
	// nbrs[v] lists the undirected neighbours of v in ascending order and
	// nbrW[v][i] is the weight to nbrs[v][i]. Every weight summation
	// iterates neighbours in this fixed order, so the float accumulation —
	// and with it the whole partition — is bit-deterministic.
	nbrs [][]int
	nbrW [][]float64
	// w[u*n+v] is the undirected weight between u and v (0 when they are not
	// adjacent).
	w []float64
	// calls holds the scratch of finished calls for later ones: every call
	// on the graph needs the same sizes, and calls may run concurrently.
	calls sync.Pool
}

// partitionCall is the vertex-indexed scratch of one PartitionK call, which
// every bisection of the call reuses.
type partitionCall struct {
	*Partitioner
	// verts holds the vertices of the recursion; every bisection rewrites
	// its sub-slice in place as [side A ascending | side B ascending].
	verts []int
	// order, rem, as and bs are per-bisection and per-pass scratch lists.
	order, rem, as, bs []int
	// inSet marks the vertices of the current bisection, visited the BFS
	// frontier and side each vertex's side (0 = A, 1 = B).
	inSet, visited []bool
	side           []int8
	// inc is the BFS seeding weight; d[v] and in[v] are v's external-minus-
	// internal and internal weights within the current pass.
	inc, d, in []float64
}

// NewPartitioner builds the dense undirected view of g: cell (u, v) sums the
// weights of the directed edges u->v and v->u in ascending order of their
// source vertex, exactly as Graph.Undirected does. The view is a copy: later
// edits of g do not reach it.
func NewPartitioner(g *Graph) *Partitioner {
	n := g.n
	p := &Partitioner{n: n, w: make([]float64, n*n), nbrs: make([][]int, n), nbrW: make([][]float64, n)}
	adjacent := make([]bool, n*n)
	for a, m := range g.adj {
		//determlint:ordered cell (x, y) receives exactly the weights of directed edges (x, y) and (y, x), always in ascending outer-index order; map order only permutes writes to distinct cells, which commute
		for b, w := range m {
			p.w[a*n+b] += w //determlint:ordered see loop waiver: per-cell operand order is fixed by the outer slice index
			p.w[b*n+a] += w //determlint:ordered see loop waiver: per-cell operand order is fixed by the outer slice index
			adjacent[a*n+b], adjacent[b*n+a] = true, true
		}
	}
	pairs := 0
	for _, ok := range adjacent {
		if ok {
			pairs++
		}
	}
	flatN, flatW := make([]int, 0, pairs), make([]float64, 0, pairs)
	for v := 0; v < n; v++ {
		start := len(flatN)
		for u := 0; u < n; u++ {
			if adjacent[v*n+u] {
				flatN = append(flatN, u)
				flatW = append(flatW, p.w[v*n+u])
			}
		}
		p.nbrs[v], p.nbrW[v] = flatN[start:len(flatN):len(flatN)], flatW[start:len(flatW):len(flatW)]
	}
	return p
}

// newCall allocates the scratch of one PartitionK call on p.
func (p *Partitioner) newCall() *partitionCall {
	n := p.n
	c := &partitionCall{Partitioner: p}
	ints := make([]int, 5*n)
	c.verts, c.order, c.rem, c.as, c.bs = ints[:n], ints[n:2*n], ints[2*n:3*n], ints[3*n:4*n], ints[4*n:]
	bools := make([]bool, 2*n)
	c.inSet, c.visited = bools[:n], bools[n:]
	c.side = make([]int8, n)
	floats := make([]float64, 3*n)
	c.inc, c.d, c.in = floats[:n], floats[n:2*n], floats[2*n:]
	return c
}

// PartitionK partitions the vertices of g into k balanced blocks minimising
// the weight of edges cut between blocks (heuristically). It returns a slice
// assign with assign[v] in [0,k) for every vertex v. The directed graph is
// treated as undirected for cut purposes.
//
// PartitionK builds g's Partitioner for this one call; a caller that
// partitions one graph for several block counts builds it once with
// NewPartitioner instead. It panics if k is not in [1, NumVertices()] —
// callers sweep k over exactly that range.
func PartitionK(g *Graph, k int) []int {
	return NewPartitioner(g).PartitionK(k)
}

// PartitionK is PartitionK on the graph p was built from. It is safe for
// concurrent use: each call works on scratch of its own, which it takes from
// the scratch earlier calls on p left and leaves for later ones.
func (p *Partitioner) PartitionK(k int) []int {
	n := p.n
	if k < 1 || (k > n && n > 0) {
		panic(fmt.Sprintf("graph: PartitionK with k=%d for %d vertices", k, n))
	}
	assign := make([]int, n)
	if k <= 1 || n == 0 {
		return assign
	}
	c, _ := p.calls.Get().(*partitionCall)
	if c == nil {
		c = p.newCall()
	}
	c.partition(k, assign)
	p.calls.Put(c)
	return assign
}

// partition assigns the k blocks of the whole graph. The scratch may come
// from an earlier call, so it first resets what the bisections read before
// they write it: the vertex list and the visited marks. Every other scratch
// slice is written before it is read; the first bisection, of every vertex,
// sets every set mark.
func (c *partitionCall) partition(k int, assign []int) {
	for v := range c.verts {
		c.verts[v] = v
	}
	clear(c.visited)
	c.partitionRec(c.verts, k, 0, assign)
}

// partitionRec assigns block identifiers [base, base+k) to the given vertices.
func (c *partitionCall) partitionRec(verts []int, k, base int, assign []int) {
	if k == 1 {
		for _, v := range verts {
			assign[v] = base
		}
		return
	}
	kA := (k + 1) / 2
	kB := k - kA
	// Split the vertex count proportionally to the number of blocks on each
	// side so that the leaves end up with floor(n/k) or ceil(n/k) vertices.
	sizeA := balancedSplit(len(verts), k, kA)
	c.bisect(verts, sizeA)
	c.partitionRec(verts[:sizeA], kA, base, assign)
	c.partitionRec(verts[sizeA:], kB, base+kA, assign)
}

// balancedSplit returns how many of n vertices go to the side that will hold
// kA of the k blocks, such that every final block has floor(n/k) or
// ceil(n/k) vertices.
func balancedSplit(n, k, kA int) int {
	q, r := n/k, n%k
	// The first r blocks (by block index) get an extra vertex. Side A holds
	// blocks [0, kA), so it receives min(r, kA) of the larger blocks.
	extra := r
	if extra > kA {
		extra = kA
	}
	return q*kA + extra
}

// bisect splits verts into two groups of sizes sizeA and len(verts)-sizeA
// minimising the cut between them (heuristically). It rewrites verts in
// place: side A, ascending, in verts[:sizeA] and side B, ascending, after it.
func (c *partitionCall) bisect(verts []int, sizeA int) {
	n := len(verts)
	if sizeA <= 0 || sizeA >= n {
		return
	}
	for _, v := range verts {
		c.inSet[v] = true
	}

	// Seed side A with a BFS from the vertex with the heaviest incident
	// weight inside this sub-problem. Growing a connected cluster keeps
	// highly-communicating cores together, which is exactly what the paper
	// wants from the min-cut partitioner.
	order := c.bfsOrder(verts)
	for i, v := range order {
		if i < sizeA {
			c.side[v] = 0
		} else {
			c.side[v] = 1
		}
	}

	// Kernighan–Lin style pairwise swap refinement: repeatedly perform the
	// swap with the best positive gain until no swap improves the cut.
	for pass := 0; pass < 2*n+4; pass++ {
		bestA, bestB := c.bestSwap(order)
		if bestA < 0 {
			break
		}
		c.side[bestA], c.side[bestB] = 1, 0
	}

	a, b := verts[:0], verts[sizeA:sizeA]
	for _, v := range order {
		if c.side[v] == 0 {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
		c.inSet[v] = false
	}
	slices.Sort(a)
	slices.Sort(b)
}

// bfsOrder returns the vertices of the sub-problem in BFS order starting from
// the vertex with the largest incident weight, visiting neighbours in order
// of decreasing connecting weight. Vertices unreachable from the seed are
// appended by the same criterion. The result aliases c.order.
func (c *partitionCall) bfsOrder(verts []int) []int {
	// Incident weight inside the sub-problem, summed in the fixed neighbour
	// order: the partitioner must be bit-deterministic because the engine's
	// cached and uncached sweeps both rely on recomputing identical
	// partitions, and ULP-level differences can flip the sort below.
	inc := c.inc
	for _, v := range verts {
		var w float64
		ws := c.nbrW[v]
		for i, u := range c.nbrs[v] {
			if c.inSet[u] {
				w += ws[i]
			}
		}
		inc[v] = w
	}
	remaining := append(c.rem[:0], verts...)
	slices.SortFunc(remaining, func(x, y int) int {
		return byWeightDesc(inc[x], inc[y], x, y)
	})

	// The order doubles as the BFS queue: vertices are dequeued in the order
	// they were enqueued.
	order := c.order[:0]
	for _, seed := range remaining {
		if c.visited[seed] {
			continue
		}
		c.visited[seed] = true
		order = append(order, seed)
		for head := len(order) - 1; head < len(order); head++ {
			u := order[head]
			next := len(order)
			for _, v := range c.nbrs[u] {
				if c.inSet[v] && !c.visited[v] {
					c.visited[v] = true
					order = append(order, v)
				}
			}
			// Visit neighbours by decreasing edge weight for determinism and
			// cluster quality.
			row := c.w[u*c.n : (u+1)*c.n]
			slices.SortFunc(order[next:], func(x, y int) int {
				return byWeightDesc(row[x], row[y], x, y)
			})
		}
	}
	for _, v := range verts {
		c.visited[v] = false
	}
	return order
}

// byWeightDesc orders vertices by decreasing weight, ties by ascending index.
func byWeightDesc(wx, wy float64, x, y int) int {
	switch {
	case wx > wy:
		return -1
	case wx < wy:
		return 1
	}
	return x - y
}

// bestSwap returns the (side A, side B) pair with the largest gain above the
// running best plus 1e-12, taking pairs in visit order (-1, -1 when no swap
// improves the cut). Side membership is fixed within a pass, so each
// vertex's external-minus-internal sum d is computed once up front; a pair
// joined by a non-zero weight needs the sums again with its partner left out
// (see swapGain).
//
// With non-negative weights no pair's gain exceeds fl(d_a + d_b): leaving
// the partner out of a sum of non-negative terms, taken in the same order,
// cannot raise the sum, because rounded addition is monotone, and neither
// can subtracting 2w >= 0, fused or not. So a pair whose bound does not beat
// the running best plus 1e-12 cannot be the next best, and swapGain is
// skipped for it; a row of side A is skipped when even the largest d of
// side B cannot make its bound beat it. Skipped pairs would not have moved
// the running best, so the same swap wins as when every pair is scored. A
// NaN bound compares false and is never skipped: the largest d of side B is
// taken with max, which is NaN when any d is.
func (c *partitionCall) bestSwap(order []int) (bestA, bestB int) {
	as, bs := c.as[:0], c.bs[:0]
	maxDB := math.Inf(-1)
	for _, v := range order {
		own := c.side[v]
		var external, internal float64
		ws := c.nbrW[v]
		for i, u := range c.nbrs[v] {
			if !c.inSet[u] {
				continue
			}
			if c.side[u] == own {
				internal += ws[i]
			} else {
				external += ws[i]
			}
		}
		c.d[v], c.in[v] = external-internal, internal
		if own == 0 {
			as = append(as, v)
		} else {
			bs = append(bs, v)
			maxDB = max(maxDB, c.d[v])
		}
	}
	bestA, bestB = -1, -1
	threshold := 1e-12 // the running best gain (none yet: 0) plus 1e-12
	for _, va := range as {
		dA := c.d[va]
		if dA+maxDB <= threshold {
			continue
		}
		row := c.w[va*c.n : (va+1)*c.n]
		for _, vb := range bs {
			bound := dA + c.d[vb]
			if bound <= threshold {
				continue
			}
			// swapGain leaves the partner out of each external sum. For a
			// partner that is not adjacent, or joined by a ±0 weight, that
			// changes no sum (every sum starts at +0), so the bound is
			// exactly swapGain's result.
			g := bound
			if w := row[vb]; w != 0 {
				g = c.swapGain(va, vb, w)
			}
			if g > threshold {
				bestA, bestB = va, vb
				threshold = g + 1e-12
			}
		}
	}
	return bestA, bestB
}

// swapGain returns the reduction in cut weight obtained by swapping va (in
// side 0) with vb (in side 1), joined by weight w. Positive is better.
//
// Each vertex's external sum leaves its partner out before the -2w term is
// applied, so with D = external - internal over all neighbours the gain is
// D_a + D_b - 4w, not the classic Kernighan–Lin D_a + D_b - 2w. Correcting
// it would change which swaps are taken, and with them every partition and
// every synthesis result, so it stays as it is.
func (c *partitionCall) swapGain(va, vb int, w float64) float64 {
	return (c.externalWithout(va, vb) - c.in[va]) + (c.externalWithout(vb, va) - c.in[vb]) - 2*w
}

// externalWithout sums the weights from v to the in-set vertices on the other
// side, leaving skip out, in the fixed neighbour order. v's internal sum
// never includes its partner (which sits on the other side), so the
// pass-wide internal sum c.in[v] needs no such correction.
func (c *partitionCall) externalWithout(v, skip int) float64 {
	var external float64
	own := c.side[v]
	ws := c.nbrW[v]
	for i, u := range c.nbrs[v] {
		if u != skip && c.inSet[u] && c.side[u] != own {
			external += ws[i]
		}
	}
	return external
}

// BlockSizes returns the number of vertices in each block of an assignment
// produced by PartitionK (blocks are assumed to be labelled 0..k-1).
func BlockSizes(assign []int, k int) []int {
	sizes := make([]int, k)
	for _, b := range assign {
		if b >= 0 && b < k {
			sizes[b]++
		}
	}
	return sizes
}

// Blocks groups vertex indices by block identifier, each block in ascending
// vertex order; a block no vertex is assigned to is nil. The blocks are cut
// from one backing array, each with no room to grow into the next.
func Blocks(assign []int, k int) [][]int {
	sizes := BlockSizes(assign, k)
	blocks := make([][]int, k)
	flat, off := make([]int, len(assign)), 0
	for b, size := range sizes {
		if size > 0 {
			blocks[b] = flat[off : off : off+size]
			off += size
		}
	}
	for v, b := range assign {
		if b >= 0 && b < k {
			blocks[b] = append(blocks[b], v)
		}
	}
	return blocks
}
