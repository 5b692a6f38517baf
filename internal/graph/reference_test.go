package graph

// The reference partitioner: the per-call build and the every-pair swap
// scan the partitioner ran before its view was shared across calls and its
// swap search bounded. Every call builds the dense view and the scratch
// afresh, and every refinement pass scores every (side A, side B) pair. It
// is the oracle of FuzzPartitionMatchesReference, which checks that the
// production partitioner returns the same assignment for every block count.
// The type and the entry point are renamed (partitioner → refPartitioner,
// PartitionK → refPartitionK); the methods are as they were, and
// balancedSplit and byWeightDesc, which are unchanged, are shared.

import (
	"fmt"
	"slices"
)

// refPartitioner is the dense view of one refPartitionK call's graph, treated as
// undirected, together with the vertex-indexed scratch every bisection of
// the call reuses.
type refPartitioner struct {
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

// newRefPartitioner builds the dense undirected view of g: cell (u, v) sums the
// weights of the directed edges u->v and v->u in ascending order of their
// source vertex, exactly as Graph.Undirected does.
func newRefPartitioner(g *Graph) *refPartitioner {
	n := g.n
	p := &refPartitioner{n: n, w: make([]float64, n*n), nbrs: make([][]int, n), nbrW: make([][]float64, n)}
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

	ints := make([]int, 5*n)
	p.verts, p.order, p.rem, p.as, p.bs = ints[:n], ints[n:2*n], ints[2*n:3*n], ints[3*n:4*n], ints[4*n:]
	for v := range p.verts {
		p.verts[v] = v
	}
	bools := make([]bool, 2*n)
	p.inSet, p.visited = bools[:n], bools[n:]
	p.side = make([]int8, n)
	floats := make([]float64, 3*n)
	p.inc, p.d, p.in = floats[:n], floats[n:2*n], floats[2*n:]
	return p
}

// refPartitionK partitions the vertices of g into k balanced blocks minimising
// the weight of edges cut between blocks (heuristically). It returns a slice
// assign with assign[v] in [0,k) for every vertex v. The directed graph is
// treated as undirected for cut purposes.
//
// refPartitionK panics if k is not in [1, NumVertices()] — callers sweep k over
// exactly that range.
func refPartitionK(g *Graph, k int) []int {
	n := g.NumVertices()
	if k < 1 || (k > n && n > 0) {
		panic(fmt.Sprintf("graph: PartitionK with k=%d for %d vertices", k, n))
	}
	assign := make([]int, n)
	if k <= 1 || n == 0 {
		return assign
	}
	p := newRefPartitioner(g)
	p.partitionRec(p.verts, k, 0, assign)
	return assign
}

// partitionRec assigns block identifiers [base, base+k) to the given vertices.
func (p *refPartitioner) partitionRec(verts []int, k, base int, assign []int) {
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
	p.bisect(verts, sizeA)
	p.partitionRec(verts[:sizeA], kA, base, assign)
	p.partitionRec(verts[sizeA:], kB, base+kA, assign)
}

// bisect splits verts into two groups of sizes sizeA and len(verts)-sizeA
// minimising the cut between them (heuristically). It rewrites verts in
// place: side A, ascending, in verts[:sizeA] and side B, ascending, after it.
func (p *refPartitioner) bisect(verts []int, sizeA int) {
	n := len(verts)
	if sizeA <= 0 || sizeA >= n {
		return
	}
	for _, v := range verts {
		p.inSet[v] = true
	}

	// Seed side A with a BFS from the vertex with the heaviest incident
	// weight inside this sub-problem. Growing a connected cluster keeps
	// highly-communicating cores together, which is exactly what the paper
	// wants from the min-cut refPartitioner.
	order := p.bfsOrder(verts)
	for i, v := range order {
		if i < sizeA {
			p.side[v] = 0
		} else {
			p.side[v] = 1
		}
	}

	// Kernighan–Lin style pairwise swap refinement: repeatedly perform the
	// swap with the best positive gain until no swap improves the cut.
	for pass := 0; pass < 2*n+4; pass++ {
		bestA, bestB := p.bestSwap(order)
		if bestA < 0 {
			break
		}
		p.side[bestA], p.side[bestB] = 1, 0
	}

	a, b := verts[:0], verts[sizeA:sizeA]
	for _, v := range order {
		if p.side[v] == 0 {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
		p.inSet[v] = false
	}
	slices.Sort(a)
	slices.Sort(b)
}

// bfsOrder returns the vertices of the sub-problem in BFS order starting from
// the vertex with the largest incident weight, visiting neighbours in order
// of decreasing connecting weight. Vertices unreachable from the seed are
// appended by the same criterion. The result aliases p.order.
func (p *refPartitioner) bfsOrder(verts []int) []int {
	// Incident weight inside the sub-problem, summed in the fixed neighbour
	// order: the refPartitioner must be bit-deterministic because the engine's
	// cached and uncached sweeps both rely on recomputing identical
	// partitions, and ULP-level differences can flip the sort below.
	inc := p.inc
	for _, v := range verts {
		var w float64
		ws := p.nbrW[v]
		for i, u := range p.nbrs[v] {
			if p.inSet[u] {
				w += ws[i]
			}
		}
		inc[v] = w
	}
	remaining := append(p.rem[:0], verts...)
	slices.SortFunc(remaining, func(x, y int) int {
		return byWeightDesc(inc[x], inc[y], x, y)
	})

	// The order doubles as the BFS queue: vertices are dequeued in the order
	// they were enqueued.
	order := p.order[:0]
	for _, seed := range remaining {
		if p.visited[seed] {
			continue
		}
		p.visited[seed] = true
		order = append(order, seed)
		for head := len(order) - 1; head < len(order); head++ {
			u := order[head]
			next := len(order)
			for _, v := range p.nbrs[u] {
				if p.inSet[v] && !p.visited[v] {
					p.visited[v] = true
					order = append(order, v)
				}
			}
			// Visit neighbours by decreasing edge weight for determinism and
			// cluster quality.
			row := p.w[u*p.n : (u+1)*p.n]
			slices.SortFunc(order[next:], func(x, y int) int {
				return byWeightDesc(row[x], row[y], x, y)
			})
		}
	}
	for _, v := range verts {
		p.visited[v] = false
	}
	return order
}

// bestSwap scores every (side A, side B) pair in visit order and returns the
// pair with the largest gain above the running best plus 1e-12 (-1, -1 when
// no swap improves the cut). Side membership is fixed within a pass, so each
// vertex's external and internal sums are computed once up front; only a
// pair joined by a non-zero weight needs the sums again with its partner left
// out (see swapGain).
func (p *refPartitioner) bestSwap(order []int) (bestA, bestB int) {
	as, bs := p.as[:0], p.bs[:0]
	for _, v := range order {
		own := p.side[v]
		var external, internal float64
		ws := p.nbrW[v]
		for i, u := range p.nbrs[v] {
			if !p.inSet[u] {
				continue
			}
			if p.side[u] == own {
				internal += ws[i]
			} else {
				external += ws[i]
			}
		}
		p.d[v], p.in[v] = external-internal, internal
		if own == 0 {
			as = append(as, v)
		} else {
			bs = append(bs, v)
		}
	}
	bestGain := 0.0
	bestA, bestB = -1, -1
	for _, va := range as {
		dA, row := p.d[va], p.w[va*p.n:(va+1)*p.n]
		for _, vb := range bs {
			w := row[vb]
			// swapGain leaves the partner out of each external sum. For a
			// partner that is not adjacent, or joined by a ±0 weight, that
			// changes no sum (every sum starts at +0), so the pass-wide
			// sums give exactly swapGain's result.
			g := dA + p.d[vb] - 2*w
			if w != 0 {
				g = p.swapGain(va, vb, w)
			}
			if g > bestGain+1e-12 {
				bestGain, bestA, bestB = g, va, vb
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
func (p *refPartitioner) swapGain(va, vb int, w float64) float64 {
	return (p.externalWithout(va, vb) - p.in[va]) + (p.externalWithout(vb, va) - p.in[vb]) - 2*w
}

// externalWithout sums the weights from v to the in-set vertices on the other
// side, leaving skip out, in the fixed neighbour order. v's internal sum
// never includes its partner (which sits on the other side), so the
// pass-wide internal sum p.in[v] needs no such correction.
func (p *refPartitioner) externalWithout(v, skip int) float64 {
	var external float64
	own := p.side[v]
	ws := p.nbrW[v]
	for i, u := range p.nbrs[v] {
		if u != skip && p.inSet[u] && p.side[u] != own {
			external += ws[i]
		}
	}
	return external
}
