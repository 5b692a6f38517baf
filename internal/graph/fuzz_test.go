package graph

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// fuzzWeights is the weight palette of fuzzGraph: exactly equal weights,
// weights less than 1e-12 apart (the swap search's tie margin), both signed
// zeros, +Inf and NaN, and the small weights the SPG and the LPG add.
var fuzzWeights = []float64{
	0, math.Copysign(0, -1), 1, 1 + 1e-13, 1 - 1e-13, 0.5, 2, math.Inf(1),
	math.NaN(), 1e-3, 0.1, 1e-12, 3e-13, 1.0 / 150, 0.25, 7,
}

// fuzzGraph decodes a fuzz input into a graph and the order in which its
// block counts are partitioned. data[0] sets the vertex count (1..24) and
// data[1] seeds the shuffle of the block counts 1..n. When data[2] is odd,
// every pair of vertices in the same residue class modulo 1+(data[2]>>1)%3
// (an SPG-like "layer") is joined with weight fuzzWeights[data[3]%16], as the
// SPG and the LPG join the cores of a layer. Every further byte triple
// (u, v, w) adds fuzzWeights[w%16] to the edge u%n -> v%n; vertices no edge
// reaches stay isolated.
func fuzzGraph(data []byte) (*Graph, []int) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 1 + int(at(0))%24
	g := New(n)
	if at(2)%2 == 1 {
		layers := 1 + int(at(2)>>1)%3
		w := fuzzWeights[at(3)%16]
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if u%layers == v%layers {
					g.AddEdge(u, v, w)
				}
			}
		}
	}
	for i := 4; i+2 < len(data); i += 3 {
		g.AddEdge(int(data[i])%n, int(data[i+1])%n, fuzzWeights[data[i+2]%16])
	}
	ks := make([]int, n)
	for i := range ks {
		ks[i] = i + 1
	}
	rng := rand.New(rand.NewSource(int64(at(1))))
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return g, ks
}

// fuzzSeed encodes a fuzzGraph input.
func fuzzSeed(n, shuffle, dense, denseW byte, edges ...[3]byte) []byte {
	data := []byte{n - 1, shuffle, dense, denseW}
	for _, e := range edges {
		data = append(data, e[:]...)
	}
	return data
}

// FuzzPartitionMatchesReference checks the shared Partitioner against the
// reference partitioner of reference_test.go, which builds its view afresh
// for every call and scores every pair in every refinement pass: for every
// block count k in [1, n], taken in shuffled order on one Partitioner so
// that state leaking from one call into the next fails, the assignments
// must be identical.
func FuzzPartitionMatchesReference(f *testing.F) {
	// Dense SPG-like graphs: two or three "layers" of equally weighted
	// cliques, with and without heavier edges across them.
	f.Add(fuzzSeed(20, 1, 3, 13))
	f.Add(fuzzSeed(24, 2, 5, 2, [3]byte{0, 1, 6}, [3]byte{2, 3, 6}, [3]byte{4, 5, 15}, [3]byte{1, 6, 2}))
	f.Add(fuzzSeed(16, 3, 1, 9, [3]byte{0, 8, 2}, [3]byte{1, 9, 2}, [3]byte{2, 10, 2}))
	// Weights less than 1e-12 apart, so swap gains tie within the margin.
	f.Add(fuzzSeed(10, 4, 0, 0, [3]byte{0, 1, 2}, [3]byte{1, 2, 3}, [3]byte{2, 3, 4}, [3]byte{3, 4, 2},
		[3]byte{4, 5, 3}, [3]byte{5, 6, 4}, [3]byte{6, 7, 11}, [3]byte{7, 8, 12}, [3]byte{8, 9, 2}, [3]byte{9, 0, 3}))
	f.Add(fuzzSeed(12, 5, 3, 3, [3]byte{0, 6, 4}, [3]byte{1, 7, 2}))
	f.Add(fuzzSeed(9, 0, 0, 0, [3]byte{4, 5, 2}, [3]byte{3, 7, 11}, [3]byte{3, 1, 11}))
	// Signed zeros, alone and next to positive weights.
	f.Add(fuzzSeed(8, 6, 1, 1, [3]byte{0, 1, 0}, [3]byte{1, 2, 1}, [3]byte{2, 3, 2}, [3]byte{3, 0, 1}))
	f.Add(fuzzSeed(6, 7, 0, 0, [3]byte{0, 1, 1}, [3]byte{1, 0, 0}, [3]byte{2, 3, 0}, [3]byte{4, 5, 1}))
	// +Inf and NaN weights.
	f.Add(fuzzSeed(9, 8, 0, 0, [3]byte{0, 1, 7}, [3]byte{1, 2, 2}, [3]byte{2, 3, 6}, [3]byte{3, 4, 7}, [3]byte{5, 6, 5}))
	f.Add(fuzzSeed(9, 9, 0, 0, [3]byte{0, 1, 8}, [3]byte{1, 2, 2}, [3]byte{2, 3, 6}, [3]byte{3, 4, 8}, [3]byte{5, 6, 5}))
	f.Add(fuzzSeed(14, 10, 3, 7, [3]byte{0, 1, 8}, [3]byte{3, 4, 2}))
	f.Add(fuzzSeed(14, 11, 5, 8, [3]byte{0, 1, 7}, [3]byte{3, 4, 2}))
	// Isolated vertices: a few edges among the first vertices only, and
	// no edge at all.
	f.Add(fuzzSeed(12, 12, 0, 0, [3]byte{0, 1, 6}, [3]byte{1, 2, 2}, [3]byte{2, 0, 5}))
	f.Add(fuzzSeed(7, 13, 0, 0))
	f.Add(fuzzSeed(1, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, ks := fuzzGraph(data)
		p := NewPartitioner(g)
		for _, k := range ks {
			got, want := p.PartitionK(k), refPartitionK(g, k)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d (order %v): assignment %v, reference %v", g.NumVertices(), k, ks, got, want)
			}
		}
	})
}

// TestPartitionerConcurrentCalls runs every block count of one Partitioner
// at once and requires the assignments of serial calls: the view is shared
// and read-only, and each call has scratch of its own.
func TestPartitionerConcurrentCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New(30)
	for i := 0; i < 200; i++ {
		g.AddEdge(rng.Intn(30), rng.Intn(30), float64(1+rng.Intn(4)))
	}
	p := NewPartitioner(g)
	got := make([][]int, g.NumVertices()+1)
	var wg sync.WaitGroup
	for k := 1; k <= g.NumVertices(); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k] = p.PartitionK(k)
		}(k)
	}
	wg.Wait()
	for k := 1; k <= g.NumVertices(); k++ {
		if want := PartitionK(g, k); !slices.Equal(got[k], want) {
			t.Errorf("k=%d: concurrent call %v, serial %v", k, got[k], want)
		}
	}
}

// poisonedCall returns call scratch for p whose every cell holds what no
// call leaves behind: NaN weights, vertex numbers out of range, every set
// and visited mark set and sides that are neither 0 nor 1.
func poisonedCall(p *Partitioner) *partitionCall {
	c := p.newCall()
	for _, s := range [][]int{c.verts, c.order, c.rem, c.as, c.bs} {
		for i := range s {
			s[i] = p.n + i
		}
	}
	for _, s := range [][]bool{c.inSet, c.visited} {
		for i := range s {
			s[i] = true
		}
	}
	for i := range c.side {
		c.side[i] = 7
	}
	for _, s := range [][]float64{c.inc, c.d, c.in} {
		for i := range s {
			s[i] = math.NaN()
		}
	}
	return c
}

// TestReusedCallScratchMatchesFresh checks that a call on scratch an earlier
// call left behind partitions exactly like one on new scratch: for every
// block count of graphs decoded from the fuzz seeds, a call on poisoned
// scratch (see poisonedCall), handed to it directly and through the pool
// PartitionK draws from, must return the assignment of a call on a new
// Partitioner.
func TestReusedCallScratchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, 4+3*rng.Intn(40))
		rng.Read(data)
		g, ks := fuzzGraph(data)
		p := NewPartitioner(g)
		for _, k := range ks {
			want := NewPartitioner(g).PartitionK(k)
			got := make([]int, g.NumVertices())
			poisonedCall(p).partition(k, got)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, n=%d k=%d: on reused scratch %v, on new scratch %v", trial, g.NumVertices(), k, got, want)
			}
			p.calls.Put(poisonedCall(p))
			if got := p.PartitionK(k); !slices.Equal(got, want) {
				t.Fatalf("trial %d, n=%d k=%d: after a poisoned pool entry %v, on new scratch %v", trial, g.NumVertices(), k, got, want)
			}
		}
	}
}

// TestAddEdgeRejectsNegativeWeight checks that a negative weight panics: the
// partitioner's bound on swap gains holds only for non-negative weights.
func TestAddEdgeRejectsNegativeWeight(t *testing.T) {
	for _, w := range []float64{-1, -1e-300, math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge accepted weight %g", w)
				}
			}()
			New(2).AddEdge(0, 1, w)
		}()
	}
	g := New(2)
	g.AddEdge(0, 1, math.Copysign(0, -1)) // -0 is not negative
	g.AddEdge(0, 1, math.NaN())
}
