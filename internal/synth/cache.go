package synth

import (
	"sync"
	"sync/atomic"

	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/partition"
)

// partitionCache shares the min-cut partitioning work of Algorithms 1 and 2
// across the whole frequency sweep. The PG, the SPGs of the theta sweep, the
// per-layer LPGs and every (graph, k) partition depend only on the
// communication graph and the partitioning parameters — never on the
// operating frequency — so each is computed exactly once per run and shared
// read-only between all frequencies and pool workers. Each graph is built
// together with its graph.Partitioner, the dense view every partition of the
// graph reads, so a graph's view is built once however many block counts
// the sweep asks of it; the views live as long as the cache, which is one
// run's. Synchronisation is a per-entry sync.Once: distinct keys compute in
// parallel, concurrent requests for the same key block until the first
// computation lands. The partitioner is deterministic, so a cached result is
// exactly what a fresh computation would return and serial and parallel
// runs produce byte-identical results.
type partitionCache struct {
	g   *model.CommGraph
	par partition.Params

	mu         sync.Mutex
	graphs     map[float64]*onceEntry[partGraph] // theta (0 = plain PG) -> PG or SPG
	assigns    map[assignKey]*onceEntry[[]int]
	lpgs       map[struct{}]*onceEntry[layerSet] // the one LPG set
	lpgAssigns map[assignKey]*onceEntry[map[int]int]
	hits       int
	misses     int

	// partitioners counts the Partitioners built, one per distinct graph.
	partitioners atomic.Int64
}

// partGraph is a PG or an SPG with its Partitioner.
type partGraph struct {
	g *graph.Graph
	p *graph.Partitioner
}

// layerSet is the LPG of every layer with the Partitioner of each.
type layerSet struct {
	lpgs  []partition.LPG
	parts []*graph.Partitioner
}

// assignKey identifies one partitioning request: the scaling factor of the
// graph it runs on (theta 0 = plain PG; for LPGs the layer index) and the
// number of blocks.
type assignKey struct {
	theta float64
	k     int
}

// onceEntry is one cached value, computed by the first lookup of its key.
type onceEntry[V any] struct {
	once sync.Once
	v    V
}

// CacheStats reports the partition-cache activity of one synthesis run.
type CacheStats struct {
	// Hits is the number of lookups answered from the cache.
	Hits int
	// Misses is the number of lookups that had to compute their entry.
	Misses int
}

func newPartitionCache(g *model.CommGraph, par partition.Params) *partitionCache {
	return &partitionCache{
		g:          g,
		par:        par,
		graphs:     make(map[float64]*onceEntry[partGraph]),
		assigns:    make(map[assignKey]*onceEntry[[]int]),
		lpgs:       make(map[struct{}]*onceEntry[layerSet]),
		lpgAssigns: make(map[assignKey]*onceEntry[map[int]int]),
	}
}

// lookup returns the value of key in m, computing it with build on the
// key's first lookup; concurrent lookups of one key wait for that one
// computation. hit reports whether the entry existed before this call, so
// the lookup that created an entry is its one miss whichever goroutine wins
// the once, and the counts do not depend on scheduling. lookup counts
// nothing itself: each accessor counts its callers' lookups.
func lookup[K comparable, V any](c *partitionCache, m map[K]*onceEntry[V], key K, build func() V) (v V, hit bool) {
	c.mu.Lock()
	e, hit := m[key]
	if !hit {
		e = &onceEntry[V]{}
		m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v, hit
}

// stats returns a snapshot of the hit/miss counters.
func (c *partitionCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses}
}

func (c *partitionCache) count(hit bool) {
	c.mu.Lock()
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
}

// newPartitioner builds and counts the Partitioner of g.
func (c *partitionCache) newPartitioner(g *graph.Graph) *graph.Partitioner {
	c.partitioners.Add(1)
	return graph.NewPartitioner(g)
}

// pg returns the Partitioner of the partitioning graph for the given theta:
// the plain PG of Definition 3 when theta is 0, the scaled SPG of
// Definition 4 otherwise. Exactly one hit or miss is counted per call (hits
// + misses equals the number of caller lookups): the SPG's internal
// dependency on the PG goes through the uncounted graph accessor.
func (c *partitionCache) pg(theta float64) *graph.Partitioner {
	pg, hit := c.graph(theta)
	c.count(hit)
	return pg.p
}

// graph is pg without the count, returning the graph too.
func (c *partitionCache) graph(theta float64) (partGraph, bool) {
	return lookup(c, c.graphs, theta, func() partGraph {
		var g *graph.Graph
		if theta == 0 {
			g = partition.BuildPG(c.g, c.par.Alpha)
		} else {
			base, _ := c.graph(0)
			g = partition.BuildSPGFrom(base.g, c.g, theta, c.par.ThetaMax)
		}
		return partGraph{g: g, p: c.newPartitioner(g)}
	})
}

// coreAssignment returns the k-way partition of the given whole-design PG
// (theta 0) or SPG (theta > 0). pg must be the Partitioner c.pg(theta)
// returns. The returned slice is shared: callers must not mutate it.
func (c *partitionCache) coreAssignment(pg *graph.Partitioner, theta float64, k int) []int {
	assign, hit := lookup(c, c.assigns, assignKey{theta: theta, k: k}, func() []int { return pg.PartitionK(k) })
	c.count(hit)
	return assign
}

// layerGraphs returns the per-layer LPGs of Definition 5. The first caller
// counts the (single) miss and every other call is a hit.
func (c *partitionCache) layerGraphs() []partition.LPG {
	set, hit := c.layers()
	c.count(hit)
	return set.lpgs
}

// layers is layerGraphs without the count, returning the Partitioners too.
func (c *partitionCache) layers() (layerSet, bool) {
	return lookup(c, c.lpgs, struct{}{}, func() layerSet {
		set := layerSet{lpgs: partition.BuildLPGs(c.g, c.par)}
		set.parts = make([]*graph.Partitioner, len(set.lpgs))
		for i, l := range set.lpgs {
			set.parts[i] = c.newPartitioner(l.Graph)
		}
		return set
	})
}

// lpgAssignment returns the np-way partition of one layer's LPG as a core ->
// block map; l must be entry layerIdx of layerGraphs. The returned map is
// shared: callers must not mutate it.
func (c *partitionCache) lpgAssignment(layerIdx int, l partition.LPG, np int) map[int]int {
	assign, hit := lookup(c, c.lpgAssigns, assignKey{theta: float64(layerIdx), k: np}, func() map[int]int {
		set, _ := c.layers()
		return partition.PartitionLPGWith(l, set.parts[layerIdx], np)
	})
	c.count(hit)
	return assign
}
