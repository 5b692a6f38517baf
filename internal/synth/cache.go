package synth

import (
	"sync"

	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/partition"
)

// partitionCache shares the min-cut partitioning work of Algorithms 1 and 2
// across the whole frequency sweep. The PG, the SPGs of the theta sweep, the
// per-layer LPGs and every (graph, k) partition depend only on the
// communication graph and the partitioning parameters — never on the
// operating frequency — so each is computed exactly once per run and shared
// read-only between all frequencies and pool workers. Synchronisation is a
// per-entry sync.Once: distinct keys compute in parallel, concurrent requests
// for the same key block until the first computation lands. The partitioner
// is deterministic, so a cached result is exactly what a fresh computation
// would return and serial and parallel runs produce byte-identical results.
type partitionCache struct {
	g   *model.CommGraph
	par partition.Params

	mu         sync.Mutex
	graphs     map[float64]*onceEntry[*graph.Graph] // theta (0 = plain PG) -> PG or SPG
	assigns    map[assignKey]*onceEntry[[]int]
	lpgs       map[struct{}]*onceEntry[[]partition.LPG] // the one LPG set
	lpgAssigns map[assignKey]*onceEntry[map[int]int]
	hits       int
	misses     int
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
		graphs:     make(map[float64]*onceEntry[*graph.Graph]),
		assigns:    make(map[assignKey]*onceEntry[[]int]),
		lpgs:       make(map[struct{}]*onceEntry[[]partition.LPG]),
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

// pg returns the partitioning graph for the given theta: the plain PG of
// Definition 3 when theta is 0, the scaled SPG of Definition 4 otherwise.
// Exactly one hit or miss is counted per call (hits + misses equals the
// number of caller lookups): the SPG's internal dependency on the PG goes
// through the uncounted graph accessor.
func (c *partitionCache) pg(theta float64) *graph.Graph {
	g, hit := c.graph(theta)
	c.count(hit)
	return g
}

// graph is pg without the count.
func (c *partitionCache) graph(theta float64) (*graph.Graph, bool) {
	return lookup(c, c.graphs, theta, func() *graph.Graph {
		if theta == 0 {
			return partition.BuildPG(c.g, c.par.Alpha)
		}
		base, _ := c.graph(0)
		return partition.BuildSPGFrom(base, c.g, theta, c.par.ThetaMax)
	})
}

// coreAssignment returns the k-way partition of the given whole-design PG
// (theta 0) or SPG (theta > 0). pg must be the graph c.pg(theta) returns.
// The returned slice is shared: callers must not mutate it.
func (c *partitionCache) coreAssignment(pg *graph.Graph, theta float64, k int) []int {
	assign, hit := lookup(c, c.assigns, assignKey{theta: theta, k: k}, func() []int { return partition.PartitionCores(pg, k) })
	c.count(hit)
	return assign
}

// layerGraphs returns the per-layer LPGs of Definition 5. The first caller
// counts the (single) miss and every other call is a hit.
func (c *partitionCache) layerGraphs() []partition.LPG {
	lpgs, hit := lookup(c, c.lpgs, struct{}{}, func() []partition.LPG { return partition.BuildLPGs(c.g, c.par) })
	c.count(hit)
	return lpgs
}

// lpgAssignment returns the np-way partition of one layer's LPG as a core ->
// block map. The returned map is shared: callers must not mutate it.
func (c *partitionCache) lpgAssignment(layerIdx int, l partition.LPG, np int) map[int]int {
	assign, hit := lookup(c, c.lpgAssigns, assignKey{theta: float64(layerIdx), k: np}, func() map[int]int { return partition.PartitionLPG(l, np) })
	c.count(hit)
	return assign
}
