package synth

import (
	"context"
	"testing"

	"sunfloor3d/internal/bench"
)

// TestPartitionCacheBuildsOnePartitionerPerGraph checks that a run builds
// the dense view of each partitioning graph once, however many block counts
// and frequencies partition it: over D_38_tvopd's seven-frequency sweep, and
// over its Phase-2 sweep, which partitions every LPG, the partition cache
// builds exactly one graph.Partitioner per distinct graph (the PG, each SPG
// the theta retries reach and each LPG), while it computes many more
// partitions than that. The sweeps run as SynthesizeContext runs them, one
// sweep value per frequency on one cache, and must make the lookups of
// Synthesize itself, whose bytes and Result.Cache must not depend on the
// parallelism.
func TestPartitionCacheBuildsOnePartitionerPerGraph(t *testing.T) {
	g := bench.D38TVOPD(1).Graph3D
	for _, phase := range []Phase{PhaseAuto, Phase2Only} {
		opt := DefaultOptions()
		opt.FrequenciesMHz = []float64{400, 500, 600, 700, 800, 900, 1000}
		opt.Phase = phase

		counts := make([]int, g.NumCores())
		for i := range counts {
			counts[i] = i + 1
		}
		p := newPool(context.Background(), opt)
		cache := newPartitionCache(g, opt.Partition)
		for _, f := range opt.FrequenciesMHz {
			if _, err := (&sweep{g: g, freq: f, opt: opt, counts: counts, cache: cache, p: p}).run(); err != nil {
				t.Fatal(err)
			}
		}
		p.close()

		graphs := len(cache.graphs)
		if set, built := cache.lpgs[struct{}{}]; built {
			graphs += len(set.v.lpgs)
		}
		stats := cache.stats()
		if got := int(cache.partitioners.Load()); got != graphs {
			t.Errorf("%s: built %d partitioners for %d distinct graphs", phase, got, graphs)
		}
		if stats.Misses <= 2*graphs {
			t.Fatalf("%s: %d partitions of %d graphs: too few to show sharing", phase, stats.Misses, graphs)
		}
		t.Logf("%s: %d graphs, cache %+v", phase, graphs, stats)

		var want []byte
		for _, par := range []int{1, 4} {
			o := opt
			o.Parallelism = par
			res, err := Synthesize(g, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cache != stats {
				t.Errorf("%s, Parallelism %d: Result.Cache %+v, the counted sweeps %+v", phase, par, res.Cache, stats)
			}
			if b := pointBytes(t, res); want == nil {
				want = b
			} else if string(b) != string(want) {
				t.Errorf("%s, Parallelism %d: points differ from the serial run's", phase, par)
			}
		}
	}
}
