package synth

import (
	"testing"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/route"
)

// BenchmarkComputePaths times the routing step alone on the inputs the
// synthesis sweep gives it: every topology D_65_pipe's seed-1 sweep over the
// paper's seven frequencies (400-1000 MHz, the frequencies of the benchmark's
// sweep list) reports, with the configuration the sweep routed it with (see
// sweptAttempts), so the theta retries and Phase-2 fallback steps stop at
// their first unroutable flow as they do in the sweep. D_65_pipe is the
// largest design of that list. Before each call the topology drops the
// indirect switches the previous iteration's call inserted, so every
// iteration routes the same inputs.
//
//	go test -run='^$' -bench=ComputePaths -benchmem ./internal/synth
func BenchmarkComputePaths(b *testing.B) {
	opt := DefaultOptions()
	opt.Parallelism = 1
	opt.FrequenciesMHz = []float64{400, 500, 600, 700, 800, 900, 1000}
	attempts := sweptAttempts(b, bench.D65Pipe(1).Graph3D, opt)
	switches := make([]int, len(attempts))
	for i, at := range attempts {
		switches[i] = at.top.NumSwitches()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, at := range attempts {
			at.top.Switches = at.top.Switches[:switches[j]]
			if _, err := route.ComputePaths(at.top, at.cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
