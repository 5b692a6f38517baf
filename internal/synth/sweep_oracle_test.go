package synth

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/workload"
)

// phase1SweepAll is Algorithm 1 built exhaustively over the sweep s: every
// theta retry of every unmet slot and every Phase-2 step of the fallback,
// whether or not its outcome is decided before it runs. It is the reference
// that TestPhase1SweepMatchesExhaustive holds sweep.phase1 to, for sweeps
// without a branch-and-bound hook.
func phase1SweepAll(s *sweep, fallbackPhase2 bool) ([]DesignPoint, error) {
	counts := s.counts
	pg := s.cache.pg(0)
	points := make([]DesignPoint, len(counts))
	err := s.p.forEach(len(counts),
		func(i int) DesignPoint {
			return timed(func() DesignPoint {
				return s.phase1Point(s.cache.coreAssignment(pg, 0, counts[i]), counts[i], 0)
			})
		},
		func(i int, dp DesignPoint) { points[i] = dp })
	if err != nil {
		return nil, err
	}
	var unmet []int // slots
	for i := range points {
		// Pruned stubs are proven unable to reach the front or the best
		// point, so they are never retried by theta rescaling or the Phase-2
		// fallback either.
		if !points[i].Valid && !points[i].Pruned {
			unmet = append(unmet, i)
		}
	}

	// Theta scaling loop (steps 11-19 of Algorithm 1).
	if len(unmet) > 0 && s.g.NumLayers() > 1 {
		for _, theta := range s.opt.Partition.ThetaSweep() {
			if len(unmet) == 0 {
				break
			}
			spg := s.cache.pg(theta)
			retried := make([]DesignPoint, len(unmet))
			err := s.p.forEach(len(unmet),
				func(j int) DesignPoint {
					return timed(func() DesignPoint {
						return s.phase1Point(s.cache.coreAssignment(spg, theta, counts[unmet[j]]), counts[unmet[j]], theta)
					})
				},
				func(j int, dp DesignPoint) { retried[j] = dp })
			if err != nil {
				return nil, err
			}
			var still []int
			for j, dp := range retried {
				if dp.Valid {
					points[unmet[j]] = dp
				} else {
					still = append(still, unmet[j])
				}
			}
			unmet = still
		}
	}

	// Optional Phase-2 fallback for counts that even the SPG could not fix.
	if fallbackPhase2 && len(unmet) > 0 && s.g.NumLayers() > 1 {
		lpgs, minPerLayer, maxExtra := s.phase2Plan()
		steps := make([]int, maxExtra+1)
		for e := range steps {
			steps[e] = e
		}
		p2, err := s.phase2(lpgs, minPerLayer, steps, false)
		if err != nil {
			return nil, err
		}
		for _, i := range unmet {
			// Find a valid Phase-2 point with a comparable total switch count.
			for _, dp := range p2 {
				if dp.Valid && dp.SwitchCount == counts[i] {
					points[i] = dp
					break
				}
			}
		}
	}
	return points, nil
}

// attemptID is one design-point build as the progress stream reports it.
type attemptID struct {
	freq  float64
	phase int
	count int
	theta float64
}

// sweepRun is one side of the oracle comparison: the serialised retained
// points of every frequency and the attempts the progress stream reported.
type sweepRun struct {
	points   []byte
	attempts map[attemptID]int
}

// runSweep runs one Algorithm 1 implementation, phase1, on a sweep value per
// frequency of freqs, all on one fresh partition cache and a pool of the
// given parallelism.
func runSweep(t *testing.T, g *model.CommGraph, freqs []float64, phase Phase, parallelism int,
	phase1 func(*sweep, bool) ([]DesignPoint, error)) sweepRun {
	t.Helper()
	opt := DefaultOptions()
	opt.Parallelism = parallelism
	counts := make([]int, g.NumCores())
	for i := range counts {
		counts[i] = i + 1
	}
	run := sweepRun{attempts: map[attemptID]int{}}
	opt.Progress = func(ev Event) {
		p := ev.Point
		run.attempts[attemptID{p.FreqMHz, p.Phase, p.SwitchCount, p.Theta}]++
	}
	p := newPool(context.Background(), opt)
	defer p.close()
	cache := newPartitionCache(g, opt.Partition)
	var retained []Point
	for _, f := range freqs {
		pts, err := phase1(&sweep{g: g, freq: f, opt: opt, counts: counts, cache: cache, p: p}, phase == PhaseAuto)
		if err != nil {
			t.Fatal(err)
		}
		for _, dp := range pts {
			retained = append(retained, dp.Point)
		}
	}
	b, err := json.Marshal(retained)
	if err != nil {
		t.Fatal(err)
	}
	run.points = b
	return run
}

// TestPhase1SweepMatchesExhaustive checks that skipping the decided attempts
// of Algorithm 1 (theta retries that repeat a tried core assignment, Phase-2
// fallback steps whose switch count no unmet slot needs) is exact:
// sweep.phase1 retains byte-identical points to the exhaustive phase1SweepAll
// and builds only attempts the exhaustive sweep also builds. The paper
// benchmarks run at the seven paper frequencies under the automatic policy,
// on four workers; the generated designs of every shape, at two and three
// layers, run at three of them under the automatic and the Phase-1-only
// policy, serially and on four workers. (The serial sweep of the paper
// benchmarks is pinned by the golden corpus and the benchmark's digests.)
// The exhaustive sweep runs on four workers to keep the test short: its
// points, like sweep.phase1's, do not depend on the parallelism.
func TestPhase1SweepMatchesExhaustive(t *testing.T) {
	paperFreqs := []float64{400, 500, 600, 700, 800, 900, 1000}
	type input struct {
		name     string
		g        *model.CommGraph
		freqs    []float64
		phases   []Phase
		parallel []int
	}
	var inputs []input
	for _, b := range []struct {
		bm   bench.Benchmark
		seed int
	}{{bench.D26Media(1), 1}, {bench.D38TVOPD(1), 1}, {bench.D65Pipe(1), 1}, {bench.D36(4, 2), 2}} {
		inputs = append(inputs, input{fmt.Sprintf("%s/seed%d", b.bm.Name, b.seed), b.bm.Graph3D, paperFreqs, []Phase{PhaseAuto}, []int{4}})
	}
	for _, shape := range workload.Shapes() {
		for layers := 2; layers <= 3; layers++ {
			bm, err := workload.Generate(workload.Spec{Shape: shape, Cores: 20, Layers: layers, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{fmt.Sprintf("%s/L%d", shape, layers), bm.Graph3D, []float64{400, 700, 1000}, []Phase{PhaseAuto, Phase1Only}, []int{1, 4}})
		}
	}

	// skipped counts the attempts the first run of each input and policy
	// did not build, by phase.
	skipped := map[int]int{}
	for _, in := range inputs {
		for _, phase := range in.phases {
			want := runSweep(t, in.g, in.freqs, phase, 4, phase1SweepAll)
			for i, par := range in.parallel {
				name := fmt.Sprintf("%s/%s/parallelism=%d", in.name, phase, par)
				got := runSweep(t, in.g, in.freqs, phase, par, (*sweep).phase1)
				if !bytes.Equal(got.points, want.points) {
					t.Errorf("%s: retained points differ from the exhaustive sweep (%d vs %d bytes)",
						name, len(got.points), len(want.points))
				}
				for id, c := range got.attempts {
					if want.attempts[id] < c {
						t.Errorf("%s: attempt %+v built %d times, the exhaustive sweep %d", name, id, c, want.attempts[id])
					}
				}
				if i == 0 {
					for id, c := range want.attempts {
						skipped[id.phase] += c - got.attempts[id]
					}
				}
			}
		}
	}
	// Both rules must have fired, or the comparison proves nothing about
	// them.
	if skipped[1] == 0 || skipped[2] == 0 {
		t.Errorf("skipped %d theta retries and %d Phase-2 steps, want both > 0", skipped[1], skipped[2])
	}
	t.Logf("skipped %d theta retries and %d Phase-2 steps", skipped[1], skipped[2])
}
