package main

import (
	"fmt"
	"slices"

	"sunfloor3d"
	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/fault"
	"sunfloor3d/internal/synth"
)

// workloadNames lists the workloads in the order a full run executes them.
var workloadNames = []string{"sweep", "sim", "signoff", "serve"}

// synthJob is one sunfloor3d.Synthesize call of a synthesis workload.
type synthJob struct {
	// label names the call stably across runs; it keys the committed digests.
	label  string
	design *sunfloor3d.Design
	opt    jobOptions
}

// jobOptions is the option set of one call. The facade options a call runs
// with and the engine options the traced replay re-runs the layers with are
// both derived from it, so the two cannot drift apart unnoticed (the replay
// also checks that both give the same fingerprint).
type jobOptions struct {
	freqs   []float64
	space   *sunfloor3d.Space
	lpEvery bool
	sim     *sunfloor3d.SimConfig
	contend bool
	sparing *fault.SparingConfig
	fault   *sunfloor3d.FaultModelConfig
}

// facade returns the public options of the call. Calls run serially, so that
// host time measures the algorithm rather than the scheduler.
func (o jobOptions) facade() []sunfloor3d.Option {
	opts := []sunfloor3d.Option{sunfloor3d.WithParallelism(1), sunfloor3d.WithFrequenciesMHz(o.freqs...)}
	if o.space != nil {
		opts = append(opts, sunfloor3d.WithSpace(*o.space))
	}
	if o.lpEvery {
		opts = append(opts, sunfloor3d.WithLPPlacement(true))
	}
	if o.sim != nil {
		opts = append(opts, sunfloor3d.WithSimulation(*o.sim))
	}
	if o.contend {
		opts = append(opts, sunfloor3d.WithContention())
	}
	if o.sparing != nil {
		opts = append(opts, sunfloor3d.WithSparing(o.sparing.Process, o.sparing.TargetYield))
	}
	if o.fault != nil {
		opts = append(opts, sunfloor3d.WithFaultModel(*o.fault))
	}
	return opts
}

// engine returns the engine options the facade options above produce.
func (o jobOptions) engine() synth.Options {
	opt := synth.DefaultOptions()
	opt.Parallelism = 1
	opt.FrequenciesMHz = o.freqs
	if o.space != nil {
		sp := *o.space
		opt.Space = &sp
	}
	if o.lpEvery {
		opt.RunLPPlacement, opt.LPOnBest = true, false
	}
	opt.Sim = o.sim
	opt.Contend = o.contend
	opt.Sparing = o.sparing
	opt.Fault = o.fault
	return opt
}

// paperFreqs is the classic 400-1000 MHz sweep of the paper's experiments.
var paperFreqs = []float64{400, 500, 600, 700, 800, 900, 1000}

// simCycles is the injection window of the sim workload (the drain budget is
// half of it): long enough for the flit simulator to dominate the workload,
// short enough that a run repeats the four calls four or five times.
const simCycles = 3000

// instance is one benchmark design generated at one seed.
type instance struct {
	gen  func(seed int64) bench.Benchmark
	seed int64
}

func d36x4(seed int64) bench.Benchmark { return bench.D36(4, seed) }

// synthJobs returns the call list of a synthesis workload for a seed. smoke
// selects the reduced list: the first call's design (D_26_media) only, at one
// frequency.
//
// A design's cost varies from seed to seed by up to 15% (the LP's by more),
// so the workloads that have the time take designs from several seeds: no one
// seed's designs then set the pass time.
func synthJobs(workload string, seed int64, smoke bool) ([]synthJob, error) {
	var designs []instance
	var opt jobOptions
	switch workload {
	case "sweep":
		// D_36_6 and D_36_8 (about 4 s and 7 s a call) would let a run
		// repeat the list only once; D_36_4 keeps the distributed family.
		for _, s := range []int64{seed, seed + 1} {
			designs = append(designs, instance{bench.D26Media, s}, instance{d36x4, s},
				instance{bench.D35Bot, s}, instance{bench.D65Pipe, s}, instance{bench.D38TVOPD, s})
		}
		opt = jobOptions{freqs: paperFreqs}
	case "sim":
		sc := sunfloor3d.DefaultSimConfig()
		sc.Profile = sunfloor3d.SimUniform
		sc.Cycles, sc.DrainCycles = simCycles, simCycles/2
		sc.StatsLevel = sunfloor3d.SimStatsSummary
		designs = []instance{{bench.D26Media, seed}, {bench.D35Bot, seed}, {bench.D65Pipe, seed}, {bench.D38TVOPD, seed}}
		opt = jobOptions{freqs: []float64{400, 600, 800}, sim: &sc, contend: true}
	case "signoff":
		proc, err := sunfloor3d.ProcessByName("die-to-wafer")
		if err != nil {
			return nil, err
		}
		// D_36_4 and D_35_bot cost 8-12 s a call here, so D_26_media
		// stands in for them at four seeds, beside D_38_tvopd.
		for s := seed; s < seed+4; s++ {
			designs = append(designs, instance{bench.D26Media, s})
		}
		designs = append(designs, instance{bench.D38TVOPD, seed})
		opt = jobOptions{
			freqs: []float64{400},
			space: &sunfloor3d.Space{Axes: []sunfloor3d.Axis{
				{Name: sunfloor3d.AxisFreqMHz, Values: []float64{400, 800}},
				{Name: sunfloor3d.AxisLinkWidthBits, Values: []float64{32, 128}},
				{Name: sunfloor3d.AxisLayerCount, Values: []float64{2, 3}},
			}},
			lpEvery: true,
			sparing: &fault.SparingConfig{Process: proc, TargetYield: 0.999},
			fault:   &sunfloor3d.FaultModelConfig{Plans: 32, FaultsPerPlan: 2, Seed: seed},
		}
	default:
		return nil, fmt.Errorf("perf: %q is not a synthesis workload", workload)
	}
	if smoke {
		designs = designs[:1]
		opt.freqs = opt.freqs[:1]
		if opt.space != nil {
			sp := sunfloor3d.Space{Axes: slices.Clone(opt.space.Axes)}
			sp.Axes[0].Values = sp.Axes[0].Values[:1] // the frequency axis
			opt.space = &sp
		}
	}
	jobs := make([]synthJob, len(designs))
	for i, d := range designs {
		b := d.gen(d.seed)
		label := fmt.Sprintf("%s/%s/seed%d", workload, b.Name, d.seed)
		if smoke {
			label += "/smoke"
		}
		jobs[i] = synthJob{label: label, design: b.Graph3D, opt: opt}
	}
	return jobs, nil
}
