// Package bench generates the SoC benchmarks used in the paper's evaluation:
//
//   - D_26_media — a 26-core multimedia and wireless SoC on three layers
//     (ARM, DSPs, memories, DMA, peripherals) with irregular core sizes;
//   - D_36_4, D_36_6, D_36_8 — distributed benchmarks with 18 processors and
//     18 memories where each processor talks to 4, 6 or 8 memories, with the
//     same total bandwidth in all three;
//   - D_35_bot — a bottleneck benchmark with 16 processors, 16 private
//     memories and 3 shared memories all processors access;
//   - D_65_pipe and D_38_tvopd — pipelined benchmarks in which each core
//     communicates with one or a few neighbours.
//
// The original benchmarks are not publicly distributed, so these generators
// reproduce the published structure (core counts, communication patterns,
// bandwidth distribution, layer counts) rather than the exact numbers; the
// relative behaviour of the synthesis flow on them is what matters for the
// paper's experiments. Every generator is deterministic for a given seed.
//
// For each benchmark both a 3-D version (cores assigned to layers, highly
// communicating cores stacked, per-layer floorplans) and the corresponding
// 2-D version (same cores and flows on a single die with its own floorplan)
// are produced, which is exactly the comparison of Table I.
package bench

import (
	"fmt"
	"math/rand"

	"sunfloor3d/internal/floorplan"
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/model"
)

// Benchmark is one SoC benchmark in both its 3-D and flattened 2-D
// incarnations: a design of the paper's evaluation, or one the workload
// generator sampled (internal/workload), which Assemble builds the same way.
type Benchmark struct {
	// Name identifies the benchmark: the paper's identifier (e.g. "D_36_4")
	// or a generated design's canonical spec name (e.g.
	// "W_hotspot_c40_l3_s7").
	Name string
	// Graph3D is the 3-D version: cores carry layer assignments and
	// per-layer floorplan positions.
	Graph3D *model.CommGraph
	// Graph2D is the 2-D version: the same cores and flows on a single layer
	// with a fresh single-die floorplan.
	Graph2D *model.CommGraph
	// Layers is the number of 3-D layers used by Graph3D.
	Layers int
}

// generators lists the paper's designs, in All's order, with the function
// that builds each. Every generator seeds its own random source, so building
// one design alone gives the same bytes as building it among the others.
var generators = []struct {
	name string
	gen  func(seed int64) Benchmark
}{
	{"D_26_media", D26Media},
	{"D_36_4", func(seed int64) Benchmark { return D36(4, seed) }},
	{"D_36_6", func(seed int64) Benchmark { return D36(6, seed) }},
	{"D_36_8", func(seed int64) Benchmark { return D36(8, seed) }},
	{"D_35_bot", D35Bot},
	{"D_65_pipe", D65Pipe},
	{"D_38_tvopd", D38TVOPD},
}

// All returns every benchmark of the paper's evaluation, generated with the
// given seed.
func All(seed int64) []Benchmark {
	out := make([]Benchmark, len(generators))
	for i, g := range generators {
		out[i] = g.gen(seed)
	}
	return out
}

// ByName returns the named benchmark, or an error listing the valid names.
// It builds only the named design.
func ByName(name string, seed int64) (Benchmark, error) {
	names := make([]string, len(generators))
	for i, g := range generators {
		if g.name == name {
			return g.gen(seed), nil
		}
		names[i] = g.name
	}
	return Benchmark{}, fmt.Errorf("bench: unknown benchmark %q (valid: %v)", name, names)
}

// ByNameMust is like ByName but panics on an unknown name. It is intended for
// experiment code whose benchmark names are compile-time constants.
func ByNameMust(name string, seed int64) Benchmark {
	b, err := ByName(name, seed)
	if err != nil {
		panic(err)
	}
	return b
}

// core under construction, before layering and floorplanning.
type protoCore struct {
	name   string
	w, h   float64
	memory bool
}

// protoFlow is a flow by core index.
type protoFlow struct {
	src, dst int
	bw       float64
	lat      float64
	typ      model.MessageType
}

// D26Media builds the 26-core multimedia/wireless SoC case study on 3 layers.
func D26Media(seed int64) Benchmark {
	rng := rand.New(rand.NewSource(seed ^ 0x26))
	var cores []protoCore
	add := func(name string, w, h float64, mem bool) int {
		cores = append(cores, protoCore{name: name, w: w, h: h, memory: mem})
		return len(cores) - 1
	}

	arm := add("arm", 2.2, 2.0, false)
	dsp1 := add("dsp1", 1.8, 1.6, false)
	dsp2 := add("dsp2", 1.8, 1.6, false)
	vitdec := add("viterbi", 1.2, 1.0, false)
	fft := add("fft", 1.4, 1.2, false)
	dma := add("dma", 0.9, 0.8, false)
	vidEnc := add("vid_enc", 2.0, 1.8, false)
	vidDec := add("vid_dec", 2.0, 1.6, false)
	audio := add("audio", 1.0, 0.9, false)
	disp := add("display", 1.3, 1.1, false)
	cam := add("camera", 1.1, 1.0, false)
	rf := add("rf_if", 1.0, 1.2, false)
	usb := add("usb", 0.8, 0.7, false)
	uart := add("uart", 0.6, 0.5, false)
	spi := add("spi", 0.6, 0.5, false)
	gpio := add("gpio", 0.5, 0.5, false)

	var mems []int
	memSizes := [][2]float64{{1.6, 1.4}, {1.6, 1.4}, {1.4, 1.2}, {1.4, 1.2}, {1.2, 1.0},
		{1.2, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {1.8, 1.6}, {1.0, 0.8}}
	for i, sz := range memSizes {
		mems = append(mems, add(fmt.Sprintf("mem%d", i), sz[0], sz[1], true))
	}
	// 16 logic + 10 memories = 26 cores.

	jitter := func(base float64) float64 { return base * (0.85 + 0.3*rng.Float64()) }
	var flows []protoFlow
	flow := func(s, d int, bw, lat float64) {
		flows = append(flows, protoFlow{src: s, dst: d, bw: jitter(bw), lat: lat, typ: model.Request})
		flows = append(flows, protoFlow{src: d, dst: s, bw: jitter(bw * 0.4), lat: lat, typ: model.Response})
	}
	// Base-band pipeline: rf -> fft -> viterbi -> dsp1 -> mem.
	flow(rf, fft, 800, 6)
	flow(fft, vitdec, 760, 6)
	flow(vitdec, dsp1, 700, 6)
	flow(dsp1, mems[0], 900, 4)
	flow(dsp2, mems[1], 850, 4)
	flow(dsp1, mems[2], 400, 6)
	flow(dsp2, mems[3], 380, 6)
	// Multimedia pipeline: camera -> video encoder -> memory -> display.
	flow(cam, vidEnc, 1200, 5)
	flow(vidEnc, mems[4], 1100, 5)
	flow(mems[4], vidDec, 600, 6)
	flow(vidDec, disp, 1000, 5)
	flow(vidDec, mems[5], 500, 6)
	flow(audio, mems[6], 200, 8)
	// ARM subsystem: instruction/data memories, DMA, peripherals.
	flow(arm, mems[8], 1000, 3)
	flow(arm, mems[7], 650, 4)
	flow(arm, dma, 300, 6)
	flow(dma, mems[9], 550, 6)
	flow(dma, mems[4], 450, 6)
	flow(arm, usb, 120, 10)
	flow(arm, uart, 40, 12)
	flow(arm, spi, 60, 12)
	flow(arm, gpio, 30, 12)
	flow(arm, dsp1, 250, 6)
	flow(arm, dsp2, 240, 6)
	flow(arm, vidEnc, 220, 8)
	flow(arm, disp, 180, 8)

	return assemble("D_26_media", cores, flows, 3, seed)
}

// D36 builds the distributed benchmark with 18 processors and 18 memories in
// which each processor communicates with flowsPerProc memories. The total
// bandwidth is the same regardless of flowsPerProc.
func D36(flowsPerProc int, seed int64) Benchmark {
	if flowsPerProc < 1 {
		flowsPerProc = 1
	}
	rng := rand.New(rand.NewSource(seed ^ int64(0x3600+flowsPerProc)))
	const nProc, nMem = 18, 18
	var cores []protoCore
	for i := 0; i < nProc; i++ {
		cores = append(cores, protoCore{name: fmt.Sprintf("proc%d", i), w: 1.5, h: 1.4})
	}
	for i := 0; i < nMem; i++ {
		cores = append(cores, protoCore{name: fmt.Sprintf("mem%d", i), w: 1.2, h: 1.2, memory: true})
	}
	// Total outgoing bandwidth per processor is fixed; it is split across its
	// flows so the three variants move the same total traffic.
	const totalPerProc = 1200.0
	per := totalPerProc / float64(flowsPerProc)
	var flows []protoFlow
	for p := 0; p < nProc; p++ {
		for k := 0; k < flowsPerProc; k++ {
			// Spread targets: the k-th flow of processor p goes to memory
			// (p + k*7) mod 18, giving a distributed, non-local pattern.
			m := nProc + (p+k*7)%nMem
			bw := per * (0.8 + 0.4*rng.Float64())
			flows = append(flows, protoFlow{src: p, dst: m, bw: bw, lat: 6, typ: model.Request})
			flows = append(flows, protoFlow{src: m, dst: p, bw: bw * 0.5, lat: 6, typ: model.Response})
		}
	}
	return assemble(fmt.Sprintf("D_36_%d", flowsPerProc), cores, flows, 2, seed)
}

// D35Bot builds the bottleneck benchmark: 16 processors each with a private
// memory plus 3 shared memories accessed by every processor.
func D35Bot(seed int64) Benchmark {
	rng := rand.New(rand.NewSource(seed ^ 0x35))
	const nProc = 16
	var cores []protoCore
	for i := 0; i < nProc; i++ {
		cores = append(cores, protoCore{name: fmt.Sprintf("proc%d", i), w: 1.5, h: 1.4})
	}
	for i := 0; i < nProc; i++ {
		cores = append(cores, protoCore{name: fmt.Sprintf("priv%d", i), w: 1.1, h: 1.1, memory: true})
	}
	for i := 0; i < 3; i++ {
		cores = append(cores, protoCore{name: fmt.Sprintf("shared%d", i), w: 1.6, h: 1.5, memory: true})
	}
	var flows []protoFlow
	for p := 0; p < nProc; p++ {
		priv := nProc + p
		bw := 900 * (0.85 + 0.3*rng.Float64())
		flows = append(flows, protoFlow{src: p, dst: priv, bw: bw, lat: 4, typ: model.Request})
		flows = append(flows, protoFlow{src: priv, dst: p, bw: bw * 0.5, lat: 4, typ: model.Response})
		for s := 0; s < 3; s++ {
			shared := 2*nProc + s
			sbw := 150 * (0.8 + 0.4*rng.Float64())
			flows = append(flows, protoFlow{src: p, dst: shared, bw: sbw, lat: 8, typ: model.Request})
			flows = append(flows, protoFlow{src: shared, dst: p, bw: sbw * 0.6, lat: 8, typ: model.Response})
		}
	}
	return assemble("D_35_bot", cores, flows, 2, seed)
}

// D65Pipe builds the 65-core pipelined benchmark: a long processing pipeline
// where each core sends to the next one.
func D65Pipe(seed int64) Benchmark {
	rng := rand.New(rand.NewSource(seed ^ 0x65))
	const n = 65
	var cores []protoCore
	for i := 0; i < n; i++ {
		w := 1.0 + 0.4*rng.Float64()
		cores = append(cores, protoCore{name: fmt.Sprintf("stage%d", i), w: w, h: w * (0.8 + 0.3*rng.Float64())})
	}
	var flows []protoFlow
	for i := 0; i+1 < n; i++ {
		bw := 600 * (0.85 + 0.3*rng.Float64())
		flows = append(flows, protoFlow{src: i, dst: i + 1, bw: bw, lat: 6, typ: model.Request})
	}
	// A few feedback paths, as pipelines typically have.
	for i := 8; i < n; i += 16 {
		flows = append(flows, protoFlow{src: i, dst: i - 8, bw: 120, lat: 10, typ: model.Response})
	}
	return assemble("D_65_pipe", cores, flows, 3, seed)
}

// D38TVOPD builds the 38-core pipelined benchmark modelled on the TVOPD-style
// object-plane-decoder designs: mostly chained traffic with a few fan-outs.
func D38TVOPD(seed int64) Benchmark {
	rng := rand.New(rand.NewSource(seed ^ 0x38))
	const n = 38
	var cores []protoCore
	for i := 0; i < n; i++ {
		w := 0.9 + 0.5*rng.Float64()
		cores = append(cores, protoCore{name: fmt.Sprintf("pe%d", i), w: w, h: w * (0.8 + 0.4*rng.Float64())})
	}
	var flows []protoFlow
	// Two parallel decoding pipelines of 19 stages each.
	for p := 0; p < 2; p++ {
		base := p * 19
		for i := 0; i+1 < 19; i++ {
			bw := 500 * (0.85 + 0.3*rng.Float64())
			flows = append(flows, protoFlow{src: base + i, dst: base + i + 1, bw: bw, lat: 6, typ: model.Request})
		}
	}
	// Cross links between the pipelines at a few points.
	for _, i := range []int{4, 9, 14} {
		flows = append(flows, protoFlow{src: i, dst: 19 + i, bw: 200, lat: 8, typ: model.Request})
		flows = append(flows, protoFlow{src: 19 + i, dst: i, bw: 150, lat: 8, typ: model.Response})
	}
	return assemble("D_38_tvopd", cores, flows, 2, seed)
}

// assemble assigns the proto cores to layers (stacking highly communicating
// cores) and hands the layered design to Assemble. The paper's designs are
// fixed, so an error is a bug.
func assemble(name string, protos []protoCore, flows []protoFlow, layers int, seed int64) Benchmark {
	assignment := assignLayers(protos, flows, layers)
	cores := make([]model.Core, len(protos))
	for i, p := range protos {
		cores[i] = model.Core{
			Name: p.name, Width: p.w, Height: p.h,
			Layer: assignment[i], IsMemory: p.memory,
		}
	}
	mflows := make([]model.Flow, len(flows))
	for i, f := range flows {
		mflows[i] = model.Flow{Src: f.src, Dst: f.dst, BandwidthMBps: f.bw,
			LatencyCycles: f.lat, Type: f.typ}
	}
	b, err := Assemble(name, cores, mflows, layers, seed)
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", name, err))
	}
	return b
}

// Assemble builds the benchmark of a layered design: it floorplans every
// layer of the 3-D version and the single die of the 2-D version (the same
// cores, all on layer 0), and validates both communication graphs. The
// cores carry their layer assignment; their positions are overwritten. Both
// design generators, this package's and internal/workload's, end in it.
func Assemble(name string, cores []model.Core, flows []model.Flow, layers int, seed int64) (Benchmark, error) {
	cores2d := make([]model.Core, len(cores))
	for i, c := range cores {
		c.Layer = 0
		cores2d[i] = c
	}
	FloorplanLayers(cores, flows, layers, seed)
	g3d, err := model.NewCommGraph(cores, flows)
	if err != nil {
		return Benchmark{}, fmt.Errorf("3-D graph invalid: %w", err)
	}
	FloorplanLayers(cores2d, flows, 1, seed+1)
	g2d, err := model.NewCommGraph(cores2d, flows)
	if err != nil {
		return Benchmark{}, fmt.Errorf("2-D graph invalid: %w", err)
	}
	return Benchmark{Name: name, Graph3D: g3d, Graph2D: g2d, Layers: layers}, nil
}

// assignLayers distributes cores over the layers the way the paper's
// benchmarks are "manually mapped": a balanced min-cut partition of the
// bandwidth-weighted communication graph, so that tightly coupled clusters
// (a pipeline segment, a processor with its memories) share a layer and only
// the unavoidable traffic crosses layer boundaries. Each layer then holds
// roughly 1/layers of the cores, which is what shrinks the per-die footprint
// and with it the wire lengths — the main source of the 3-D power savings the
// paper reports.
func assignLayers(protos []protoCore, flows []protoFlow, layers int) []int {
	n := len(protos)
	assign := make([]int, n)
	if layers <= 1 || n == 0 {
		return assign
	}
	cg := graph.New(n)
	for _, f := range flows {
		cg.AddEdge(f.src, f.dst, f.bw)
	}
	copy(assign, graph.PartitionK(cg, layers))
	// Keep layer 0 the most populated so the bottom die never ends up empty
	// for tiny designs (purely cosmetic: PartitionK already balances counts).
	sizes := graph.BlockSizes(assign, layers)
	maxLayer := 0
	for l, s := range sizes {
		if s > sizes[maxLayer] {
			maxLayer = l
		}
	}
	if maxLayer != 0 {
		for i, a := range assign {
			switch a {
			case maxLayer:
				assign[i] = 0
			case 0:
				assign[i] = maxLayer
			}
		}
	}
	return assign
}

// FloorplanLayers computes initial core positions for every layer with the
// SA floorplanner, minimising area and intra-layer wirelength (the same
// objectives the paper uses when generating the input floorplans with
// Parquet). It sets X and Y of every core on layers 0..layers-1; flows
// supply the nets. The workload generator floorplans its designs with it
// too.
func FloorplanLayers(cores []model.Core, flows []model.Flow, layers int, seed int64) {
	for l := 0; l < layers; l++ {
		var idx []int
		for i := range cores {
			if cores[i].Layer == l {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		pos := make(map[int]int, len(idx)) // core index -> block index
		blocks := make([]floorplan.Block, len(idx))
		for bi, ci := range idx {
			pos[ci] = bi
			blocks[bi] = floorplan.Block{Name: cores[ci].Name, W: cores[ci].Width, H: cores[ci].Height}
		}
		var nets []floorplan.Net
		for _, f := range flows {
			a, aok := pos[f.Src]
			b, bok := pos[f.Dst]
			if aok && bok {
				nets = append(nets, floorplan.Net{A: a, B: b, Weight: f.BandwidthMBps / 1000})
			}
		}
		params := floorplan.DefaultParams(seed + int64(l)*101)
		// The generator only needs a reasonable, legal initial placement, not
		// a fully converged one; a lighter schedule keeps benchmark
		// construction fast even for the 65-core designs.
		params.Iterations = 100
		params.TemperatureSteps = 35
		res, err := floorplan.Floorplan(blocks, nets, params)
		if err != nil {
			panic(fmt.Sprintf("bench: floorplanning layer %d failed: %v", l, err))
		}
		for bi, ci := range idx {
			cores[ci].X = res.Positions[bi].X
			cores[ci].Y = res.Positions[bi].Y
		}
	}
}
