// Package workload is a seed-deterministic random SoC benchmark generator.
// Where internal/bench reproduces the seven fixed designs of the paper's
// evaluation, this package samples whole *families* of designs — pipelines,
// hub-and-spoke hotspots, multi-application mixes and explicitly layered
// stacks — with parameterized core counts, layer counts and core-size,
// bandwidth and latency distributions. It exists so that the synthesis,
// routing, floorplanning and simulation invariants can be asserted on a
// distribution of inputs (the property harness at the repository root)
// instead of on three hardcoded fixtures.
//
// Two guarantees hold for every generated benchmark:
//
//   - Connected: the undirected communication graph is weakly connected, so
//     no core is isolated and the min-cut layer assignment, the router and
//     the simulator all see one component. The generator bridges any stray
//     components with low-bandwidth control flows.
//   - Satisfiable: every latency constraint sits at or above a conservative
//     floor (LatencyFloor) derived from the stack height, every bandwidth is
//     positive, core sizes are positive, and the result validates through
//     model.NewCommGraph. Generation never returns a design the flow cannot
//     in principle synthesize.
//
// Each generator draws its design as model cores and flows. Every shape but
// Layered is then layered with bench.AssignLayers, the balanced min-cut the
// paper's designs are layered with, and bench.Assemble floorplans it.
//
// Determinism contract: Generate is a pure function of its Spec. The same
// Spec produces byte-identical core and communication specifications (and
// therefore byte-identical synthesis results) on every run and platform.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/model"
)

// Shape selects the traffic structure of a generated benchmark.
type Shape int

const (
	// Pipeline chains the logic cores into one long processing pipeline with
	// side memories and periodic feedback paths (the D_65_pipe / D_38_tvopd
	// family).
	Pipeline Shape = iota
	// Hotspot concentrates traffic on a few hub memories every other core
	// reads and writes (hub-and-spoke; the shared-memory half of D_35_bot,
	// pushed to the extreme).
	Hotspot
	// MultiApp partitions the cores into independent application clusters,
	// each with its own connected traffic pattern and bandwidth scale, plus a
	// few low-bandwidth cross-application bridges.
	MultiApp
	// Layered assigns cores to layers explicitly (contiguous blocks, no
	// min-cut) and mixes intra-layer traffic with vertical flows between
	// adjacent layers, exercising the inter-layer-link constraint directly.
	Layered
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case Pipeline:
		return "pipeline"
	case Hotspot:
		return "hotspot"
	case MultiApp:
		return "multiapp"
	case Layered:
		return "layered"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Shapes returns every generator shape, in declaration order.
func Shapes() []Shape { return []Shape{Pipeline, Hotspot, MultiApp, Layered} }

// ParseShape converts a shape name ("pipeline", "hotspot", "multiapp",
// "layered") to a Shape.
func ParseShape(s string) (Shape, error) {
	for _, sh := range Shapes() {
		if sh.String() == s {
			return sh, nil
		}
	}
	names := make([]string, 0, len(Shapes()))
	for _, sh := range Shapes() {
		names = append(names, sh.String())
	}
	return Pipeline, fmt.Errorf("workload: unknown shape %q (valid: %s)", s, strings.Join(names, ", "))
}

// Spec parameterizes one generated benchmark. The zero value of every
// optional field selects a shape-appropriate default; only Cores, Layers and
// Seed are commonly set. Specs are comparable and serialise cleanly, so they
// double as test-case identifiers.
type Spec struct {
	// Shape selects the traffic structure.
	Shape Shape
	// Cores is the total number of cores (logic plus memories), at least 4.
	// 0 selects the default of 16.
	Cores int
	// Layers is the number of 3-D layers, at least 1. 0 selects 2.
	Layers int
	// Seed drives every random draw. Equal specs generate byte-identical
	// benchmarks.
	Seed int64
	// MemoryFraction is the fraction of cores that are memories (targets),
	// in (0, 0.75]. 0 selects a shape default (hotspot hubs are always
	// memories regardless).
	MemoryFraction float64
	// Apps is the number of application clusters of the MultiApp shape.
	// 0 selects max(2, Cores/8). Ignored by the other shapes.
	Apps int
	// Hubs is the number of hub memories of the Hotspot shape. 0 selects
	// max(1, Cores/10). Ignored by the other shapes.
	Hubs int
	// MeanBandwidthMBps centres the flow bandwidth distribution. 0 selects
	// 600 MB/s. It must be small enough that every bandwidth it can draw
	// is finite.
	MeanBandwidthMBps float64
	// BandwidthSpread is the relative half-width of the bandwidth
	// distribution, in [0, 0.9]: bandwidths are drawn uniformly from
	// mean*(1-spread) to mean*(1+spread). 0 keeps the default of 0.5.
	BandwidthSpread float64
	// LatencySlack scales every latency constraint relative to the
	// conservative floor: constraints are drawn from
	// [floor*slack, floor*slack*2.5]. Must be >= 1; 0 selects 2. Smaller
	// values stress the latency validation, larger values loosen it. The
	// largest constraint it allows, LatencyFloor(Layers)*slack*2.5+1, must
	// not exceed MaxLatencyCycles.
	LatencySlack float64
	// UnconstrainedFraction is the fraction of flows left without a latency
	// constraint (LatencyCycles = 0), in [0, 1]. 0 selects the default of
	// 0.25 (like every other optional field); negative constrains every
	// flow.
	UnconstrainedFraction float64
}

// withDefaults returns the spec with every zero optional field resolved.
func (s Spec) withDefaults() Spec {
	if s.Cores == 0 {
		s.Cores = 16
	}
	if s.Layers == 0 {
		s.Layers = 2
	}
	if s.MemoryFraction == 0 {
		switch s.Shape {
		case Hotspot:
			s.MemoryFraction = 0.15
		default:
			s.MemoryFraction = 0.25
		}
	}
	if s.Apps == 0 {
		s.Apps = s.Cores / 8
		if s.Apps < 2 {
			s.Apps = 2
		}
	}
	if s.Hubs == 0 {
		s.Hubs = s.Cores / 10
		if s.Hubs < 1 {
			s.Hubs = 1
		}
	}
	if s.MeanBandwidthMBps == 0 {
		s.MeanBandwidthMBps = 600
	}
	if s.BandwidthSpread == 0 {
		s.BandwidthSpread = 0.5
	}
	if s.LatencySlack == 0 {
		s.LatencySlack = 2
	}
	if s.UnconstrainedFraction == 0 {
		s.UnconstrainedFraction = 0.25
	} else if s.UnconstrainedFraction < 0 {
		s.UnconstrainedFraction = 0
	}
	return s
}

// Validate checks the spec ranges (after default resolution, so a zero value
// plus a shape always validates).
func (s Spec) Validate() error {
	r := s.withDefaults()
	checks := []struct {
		ok  bool
		msg string
	}{
		{r.Shape >= Pipeline && r.Shape <= Layered, fmt.Sprintf("unknown shape %d", int(r.Shape))},
		{r.Cores >= 4, fmt.Sprintf("Cores must be at least 4, got %d", r.Cores)},
		{r.Cores <= 256, fmt.Sprintf("Cores must be at most 256, got %d", r.Cores)},
		{r.Layers >= 1, fmt.Sprintf("Layers must be at least 1, got %d", r.Layers)},
		{r.Layers <= 8, fmt.Sprintf("Layers must be at most 8, got %d", r.Layers)},
		{r.Layers <= r.Cores, fmt.Sprintf("Layers (%d) must not exceed Cores (%d)", r.Layers, r.Cores)},
		{r.MemoryFraction > 0 && r.MemoryFraction <= 0.75, fmt.Sprintf("MemoryFraction must be in (0, 0.75], got %g", r.MemoryFraction)},
		{r.Apps >= 1 && r.Apps <= r.Cores/2, fmt.Sprintf("Apps must be in [1, Cores/2], got %d", r.Apps)},
		{r.Hubs >= 1 && r.Hubs <= r.Cores/2, fmt.Sprintf("Hubs must be in [1, Cores/2], got %d", r.Hubs)},
		{r.MeanBandwidthMBps > 0, fmt.Sprintf("MeanBandwidthMBps must be positive, got %g", r.MeanBandwidthMBps)},
		{r.BandwidthSpread > 0 && r.BandwidthSpread <= 0.9, fmt.Sprintf("BandwidthSpread must be in (0, 0.9], got %g", r.BandwidthSpread)},
		{!math.IsInf(maxBandwidthDraw(r), 0), fmt.Sprintf("MeanBandwidthMBps must keep every bandwidth draw finite, got %g", r.MeanBandwidthMBps)},
		{r.LatencySlack >= 1, fmt.Sprintf("LatencySlack must be at least 1, got %g", r.LatencySlack)},
		{LatencyFloor(r.Layers)*r.LatencySlack*2.5+1 <= MaxLatencyCycles,
			fmt.Sprintf("LatencySlack must keep every latency constraint within %d cycles, got %g", MaxLatencyCycles, r.LatencySlack)},
		{r.UnconstrainedFraction <= 1, fmt.Sprintf("UnconstrainedFraction must be at most 1, got %g", r.UnconstrainedFraction)},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("workload: %s", c.msg)
		}
	}
	return nil
}

// Name returns the canonical identifier of the benchmark the spec generates,
// e.g. "W_hotspot_c40_l3_s7".
func (s Spec) Name() string {
	r := s.withDefaults()
	return fmt.Sprintf("W_%s_c%d_l%d_s%d", r.Shape, r.Cores, r.Layers, r.Seed)
}

// MaxLatencyCycles bounds the latency constraints a spec may draw. It is the
// largest 32-bit int, so the float-to-int rounding of every constraint is
// exact on every platform: an out-of-range conversion has an
// implementation-specific result in Go.
const MaxLatencyCycles = math.MaxInt32

// LatencyFloor returns the conservative lower bound (in cycles) the generator
// keeps every latency constraint at or above for the given layer count: a
// budget of switch traversals and link pipeline stages that any reasonable
// synthesized topology can meet. Constraints below this floor could make a
// whole workload unsatisfiable, which would break the generator's contract.
func LatencyFloor(layers int) float64 {
	if layers < 1 {
		layers = 1
	}
	return float64(8 + 2*layers)
}

// Generate builds the benchmark described by the spec, named by
// Spec.Name. It is deterministic: equal specs return byte-identical
// benchmarks.
func Generate(spec Spec) (bench.Benchmark, error) {
	spec, cores, flows, err := layered(spec)
	if err != nil {
		return bench.Benchmark{}, err
	}
	b, err := bench.Assemble(spec.Name(), cores, flows, spec.Layers, spec.Seed)
	if err != nil {
		return bench.Benchmark{}, fmt.Errorf("workload: %s: %w", spec.Name(), err)
	}
	return b, nil
}

// Generate3D builds only the 3-D design of Generate(spec), byte for byte,
// without floorplanning the flattened 2-D die.
func Generate3D(spec Spec) (*model.CommGraph, error) {
	spec, cores, flows, err := layered(spec)
	if err != nil {
		return nil, err
	}
	g, err := bench.Assemble3D(cores, flows, spec.Layers, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", spec.Name(), err)
	}
	return g, nil
}

// layered draws the design the spec describes and assigns its cores to
// layers, with bench.AssignLayers for every shape but Layered, whose
// generator sets each core's layer itself: everything of Generate before the
// floorplans. It returns the spec with its defaults filled in.
func layered(spec Spec) (Spec, []model.Core, []model.Flow, error) {
	if err := spec.Validate(); err != nil {
		return spec, nil, nil, err
	}
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed ^ (int64(spec.Shape+1) << 32) ^ int64(spec.Cores)))

	var cores []model.Core
	var flows []model.Flow
	switch spec.Shape {
	case Pipeline:
		cores, flows = genPipeline(spec, rng)
	case Hotspot:
		cores, flows = genHotspot(spec, rng)
	case MultiApp:
		cores, flows = genMultiApp(spec, rng)
	case Layered:
		cores, flows = genLayered(spec, rng)
	}

	flows = bridgeComponents(len(cores), flows, spec, rng)
	resolveLatencies(flows, spec, rng)
	if spec.Shape != Layered {
		bench.AssignLayers(cores, flows, spec.Layers)
	}
	return spec, cores, flows, nil
}

// sizeDraw returns a core size (width, height) in millimetres: logic cores
// are near-square with moderate variance, memories slightly larger and
// flatter.
func sizeDraw(rng *rand.Rand, memory bool) (w, h float64) {
	base := 0.9 + 0.8*rng.Float64()
	if memory {
		base *= 1.15
		return base, base * (0.7 + 0.3*rng.Float64())
	}
	return base, base * (0.8 + 0.4*rng.Float64())
}

// maxBandwidthScale bounds the shape-local multipliers of bwDraw: the
// MultiApp shape's per-application scale is below 2, every other one at most
// 1, and the bridging flows draw below 0.075 of the mean.
const maxBandwidthScale = 2

// maxBandwidthDraw returns bwDraw's expression at the largest scale and the
// top of the unit draw. Float rounding is monotone, so no draw exceeds it.
func maxBandwidthDraw(spec Spec) float64 {
	lo := 1 - spec.BandwidthSpread
	return spec.MeanBandwidthMBps * maxBandwidthScale * (lo + 2*spec.BandwidthSpread)
}

// bwDraw samples one flow bandwidth from the spec's distribution, scaled by
// the shape-local multiplier.
func bwDraw(spec Spec, rng *rand.Rand, scale float64) float64 {
	lo := 1 - spec.BandwidthSpread
	return spec.MeanBandwidthMBps * scale * (lo + 2*spec.BandwidthSpread*rng.Float64())
}

// constrained, as a drawn flow's LatencyCycles, marks it for a constraint
// from the spec's latency distribution (resolveLatencies); a flow drawn
// with 0 stays unconstrained.
const constrained = -1

// genPipeline chains the logic cores into one pipeline with side memories and
// periodic feedback.
func genPipeline(spec Spec, rng *rand.Rand) ([]model.Core, []model.Flow) {
	nMem := int(float64(spec.Cores) * spec.MemoryFraction)
	if nMem < 1 {
		nMem = 1
	}
	nLogic := spec.Cores - nMem
	if nLogic < 2 {
		nLogic = 2
		nMem = spec.Cores - nLogic
	}
	var cores []model.Core
	for i := 0; i < nLogic; i++ {
		w, h := sizeDraw(rng, false)
		cores = append(cores, model.Core{Name: fmt.Sprintf("stage%d", i), Width: w, Height: h})
	}
	for i := 0; i < nMem; i++ {
		w, h := sizeDraw(rng, true)
		cores = append(cores, model.Core{Name: fmt.Sprintf("mem%d", i), Width: w, Height: h, IsMemory: true})
	}

	var flows []model.Flow
	// The main chain carries the heaviest traffic.
	for i := 0; i+1 < nLogic; i++ {
		flows = append(flows, model.Flow{Src: i, Dst: i + 1, BandwidthMBps: bwDraw(spec, rng, 1), LatencyCycles: constrained, Type: model.Request})
	}
	// Each memory serves one pipeline stage (request + response).
	for m := 0; m < nMem; m++ {
		stage := rng.Intn(nLogic)
		mem := nLogic + m
		bw := bwDraw(spec, rng, 0.8)
		flows = append(flows, model.Flow{Src: stage, Dst: mem, BandwidthMBps: bw, LatencyCycles: constrained, Type: model.Request})
		flows = append(flows, model.Flow{Src: mem, Dst: stage, BandwidthMBps: bw * 0.5, LatencyCycles: constrained, Type: model.Response})
	}
	// Feedback paths every ~8 stages, as real pipelines have.
	for i := 8; i < nLogic; i += 8 {
		flows = append(flows, model.Flow{Src: i, Dst: i - rng.Intn(7) - 1, BandwidthMBps: bwDraw(spec, rng, 0.2), LatencyCycles: constrained, Type: model.Response})
	}
	return cores, flows
}

// genHotspot concentrates traffic on a few hub memories.
func genHotspot(spec Spec, rng *rand.Rand) ([]model.Core, []model.Flow) {
	nHub := spec.Hubs
	nPeer := spec.Cores - nHub
	var cores []model.Core
	for i := 0; i < nHub; i++ {
		w, h := sizeDraw(rng, true)
		cores = append(cores, model.Core{Name: fmt.Sprintf("hub%d", i), Width: w * 1.2, Height: h * 1.2, IsMemory: true})
	}
	for i := 0; i < nPeer; i++ {
		mem := rng.Float64() < spec.MemoryFraction
		w, h := sizeDraw(rng, mem)
		name := fmt.Sprintf("core%d", i)
		if mem {
			name = fmt.Sprintf("mem%d", i)
		}
		cores = append(cores, model.Core{Name: name, Width: w, Height: h, IsMemory: mem})
	}

	var flows []model.Flow
	for p := 0; p < nPeer; p++ {
		core := nHub + p
		// Hub 0 is the hottest: half the cores pick it, the rest spread.
		hub := 0
		if nHub > 1 && rng.Float64() < 0.5 {
			hub = 1 + rng.Intn(nHub-1)
		}
		bw := bwDraw(spec, rng, 1)
		flows = append(flows, model.Flow{Src: core, Dst: hub, BandwidthMBps: bw, LatencyCycles: constrained, Type: model.Request})
		flows = append(flows, model.Flow{Src: hub, Dst: core, BandwidthMBps: bw * 0.6, LatencyCycles: constrained, Type: model.Response})
	}
	// Light peer-to-peer traffic so the design is not a pure star.
	for i := 0; i < nPeer/4; i++ {
		a, b := nHub+rng.Intn(nPeer), nHub+rng.Intn(nPeer)
		if a == b {
			continue
		}
		flows = append(flows, model.Flow{Src: a, Dst: b, BandwidthMBps: bwDraw(spec, rng, 0.15), LatencyCycles: constrained, Type: model.Request})
	}
	return cores, flows
}

// genMultiApp partitions the cores into independent application clusters.
func genMultiApp(spec Spec, rng *rand.Rand) ([]model.Core, []model.Flow) {
	var cores []model.Core
	var flows []model.Flow
	// Contiguous blocks of near-equal size.
	bounds := make([]int, spec.Apps+1)
	for a := 0; a <= spec.Apps; a++ {
		bounds[a] = a * spec.Cores / spec.Apps
	}
	for a := 0; a < spec.Apps; a++ {
		lo, hi := bounds[a], bounds[a+1]
		scale := 0.5 + 1.5*rng.Float64() // per-application bandwidth scale
		for i := lo; i < hi; i++ {
			mem := rng.Float64() < spec.MemoryFraction
			w, h := sizeDraw(rng, mem)
			kind := "p"
			if mem {
				kind = "m"
			}
			cores = append(cores, model.Core{Name: fmt.Sprintf("app%d_%s%d", a, kind, i-lo), Width: w, Height: h, IsMemory: mem})
		}
		// Spanning tree keeps each application connected...
		for i := lo + 1; i < hi; i++ {
			parent := lo + rng.Intn(i-lo)
			bw := bwDraw(spec, rng, scale)
			flows = append(flows, model.Flow{Src: parent, Dst: i, BandwidthMBps: bw, LatencyCycles: constrained, Type: model.Request})
			if rng.Float64() < 0.5 {
				flows = append(flows, model.Flow{Src: i, Dst: parent, BandwidthMBps: bw * 0.4, LatencyCycles: constrained, Type: model.Response})
			}
		}
		// ...plus extra intra-application edges for richer structure.
		for k := 0; k < (hi-lo)/2; k++ {
			a1, b1 := lo+rng.Intn(hi-lo), lo+rng.Intn(hi-lo)
			if a1 == b1 {
				continue
			}
			flows = append(flows, model.Flow{Src: a1, Dst: b1, BandwidthMBps: bwDraw(spec, rng, scale*0.4), LatencyCycles: constrained, Type: model.Request})
		}
	}
	// Low-bandwidth bridges between consecutive applications (shared
	// services); bridgeComponents would connect them anyway, but an explicit
	// bridge with realistic bandwidth reads better than a control flow.
	for a := 0; a+1 < spec.Apps; a++ {
		src := bounds[a] + rng.Intn(bounds[a+1]-bounds[a])
		dst := bounds[a+1] + rng.Intn(bounds[a+2]-bounds[a+1])
		flows = append(flows, model.Flow{Src: src, Dst: dst, BandwidthMBps: bwDraw(spec, rng, 0.1), LatencyCycles: 0, Type: model.Request})
	}
	return cores, flows
}

// genLayered assigns cores to layers explicitly and mixes intra-layer with
// vertical traffic.
func genLayered(spec Spec, rng *rand.Rand) ([]model.Core, []model.Flow) {
	var cores []model.Core
	perLayer := make([][]int, spec.Layers)
	for i := 0; i < spec.Cores; i++ {
		l := i * spec.Layers / spec.Cores
		perLayer[l] = append(perLayer[l], i)
		mem := rng.Float64() < spec.MemoryFraction
		w, h := sizeDraw(rng, mem)
		kind := "p"
		if mem {
			kind = "m"
		}
		cores = append(cores, model.Core{Name: fmt.Sprintf("l%d_%s%d", l, kind, i), Width: w, Height: h, IsMemory: mem, Layer: l})
	}

	var flows []model.Flow
	// Intra-layer: a ring per layer plus random chords.
	for l := 0; l < spec.Layers; l++ {
		members := perLayer[l]
		if len(members) < 2 {
			continue
		}
		for i := range members {
			next := members[(i+1)%len(members)]
			flows = append(flows, model.Flow{Src: members[i], Dst: next, BandwidthMBps: bwDraw(spec, rng, 0.8), LatencyCycles: constrained, Type: model.Request})
		}
		for k := 0; k < len(members)/3; k++ {
			a, b := members[rng.Intn(len(members))], members[rng.Intn(len(members))]
			if a == b {
				continue
			}
			flows = append(flows, model.Flow{Src: a, Dst: b, BandwidthMBps: bwDraw(spec, rng, 0.4), LatencyCycles: constrained, Type: model.Request})
		}
	}
	// Vertical: every core on layer l>0 talks to one core on layer l-1.
	for l := 1; l < spec.Layers; l++ {
		below := perLayer[l-1]
		if len(below) == 0 {
			continue
		}
		for _, c := range perLayer[l] {
			partner := below[rng.Intn(len(below))]
			bw := bwDraw(spec, rng, 0.6)
			flows = append(flows, model.Flow{Src: c, Dst: partner, BandwidthMBps: bw, LatencyCycles: constrained, Type: model.Request})
			if rng.Float64() < 0.4 {
				flows = append(flows, model.Flow{Src: partner, Dst: c, BandwidthMBps: bw * 0.5, LatencyCycles: constrained, Type: model.Response})
			}
		}
	}
	return cores, flows
}

// bridgeComponents enforces the connectivity guarantee: if the undirected
// communication graph has more than one weakly connected component (isolated
// cores included), low-bandwidth unconstrained control flows are added
// between deterministic representatives until one component remains.
// ConnectedComponents orders components by their smallest vertex, so the
// bridging is deterministic.
func bridgeComponents(nCores int, flows []model.Flow, spec Spec, rng *rand.Rand) []model.Flow {
	cg := graph.New(nCores)
	for _, f := range flows {
		cg.AddEdge(f.Src, f.Dst, 1)
	}
	comps := cg.ConnectedComponents()
	for i := 1; i < len(comps); i++ {
		flows = append(flows, model.Flow{
			Src: comps[i-1][0], Dst: comps[i][0],
			BandwidthMBps: spec.MeanBandwidthMBps * 0.05 * (0.5 + rng.Float64()),
			Type:          model.Request,
		})
	}
	return flows
}

// resolveLatencies replaces every "constrained" marker with a draw from the
// spec's latency distribution, leaving UnconstrainedFraction of them at 0.
// Every emitted constraint is >= LatencyFloor(spec.Layers)*LatencySlack,
// which is the satisfiability guarantee.
func resolveLatencies(flows []model.Flow, spec Spec, rng *rand.Rand) {
	floor := LatencyFloor(spec.Layers) * spec.LatencySlack
	for i := range flows {
		if flows[i].LatencyCycles != constrained {
			continue
		}
		if rng.Float64() < spec.UnconstrainedFraction {
			flows[i].LatencyCycles = 0
			continue
		}
		// Round to whole cycles: spec files stay tidy and satisfiability is
		// unaffected (rounding up only).
		flows[i].LatencyCycles = float64(int(floor*(1+1.5*rng.Float64())) + 1)
	}
}

// IsConnected reports whether the undirected communication graph of the
// design is weakly connected with every core in the single component. It is
// the checkable half of the generator's connectivity guarantee.
func IsConnected(g *model.CommGraph) bool {
	cg := graph.New(g.NumCores())
	for _, f := range g.Flows {
		cg.AddEdge(f.Src, f.Dst, 1)
	}
	return len(cg.ConnectedComponents()) <= 1
}
