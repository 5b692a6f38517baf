// Package partition builds the partitioning graphs used by the core-to-switch
// connectivity algorithms of the paper: the partitioning graph PG
// (Definition 3), the scaled partitioning graph SPG (Definition 4 with the
// edge weights of Eq. 1) and the per-layer partitioning graphs LPG
// (Definition 5). The graphs are then fed to the balanced min-cut k-way
// partitioner of the graph package.
package partition

import (
	"fmt"
	"math"

	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/model"
)

// Params collects the knobs of the partitioning-graph construction.
type Params struct {
	// Alpha weighs bandwidth versus latency in edge weights: weight =
	// alpha*bw/max_bw + (1-alpha)*min_lat/lat. Alpha of 1 considers only
	// bandwidth.
	Alpha float64
	// ThetaMin, ThetaMax and ThetaStep drive the SPG scaling sweep of
	// Algorithm 1 (steps 11-19). The paper found 1..15 in steps of 3 to work
	// well.
	ThetaMin, ThetaMax, ThetaStep float64
	// IsolatedEdgeWeight is the small weight of the edges added in an LPG
	// between cores that do not communicate inside the layer (Definition 5).
	IsolatedEdgeWeight float64
}

// DefaultParams returns the parameter values recommended in the paper.
func DefaultParams() Params {
	return Params{
		Alpha:              1.0,
		ThetaMin:           1,
		ThetaMax:           15,
		ThetaStep:          3,
		IsolatedEdgeWeight: 1e-3,
	}
}

// MaxThetaValues caps the number of theta values of the SPG scaling sweep
// (ThetaSweep): every value is one more round of partitions and attempts for
// each unmet switch count. The paper's sweep, 1 to 15 in steps of 3, has 5.
// A step so small that the sweep would exceed the cap, or so small that
// adding it no longer advances theta, fails Validate.
const MaxThetaValues = 100

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	// Each check is negated from the accepting form so that NaN, which
	// compares false with everything, is rejected too.
	if !(p.Alpha >= 0 && p.Alpha <= 1) {
		return fmt.Errorf("partition: alpha %g out of [0,1]", p.Alpha)
	}
	if !(p.ThetaMin > 0 && p.ThetaMax >= p.ThetaMin && p.ThetaStep > 0) ||
		math.IsInf(p.ThetaMax, 0) || math.IsInf(p.ThetaStep, 0) {
		return fmt.Errorf("partition: invalid theta sweep (%g, %g, %g)", p.ThetaMin, p.ThetaMax, p.ThetaStep)
	}
	if len(p.thetaSweep(MaxThetaValues+1)) > MaxThetaValues {
		return fmt.Errorf("partition: theta sweep (%g, %g, %g) has more than %d values",
			p.ThetaMin, p.ThetaMax, p.ThetaStep, MaxThetaValues)
	}
	if !(p.IsolatedEdgeWeight >= 0) || math.IsInf(p.IsolatedEdgeWeight, 0) {
		return fmt.Errorf("partition: isolated edge weight %g is not a finite non-negative number", p.IsolatedEdgeWeight)
	}
	return nil
}

// edgeWeight implements the weight formula shared by Definitions 3 and 5:
// h = alpha*bw/max_bw + (1-alpha)*min_lat/lat.
func edgeWeight(f model.Flow, maxBW, minLat, alpha float64) float64 {
	var w float64
	if maxBW > 0 {
		w += alpha * f.BandwidthMBps / maxBW
	}
	if f.LatencyCycles > 0 && minLat > 0 {
		w += (1 - alpha) * minLat / f.LatencyCycles
	}
	return w
}

// BuildPG constructs the partitioning graph PG(U, H, alpha) of Definition 3:
// one vertex per core, one directed edge per communicating core pair with the
// combined bandwidth/latency weight.
func BuildPG(g *model.CommGraph, alpha float64) *graph.Graph {
	pg := graph.New(g.NumCores())
	maxBW := g.MaxBandwidth()
	minLat := g.MinLatency()
	for _, f := range g.Flows {
		pg.AddEdge(f.Src, f.Dst, edgeWeight(f, maxBW, minLat, alpha))
	}
	return pg
}

// BuildSPG constructs the scaled partitioning graph SPG(W, L, theta) of
// Definition 4. Relative to the PG it:
//
//   - keeps intra-layer edges at their PG weight,
//   - divides the weight of inter-layer edges by theta*|layer_i - layer_j|,
//   - adds a low-weight edge (theta*max_wt / (10*theta_max)) between every
//     pair of cores in the same layer that do not already communicate, so the
//     partitioner prefers grouping same-layer cores.
func BuildSPG(g *model.CommGraph, alpha, theta, thetaMax float64) *graph.Graph {
	return BuildSPGFrom(BuildPG(g, alpha), g, theta, thetaMax)
}

// BuildSPGFrom is BuildSPG for callers that already hold the design's PG
// (the sweep-wide partition cache builds the PG once and derives every SPG of
// the theta sweep from it). pg is read, never modified.
func BuildSPGFrom(pg *graph.Graph, g *model.CommGraph, theta, thetaMax float64) *graph.Graph {
	spg := graph.New(g.NumCores())

	// Maximum edge weight in PG (max_wt in Eq. 1).
	var maxWt float64
	for _, e := range pg.Edges() {
		if e.Weight > maxWt {
			maxWt = e.Weight
		}
	}

	for _, e := range pg.Edges() {
		li := g.Cores[e.From].Layer
		lj := g.Cores[e.To].Layer
		if li == lj {
			spg.AddEdge(e.From, e.To, e.Weight)
		} else {
			d := li - lj
			if d < 0 {
				d = -d
			}
			spg.AddEdge(e.From, e.To, e.Weight/(theta*float64(d)))
		}
	}

	// Extra same-layer edges between non-communicating cores.
	extra := theta * maxWt / (10 * thetaMax)
	for i := 0; i < g.NumCores(); i++ {
		for j := i + 1; j < g.NumCores(); j++ {
			if g.Cores[i].Layer != g.Cores[j].Layer {
				continue
			}
			if pg.HasEdge(i, j) || pg.HasEdge(j, i) {
				continue
			}
			spg.AddEdge(i, j, extra)
		}
	}
	return spg
}

// LPG is the layer partitioning graph of Definition 5 for one layer. Vertices
// returns the core indices (into the design) that the graph vertices
// represent; Graph holds one vertex per entry of Vertices.
type LPG struct {
	Layer    int
	Vertices []int
	Graph    *graph.Graph
}

// BuildLPGs constructs one LPG per layer. Each LPG contains the cores of its
// layer, edges between cores that communicate within the layer (with the
// Definition 3 weight) and low-weight edges connecting otherwise isolated
// cores to every other core of the layer so that the partitioner still
// balances them.
func BuildLPGs(g *model.CommGraph, p Params) []LPG {
	maxBW := g.MaxBandwidth()
	minLat := g.MinLatency()
	layers := g.NumLayers()
	out := make([]LPG, 0, layers)
	for ly := 0; ly < layers; ly++ {
		verts := g.CoresInLayer(ly)
		pos := make(map[int]int, len(verts)) // core index -> vertex index
		for i, c := range verts {
			pos[c] = i
		}
		lg := graph.New(len(verts))
		for _, f := range g.Flows {
			si, sok := pos[f.Src]
			di, dok := pos[f.Dst]
			if !sok || !dok {
				continue
			}
			lg.AddEdge(si, di, edgeWeight(f, maxBW, minLat, p.Alpha))
		}
		// Connect isolated vertices with low-weight edges to all others.
		und := lg.Undirected()
		for i := range verts {
			if len(und.Successors(i)) > 0 {
				continue
			}
			for j := range verts {
				if i != j {
					lg.AddEdge(i, j, p.IsolatedEdgeWeight)
				}
			}
		}
		out = append(out, LPG{Layer: ly, Vertices: verts, Graph: lg})
	}
	return out
}

// PartitionCores partitions the cores of the design into k blocks using the
// given partitioning graph over all cores (PG or SPG). The result maps every
// core index to its block in [0, k).
func PartitionCores(pg *graph.Graph, k int) []int {
	return graph.PartitionK(pg, k)
}

// PartitionLPG partitions one layer's LPG into k blocks and returns a map
// from core index (design indices, not LPG vertex indices) to block.
func PartitionLPG(l LPG, k int) map[int]int {
	return PartitionLPGWith(l, graph.NewPartitioner(l.Graph), k)
}

// PartitionLPGWith is PartitionLPG for callers that partition one LPG for
// several block counts: p must be graph.NewPartitioner(l.Graph), built once.
func PartitionLPGWith(l LPG, p *graph.Partitioner, k int) map[int]int {
	if len(l.Vertices) == 0 {
		return map[int]int{}
	}
	if k > len(l.Vertices) {
		k = len(l.Vertices)
	}
	assign := p.PartitionK(k)
	out := make(map[int]int, len(l.Vertices))
	for v, block := range assign {
		out[l.Vertices[v]] = block
	}
	return out
}

// ThetaSweep returns the theta values of the SPG scaling loop, from ThetaMin
// to ThetaMax inclusive in steps of ThetaStep. Valid parameters have at
// most MaxThetaValues of them; for others the sweep stops there.
func (p Params) ThetaSweep() []float64 {
	return p.thetaSweep(MaxThetaValues)
}

// thetaSweep is ThetaSweep cut after limit values.
func (p Params) thetaSweep(limit int) []float64 {
	var ts []float64
	for t := p.ThetaMin; t <= p.ThetaMax+1e-9 && len(ts) < limit; t += p.ThetaStep {
		ts = append(ts, t)
	}
	return ts
}

// SwitchLayerFromBlock computes the layer of a switch serving the given cores
// as the rounded average of the member cores' layers (Algorithm 1, step 7).
func SwitchLayerFromBlock(g *model.CommGraph, cores []int) int {
	if len(cores) == 0 {
		return 0
	}
	sum := 0
	for _, c := range cores {
		sum += g.Cores[c].Layer
	}
	// Round to nearest integer layer.
	return (2*sum + len(cores)) / (2 * len(cores))
}

// SwitchLayerMajority is the alternative rule mentioned in the paper: assign
// the switch to the layer containing most of its cores (ties to the lower
// layer).
func SwitchLayerMajority(g *model.CommGraph, cores []int) int {
	counts := make(map[int]int)
	for _, c := range cores {
		counts[g.Cores[c].Layer]++
	}
	best, bestCount := 0, -1
	for layer := 0; layer <= maxLayer(g, cores); layer++ {
		if counts[layer] > bestCount {
			best, bestCount = layer, counts[layer]
		}
	}
	return best
}

func maxLayer(g *model.CommGraph, cores []int) int {
	m := 0
	for _, c := range cores {
		if g.Cores[c].Layer > m {
			m = g.Cores[c].Layer
		}
	}
	return m
}
