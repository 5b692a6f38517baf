package sunfloor3d

import (
	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/mesh"
)

// Benchmark is one design of the paper's synthetic benchmark suite, in both
// its 3-D and flattened 2-D incarnations.
type Benchmark struct {
	// Name is the paper's benchmark identifier (e.g. "D_36_4").
	Name string
	// Graph3D is the 3-D version: cores carry layer assignments and
	// per-layer floorplan positions.
	Graph3D *Design
	// Graph2D is the same cores and flows on a single layer with a fresh
	// single-die floorplan.
	Graph2D *Design
	// Layers is the number of 3-D layers used by Graph3D.
	Layers int
}

func benchmarkFromInternal(b bench.Benchmark) Benchmark {
	return Benchmark{Name: b.Name, Graph3D: b.Graph3D, Graph2D: b.Graph2D, Layers: b.Layers}
}

// Benchmarks returns every benchmark of the paper's evaluation, generated
// with the given seed.
func Benchmarks(seed int64) []Benchmark {
	all := bench.All(seed)
	out := make([]Benchmark, len(all))
	for i, b := range all {
		out[i] = benchmarkFromInternal(b)
	}
	return out
}

// BenchmarkByName returns the named benchmark (e.g. "D_26_media"), generated
// with the given seed.
func BenchmarkByName(name string, seed int64) (Benchmark, error) {
	b, err := bench.ByName(name, seed)
	if err != nil {
		return Benchmark{}, err
	}
	return benchmarkFromInternal(b), nil
}

// MeshBaseline maps the design onto a regular mesh NoC (one mesh per layer,
// vertical links between vertically adjacent nodes), prunes unused links,
// and returns its evaluation. It is the standard-topology baseline the
// paper's custom topologies are compared against (Fig. 23).
type MeshBaseline struct {
	// Metrics is the evaluation of the pruned mesh.
	Metrics Metrics
	// DimX and DimY are the per-layer mesh dimensions.
	DimX, DimY int
	// RemovedLinks is the number of unused switch-to-switch links pruned.
	RemovedLinks int

	topo *Topology
}

// Topology returns the mapped, routed and pruned mesh NoC.
func (m *MeshBaseline) Topology() *Topology { return m.topo }

// BuildMeshBaseline maps the design onto the mesh baseline.
func BuildMeshBaseline(d *Design) (*MeshBaseline, error) {
	res, err := mesh.Build(d, mesh.DefaultOptions())
	if err != nil {
		return nil, err
	}
	t := &Topology{t: res.Topology}
	return &MeshBaseline{
		Metrics:      t.Evaluate(),
		DimX:         res.DimX,
		DimY:         res.DimY,
		RemovedLinks: res.RemovedLinks,
		topo:         t,
	}, nil
}
