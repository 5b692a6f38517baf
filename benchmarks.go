package sunfloor3d

import (
	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/mesh"
)

// Benchmark is one design in both its 3-D and flattened 2-D incarnations:
// Name, Graph3D (cores on layers, floorplanned per layer), Graph2D (the same
// cores and flows on one die with its own floorplan) and Layers. It is one
// type for the paper's designs (Benchmarks, BenchmarkByName), generated
// designs (GenerateBenchmark) and loaded ones (LoadBenchmark).
type Benchmark = bench.Benchmark

// Benchmarks returns every benchmark of the paper's evaluation, generated
// with the given seed.
func Benchmarks(seed int64) []Benchmark { return bench.All(seed) }

// BenchmarkByName returns the named benchmark (e.g. "D_26_media"), generated
// with the given seed.
func BenchmarkByName(name string, seed int64) (Benchmark, error) { return bench.ByName(name, seed) }

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
