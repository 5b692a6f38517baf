package sunfloor3d

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"sunfloor3d/internal/workload"
)

// GenSpec parameterizes the random SoC workload generator: traffic shape,
// core and layer counts, seed, and the core-size, bandwidth and latency
// distributions. The zero value of every optional field selects a
// shape-appropriate default. See internal/workload for the full field
// documentation and the generator's connectivity and satisfiability
// guarantees.
type GenSpec = workload.Spec

// WorkloadShape selects the traffic structure of a generated benchmark.
type WorkloadShape = workload.Shape

// Generator traffic shapes.
const (
	// ShapePipeline chains the logic cores into one long processing pipeline
	// with side memories and periodic feedback paths.
	ShapePipeline = workload.Pipeline
	// ShapeHotspot concentrates traffic on a few hub memories every other
	// core reads and writes.
	ShapeHotspot = workload.Hotspot
	// ShapeMultiApp partitions the cores into independent application
	// clusters with their own bandwidth scales plus a few cross bridges.
	ShapeMultiApp = workload.MultiApp
	// ShapeLayered assigns cores to layers explicitly and mixes intra-layer
	// with vertical traffic.
	ShapeLayered = workload.Layered
)

// WorkloadShapes returns every generator shape, in declaration order.
func WorkloadShapes() []WorkloadShape { return workload.Shapes() }

// ParseWorkloadShape converts a shape name ("pipeline", "hotspot",
// "multiapp", "layered") to a WorkloadShape.
func ParseWorkloadShape(s string) (WorkloadShape, error) { return workload.ParseShape(s) }

// GenerateBenchmark builds a random but fully reproducible SoC benchmark
// from the spec: a connected, satisfiable design in both its 3-D (layered,
// floorplanned) and flattened 2-D incarnations. Equal specs generate
// byte-identical benchmarks, so a (shape, cores, layers, seed) tuple is a
// stable test-case identifier.
func GenerateBenchmark(spec GenSpec) (Benchmark, error) { return workload.Generate(spec) }

// LoadBenchmark reads a design from a core specification and a communication
// specification (the text formats of WriteDesign and cmd/specgen) and wraps
// it as a Benchmark: the parsed design as Graph3D and its single-layer
// flattening as Graph2D. The name identifies the benchmark in reports.
func LoadBenchmark(name string, coreSpec, commSpec io.Reader) (Benchmark, error) {
	d, err := LoadDesign(coreSpec, commSpec)
	if err != nil {
		return Benchmark{}, err
	}
	return Benchmark{Name: name, Graph3D: d, Graph2D: d.Flatten2D(), Layers: d.NumLayers()}, nil
}

// ParseGenSpec parses the comma-separated key=value form the CLI's -gen flag
// uses, e.g. "shape=hotspot,cores=40,layers=3,seed=7". Recognised keys:
// shape, cores, layers, seed, memfrac, apps, hubs, bandwidth, spread, slack,
// unconstrained. Unset keys keep the generator defaults.
func ParseGenSpec(s string) (GenSpec, error) {
	var spec GenSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return GenSpec{}, fmt.Errorf("sunfloor3d: -gen field %q is not key=value", part)
		}
		var err error
		switch key {
		case "shape":
			spec.Shape, err = workload.ParseShape(val)
		case "cores":
			spec.Cores, err = strconv.Atoi(val)
		case "layers":
			spec.Layers, err = strconv.Atoi(val)
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
		case "memfrac":
			spec.MemoryFraction, err = strconv.ParseFloat(val, 64)
		case "apps":
			spec.Apps, err = strconv.Atoi(val)
		case "hubs":
			spec.Hubs, err = strconv.Atoi(val)
		case "bandwidth":
			spec.MeanBandwidthMBps, err = strconv.ParseFloat(val, 64)
		case "spread":
			spec.BandwidthSpread, err = strconv.ParseFloat(val, 64)
		case "slack":
			spec.LatencySlack, err = strconv.ParseFloat(val, 64)
		case "unconstrained":
			spec.UnconstrainedFraction, err = strconv.ParseFloat(val, 64)
		default:
			return GenSpec{}, fmt.Errorf("sunfloor3d: unknown -gen key %q", key)
		}
		if err != nil {
			return GenSpec{}, fmt.Errorf("sunfloor3d: bad -gen value %q for %s: %w", val, key, err)
		}
	}
	if err := spec.Validate(); err != nil {
		return GenSpec{}, err
	}
	return spec, nil
}
