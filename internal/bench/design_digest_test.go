package bench_test

// Digest regression test for every field of the generated designs: every
// core (name, layer, memory flag and the bits of its size and position) and
// every flow (ends, message type and the bits of its bandwidth and latency
// constraint) of the seven paper designs at seeds 1-3, of the first 48
// serve-style designs of seed 1 and of a grid of generated designs over all
// four shapes, 3-D and 2-D, compared against testdata/design_digests.json.
// TestFloorplanDigests pins positions only; this pins what the generators
// draw and how they layer it. After an intentional change, regenerate with:
//
//	go test ./internal/bench -run TestDesignDigests -update
//
// and review the diff like any other code change.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/workload"
)

const designDigestFile = "testdata/design_digests.json"

// designDigest hashes every field of every core and flow of g.
func designDigest(g *model.CommGraph) string {
	h := sha256.New()
	for i, c := range g.Cores {
		fmt.Fprintf(h, "core %d %s %d %t %016x %016x %016x %016x\n", i, c.Name, c.Layer, c.IsMemory,
			math.Float64bits(c.Width), math.Float64bits(c.Height), math.Float64bits(c.X), math.Float64bits(c.Y))
	}
	for i, f := range g.Flows {
		fmt.Fprintf(h, "flow %d %d %d %d %016x %016x\n", i, f.Src, f.Dst, f.Type,
			math.Float64bits(f.BandwidthMBps), math.Float64bits(f.LatencyCycles))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// designDigestGrid returns the generated designs of the grid: every shape,
// 6-34 cores in steps of 7, 1-4 layers and seeds 1-3.
func designDigestGrid() []workload.Spec {
	var specs []workload.Spec
	for _, shape := range workload.Shapes() {
		for cores := 6; cores <= 34; cores += 7 {
			for layers := 1; layers <= 4; layers++ {
				for seed := int64(1); seed <= 3; seed++ {
					specs = append(specs, workload.Spec{Shape: shape, Cores: cores, Layers: layers, Seed: seed})
				}
			}
		}
	}
	return specs
}

func designDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	add := func(key string, b bench.Benchmark) {
		out[key+"/3d"] = designDigest(b.Graph3D)
		out[key+"/2d"] = designDigest(b.Graph2D)
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, b := range bench.All(seed) {
			add(fmt.Sprintf("%s/seed%d", b.Name, seed), b)
		}
	}
	generate := func(prefix string, specs []workload.Spec) {
		for i, spec := range specs {
			b, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("%s%02d/%s", prefix, i, b.Name), b)
		}
	}
	generate("serve", serveStyleSpecs(1, 48))
	generate("grid", designDigestGrid())
	return out
}

func TestDesignDigests(t *testing.T) {
	// designDigest hashes each field by name: a new field must join it.
	if n := reflect.TypeOf(model.Core{}).NumField(); n != 7 {
		t.Fatalf("model.Core has %d fields, designDigest hashes 7", n)
	}
	if n := reflect.TypeOf(model.Flow{}).NumField(); n != 5 {
		t.Fatalf("model.Flow has %d fields, designDigest hashes 5", n)
	}
	checkDigestFile(t, designDigestFile, designDigests(t))
}
