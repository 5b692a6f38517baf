package bench_test

// Digest regression test for the designs' core positions: every core
// position the floorplanner gives the seven paper designs (3-D layers and
// the 2-D die) at seeds 1-3, and the first 48 designs of the generator
// strings the benchmark's serve workload draws at seed 1, is hashed by its
// float bits and compared against testdata/floorplan_digests.json. The
// golden synthesis corpus only sees the designs it synthesizes; this pins
// the floorplanner's output on every design the benchmark generates, so a
// change to the annealer's moves, its random draws or its packing shows up
// here first. After an intentional change, regenerate with:
//
//	go test ./internal/bench -run TestFloorplanDigests -update
//
// and review the diff like any other code change.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/floorplan_digests.json")

const floorplanDigestFile = "testdata/floorplan_digests.json"

// serveStyleSpecs returns the first n specs the serve workload draws for a
// seed: shapes rotate through all four, and the core count (12-24), the
// layer count (2-3) and the generator seed come from the seed's stream.
func serveStyleSpecs(seed int64, n int) []workload.Spec {
	shapes := workload.Shapes()
	rng := rand.New(rand.NewSource(seed))
	specs := make([]workload.Spec, n)
	for i := range specs {
		specs[i] = workload.Spec{
			Shape:  shapes[i%len(shapes)],
			Cores:  12 + rng.Intn(13),
			Layers: 2 + rng.Intn(2),
			Seed:   rng.Int63n(1 << 31),
		}
	}
	return specs
}

// positionDigest hashes the layer and the exact bits of the position of
// every core of g.
func positionDigest(g *model.CommGraph) string {
	h := sha256.New()
	for i, c := range g.Cores {
		fmt.Fprintf(h, "%d %s %d %016x %016x\n", i, c.Name, c.Layer, math.Float64bits(c.X), math.Float64bits(c.Y))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func floorplanDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	add := func(key string, b bench.Benchmark) {
		out[key+"/3d"] = positionDigest(b.Graph3D)
		out[key+"/2d"] = positionDigest(b.Graph2D)
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, b := range bench.All(seed) {
			add(fmt.Sprintf("%s/seed%d", b.Name, seed), b)
		}
	}
	for i, spec := range serveStyleSpecs(1, 48) {
		b, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("serve%02d/%s", i, b.Name), b)
	}
	return out
}

func TestFloorplanDigests(t *testing.T) {
	got := floorplanDigests(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(floorplanDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(floorplanDigestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), floorplanDigestFile)
		return
	}
	data, err := os.ReadFile(floorplanDigestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %.12s, want %.12s", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("computed %d digests, %s holds %d", len(got), floorplanDigestFile, len(want))
	}
}
