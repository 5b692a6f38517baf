package partition_test

// Digest regression test for the min-cut partitioner: every partition the
// synthesis engine can ask for on a fixed set of designs is hashed and
// compared against testdata/partition_digests.json. The golden synthesis
// corpus only pins the partitions a sweep happens to reach; this pins all of
// them — PartitionCores on the PG and on the SPG of every theta of the sweep,
// for every block count, and PartitionLPG for every layer and block count —
// so any change to the partitioner's visit orders, gains or float folds
// shows up here first. After an intentional change, regenerate with:
//
//	go test ./internal/partition -run TestPartitionDigests -update
//
// and review the diff like any other code change.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/model"
	"sunfloor3d/internal/partition"
	"sunfloor3d/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/partition_digests.json")

const digestFile = "testdata/partition_digests.json"

// digestDesign is one design of the digest corpus.
type digestDesign struct {
	name string
	g    *model.CommGraph
}

// digestDesigns returns the corpus: the five designs of the benchmark's
// sweep workload at seeds 1 and 2, and one generated workload per shape.
func digestDesigns(t *testing.T) []digestDesign {
	t.Helper()
	var out []digestDesign
	for _, seed := range []int64{1, 2} {
		for _, b := range []bench.Benchmark{
			bench.D26Media(seed), bench.D36(4, seed), bench.D35Bot(seed),
			bench.D65Pipe(seed), bench.D38TVOPD(seed),
		} {
			out = append(out, digestDesign{fmt.Sprintf("%s/seed%d", b.Name, seed), b.Graph3D})
		}
	}
	for _, shape := range workload.Shapes() {
		b, err := workload.Generate(workload.Spec{Shape: shape, Cores: 24, Layers: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestDesign{b.Name, b.Graph3D})
	}
	return out
}

// partitionDigests computes the digest entries of one design, keyed by
// "<design>/<graph>".
func partitionDigests(d digestDesign) map[string]string {
	p := partition.DefaultParams()
	out := make(map[string]string)
	n := d.g.NumCores()
	sum := func(key string, write func(h hash.Hash)) {
		h := sha256.New()
		write(h)
		out[d.name+"/"+key] = hex.EncodeToString(h.Sum(nil))
	}
	pg := partition.BuildPG(d.g, p.Alpha)
	sum("pg", func(h hash.Hash) {
		for k := 1; k <= n; k++ {
			fmt.Fprintf(h, "k=%d %v\n", k, partition.PartitionCores(pg, k))
		}
	})
	for _, theta := range p.ThetaSweep() {
		spg := partition.BuildSPGFrom(pg, d.g, theta, p.ThetaMax)
		sum(fmt.Sprintf("spg/theta=%g", theta), func(h hash.Hash) {
			for k := 1; k <= n; k++ {
				fmt.Fprintf(h, "k=%d %v\n", k, partition.PartitionCores(spg, k))
			}
		})
	}
	sum("lpg", func(h hash.Hash) {
		for _, l := range partition.BuildLPGs(d.g, p) {
			for np := 1; np <= len(l.Vertices); np++ {
				assign := partition.PartitionLPG(l, np)
				cores := make([]int, 0, len(assign))
				for c := range assign {
					cores = append(cores, c)
				}
				sort.Ints(cores)
				fmt.Fprintf(h, "layer=%d np=%d", l.Layer, np)
				for _, c := range cores {
					fmt.Fprintf(h, " %d:%d", c, assign[c])
				}
				fmt.Fprintln(h)
			}
		}
	})
	return out
}

func TestPartitionDigests(t *testing.T) {
	got := make(map[string]string)
	for _, d := range digestDesigns(t) {
		for k, v := range partitionDigests(d) {
			got[k] = v
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestFile)
		return
	}
	data, err := os.ReadFile(digestFile)
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
		t.Errorf("computed %d digests, %s holds %d", len(got), digestFile, len(want))
	}
}
