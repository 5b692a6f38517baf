package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/route"
	"sunfloor3d/internal/topology"
)

// stripTimings zeroes the non-deterministic per-point durations so results
// can be compared structurally.
func stripTimings(res *Result) {
	for i := range res.Points {
		res.Points[i].Elapsed = 0
	}
}

// TestPartitionCacheEquivalence checks the core contract of the sweep-wide
// partition cache: a three-frequency sweep that shares one cache returns the
// same design points as three single-frequency sweeps with a fresh cache
// each, serial or parallel, while computing fewer partitions than they do
// (the partitioner is deterministic, so sharing a computed partition across
// frequencies must not change anything). LPOnBest is off so that every point
// depends on its own frequency only, not on which point of the run wins.
func TestPartitionCacheEquivalence(t *testing.T) {
	g := smallDesign(t)
	base := DefaultOptions()
	base.LPOnBest = false
	base.FrequenciesMHz = []float64{400, 600, 800}

	sharedRes, err := Synthesize(g, base)
	if err != nil {
		t.Fatal(err)
	}
	parallel := base
	parallel.Parallelism = 8
	parallelRes, err := Synthesize(g, parallel)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &Result{}
	var freshStats CacheStats
	for _, f := range base.FrequenciesMHz {
		single := base
		single.FrequenciesMHz = []float64{f}
		r, err := Synthesize(g, single)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Points = append(fresh.Points, r.Points...)
		freshStats.Hits += r.Cache.Hits
		freshStats.Misses += r.Cache.Misses
	}

	shared := sharedRes.Cache
	if shared.Hits+shared.Misses != freshStats.Hits+freshStats.Misses {
		t.Errorf("shared sweep made %d lookups, single-frequency sweeps %d",
			shared.Hits+shared.Misses, freshStats.Hits+freshStats.Misses)
	}
	if shared.Misses >= freshStats.Misses {
		t.Errorf("shared sweep computed %d partitions, single-frequency sweeps %d: nothing shared across frequencies",
			shared.Misses, freshStats.Misses)
	}

	stripTimings(sharedRes)
	stripTimings(parallelRes)
	stripTimings(fresh)
	for name, other := range map[string]*Result{"single-frequency": fresh, "parallel": parallelRes} {
		if len(other.Points) != len(sharedRes.Points) {
			t.Fatalf("%s runs explored %d points, shared sweep %d", name, len(other.Points), len(sharedRes.Points))
		}
		for i := range sharedRes.Points {
			a, b := sharedRes.Points[i], other.Points[i]
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s runs diverge at point %d:\nshared: %+v\nother:  %+v", name, i, a, b)
			}
		}
	}
	if (sharedRes.Best == nil) != (parallelRes.Best == nil) {
		t.Fatal("parallel run best-point presence differs")
	}
	if sharedRes.Best != nil && !reflect.DeepEqual(sharedRes.Best.Metrics, parallelRes.Best.Metrics) {
		t.Fatal("parallel run best metrics differ")
	}
}

// routeDigestsFile holds one entry per attempt of
// TestFullRebuildRoutesSweepTopologies: the SHA-256 of the JSON of the
// router's Result and the topology's switches and routes. The full-rebuild
// reference router, which rebuilt every arc for every routing attempt, wrote
// it before it left production code; internal/route's tests keep that router
// as ComputePathsFullRebuild. After a change to which attempts the sweep
// builds, rewrite it with
//
//	go test ./internal/synth -run TestFullRebuildRoutesSweepTopologies -update
//
// which hashes the production router's output, so run it only while
// internal/route's FuzzComputePaths passes.
const routeDigestsFile = "testdata/full_rebuild_routes.json"

var update = flag.Bool("update", false, "rewrite "+routeDigestsFile)

// routeDigest is one entry of routeDigestsFile.
type routeDigest struct {
	Attempt string `json:"attempt"`
	SHA256  string `json:"sha256"`
}

// TestFullRebuildRoutesSweepTopologies checks that the router commits the
// full-rebuild reference router's routes on every topology two small-design
// sweeps build: each attempt an automatic-phase sweep and a Phase-2-only
// sweep report to their progress streams is stripped back to its switches
// and core attachments, routed once, and hashed against routeDigestsFile.
// (The automatic sweep's unmet counts are all decided before a retry, so it
// builds Phase-1 topologies only; the Phase-2-only sweep supplies the
// layer-by-layer ones.) The re-route must also reproduce the routes the
// sweep committed.
func TestFullRebuildRoutesSweepTopologies(t *testing.T) {
	g := smallDesign(t)
	opt := DefaultOptions()
	opt.FrequenciesMHz = []float64{400, 600, 800}
	opt.MaxILL = 6
	var built []DesignPoint
	opt.Progress = func(ev Event) {
		if ev.Point.Topology != nil {
			built = append(built, ev.Point)
		}
	}
	if _, err := Synthesize(g, opt); err != nil {
		t.Fatal(err)
	}
	phase2 := opt
	phase2.Phase = Phase2Only
	if _, err := Synthesize(g, phase2); err != nil {
		t.Fatal(err)
	}
	if len(built) == 0 {
		t.Fatal("the sweep built no topology")
	}
	phases := map[int]int{}
	got := make([]routeDigest, len(built))
	for i, dp := range built {
		phases[dp.Phase]++
		top := unrouted(dp.Topology)
		res, err := route.ComputePaths(top, routeConfig(opt, dp.FreqMHz, dp.Phase == 2))
		if err != nil {
			t.Fatalf("attempt %d: routing failed: %v", i, err)
		}
		raw, err := json.Marshal(struct {
			Result   route.Result
			Switches []topology.Switch
			Routes   []topology.Route
		}{res, top.Switches, top.Routes})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		got[i] = routeDigest{
			Attempt: fmt.Sprintf("%.0f MHz, %d switches, phase %d", dp.FreqMHz, dp.SwitchCount, dp.Phase),
			SHA256:  hex.EncodeToString(sum[:]),
		}
		if dp.Route.Routed > 0 && !reflect.DeepEqual(top.Routes, dp.Topology.Routes) {
			t.Errorf("attempt %d: re-routing did not reproduce the sweep's committed routes", i)
		}
	}
	if phases[1] == 0 || phases[2] == 0 {
		t.Errorf("sweep built phase-1/phase-2 topologies %d/%d, want both", phases[1], phases[2])
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(routeDigestsFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(routeDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []routeDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("the sweeps built %d attempts, %s holds %d", len(got), routeDigestsFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("attempt %d: got %+v, the full-rebuild router committed %+v", i, got[i], want[i])
		}
	}
}

// unrouted returns a fresh topology with top's core-attached switches and
// core attachments but no routes and no indirect switches: the input the
// path-computation step saw when the sweep built top.
func unrouted(top *topology.Topology) *topology.Topology {
	u := topology.New(top.Design, top.Lib, top.FreqMHz)
	for _, s := range top.Switches {
		if s.Indirect {
			continue
		}
		id := u.AddSwitch(s.Layer)
		u.Switches[id].Pos = s.Pos
	}
	for c, sw := range top.CoreAttach {
		u.AttachCore(c, sw)
	}
	return u
}

// TestRefineBestRejectsWorseningRefinement checks the LPOnBest fix: a
// refinement that worsens the objective must not overwrite the best point.
func TestRefineBestRejectsWorseningRefinement(t *testing.T) {
	g := smallDesign(t)
	opt := DefaultOptions()
	opt.LPOnBest = false
	res, err := Synthesize(g, opt)
	if err != nil || res.Best == nil {
		t.Fatalf("synthesis failed: %v", err)
	}
	wantMetrics := res.Best.Metrics
	wantTop := res.Best.Topology

	scramble := func(top *topology.Topology) error {
		for i := range top.Switches {
			top.Switches[i].Pos = geom.Point{X: top.Switches[i].Pos.X + 500, Y: 500}
		}
		return nil
	}
	refineBest(res, opt, scramble)
	if res.Best.Topology != wantTop {
		t.Error("worsening refinement replaced the best topology")
	}
	if !reflect.DeepEqual(res.Best.Metrics, wantMetrics) {
		t.Errorf("worsening refinement overwrote metrics:\ngot  %+v\nwant %+v", res.Best.Metrics, wantMetrics)
	}
}

// TestRefineBestIgnoresFailedRefinement checks that a refiner error leaves
// the best point untouched.
func TestRefineBestIgnoresFailedRefinement(t *testing.T) {
	g := smallDesign(t)
	opt := DefaultOptions()
	opt.LPOnBest = false
	res, err := Synthesize(g, opt)
	if err != nil || res.Best == nil {
		t.Fatalf("synthesis failed: %v", err)
	}
	wantMetrics := res.Best.Metrics
	refineBest(res, opt, func(*topology.Topology) error { return fmt.Errorf("no solution") })
	if !reflect.DeepEqual(res.Best.Metrics, wantMetrics) {
		t.Error("failed refinement changed the best point")
	}
}

// TestRefineBestKeepsBestMinimal checks that after the production LPOnBest
// refinement the best point is still valid and still the minimum-cost valid
// point — the invariant the old code could break.
func TestRefineBestKeepsBestMinimal(t *testing.T) {
	g := smallDesign(t)
	opt := DefaultOptions()
	opt.LPOnBest = true
	res, err := Synthesize(g, opt)
	if err != nil || res.Best == nil {
		t.Fatalf("synthesis failed: %v", err)
	}
	if !res.Best.Valid {
		t.Fatal("refined best point is not valid")
	}
	if reason := validateTopology(res.Best.Topology, opt, res.Best.Metrics, res.Best.FreqMHz); reason != "" {
		t.Fatalf("refined best point violates constraints: %s", reason)
	}
	bestCost := res.Best.Cost(opt.PowerWeight, opt.LatencyWeight)
	for _, p := range res.ValidPoints() {
		if c := p.Cost(opt.PowerWeight, opt.LatencyWeight); c < bestCost-1e-9 {
			t.Errorf("refined best (%v) beaten by a point with cost %v", bestCost, c)
		}
	}

	noLP := opt
	noLP.LPOnBest = false
	plain, err := Synthesize(g, noLP)
	if err != nil || plain.Best == nil {
		t.Fatalf("unrefined synthesis failed: %v", err)
	}
	if bestCost > plain.Best.Cost(opt.PowerWeight, opt.LatencyWeight)+1e-9 {
		t.Errorf("LPOnBest worsened the shipped best: %v > %v",
			bestCost, plain.Best.Cost(opt.PowerWeight, opt.LatencyWeight))
	}
}

// bruteForcePareto is the quadratic reference: non-dominated points, deduped
// to the lowest index per (power, latency) pair, sorted like ParetoIndices.
func bruteForcePareto(power, latency []float64) []int {
	seen := make(map[[2]float64]bool)
	var front []int
	idx := make([]int, len(power))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if power[i] != power[j] {
			return power[i] < power[j]
		}
		if latency[i] != latency[j] {
			return latency[i] < latency[j]
		}
		return i < j
	})
	for _, i := range idx {
		dominated := false
		for j := range power {
			if i == j {
				continue
			}
			if power[j] <= power[i] && latency[j] <= latency[i] &&
				(power[j] < power[i] || latency[j] < latency[i]) {
				dominated = true
				break
			}
		}
		key := [2]float64{power[i], latency[i]}
		if !dominated && !seen[key] {
			seen[key] = true
			front = append(front, i)
		}
	}
	return front
}

func TestParetoIndicesDeduplicates(t *testing.T) {
	power := []float64{1, 1, 2, 3, 2}
	latency := []float64{5, 5, 4, 6, 4}
	got := ParetoIndices(power, latency)
	want := []int{0, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParetoIndices = %v, want %v (duplicates kept?)", got, want)
	}
	if out := ParetoIndices(nil, nil); out != nil {
		t.Errorf("empty input returned %v", out)
	}
}

func TestParetoIndicesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		power := make([]float64, n)
		latency := make([]float64, n)
		for i := range power {
			// Coarse grid so exact duplicates and ties actually occur.
			power[i] = float64(rng.Intn(8))
			latency[i] = float64(rng.Intn(8))
		}
		got := ParetoIndices(power, latency)
		want := bruteForcePareto(power, latency)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ParetoIndices = %v, want %v\npower   %v\nlatency %v",
				trial, got, want, power, latency)
		}
		for i := 1; i < len(got); i++ {
			if power[got[i-1]] >= power[got[i]] {
				t.Fatalf("trial %d: front power not strictly increasing: %v", trial, got)
			}
			if latency[got[i-1]] <= latency[got[i]] {
				t.Fatalf("trial %d: front latency not strictly decreasing: %v", trial, got)
			}
		}
	}
}
