package synth

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/place"
	"sunfloor3d/internal/topology"
)

// TestPlacementMemoSolvesEachInputOnce checks that a run with the LP on every
// point solves each distinct placement once, across frequencies and across
// layer-count folds: D_38_tvopd has two layers, so both layer_count values
// fold it to itself and the second fold repeats every placement of the
// first, and some routed topologies recur at 400 and 800 MHz. The run is the one
// SynthesizeContext makes, with a memo the test can read; every topology it
// placed then goes through a fresh memo, whose solve count is the number of
// distinct inputs. The bytes must not depend on the parallelism.
func TestPlacementMemoSolvesEachInputOnce(t *testing.T) {
	g := bench.D38TVOPD(1).Graph3D
	opt := DefaultOptions()
	opt.RunLPPlacement, opt.LPOnBest = true, false
	opt.Space = &Space{Axes: []Axis{
		{Name: AxisFreqMHz, Values: []float64{400, 800}},
		{Name: AxisLayerCount, Values: []float64{2, 3}},
	}}

	var mu sync.Mutex
	var placed []*topology.Topology
	counted := opt
	counted.Progress = func(e Event) {
		// A point reaches the LP exactly when every flow is routed.
		if p := e.Point; p.Route.Routed > 0 && p.Route.FailedFlows == 0 {
			mu.Lock()
			placed = append(placed, p.Topology)
			mu.Unlock()
		}
	}
	placements := place.NewMemo()
	ctx := context.Background()
	p := newPool(ctx, counted)
	res, err := exploreSpace(ctx, g, counted, ExplorationHooks{}, placements, p)
	p.close()
	if err != nil {
		t.Fatal(err)
	}

	distinct := place.NewMemo()
	for _, top := range placed {
		if err := distinct.OptimizeSwitchPositions(top.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := placements.Solves(), distinct.Solves(); got != want {
		t.Errorf("the run solved %d placements for %d distinct inputs", got, want)
	}
	if distinct.Solves() >= len(placed) {
		t.Fatalf("no placement repeats: %d placements, %d distinct", len(placed), distinct.Solves())
	}
	t.Logf("%d placements, %d distinct", len(placed), distinct.Solves())

	want := pointBytes(t, res)
	for _, par := range []int{1, 4} {
		o := opt
		o.Parallelism = par
		r, err := Synthesize(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if string(pointBytes(t, r)) != string(want) {
			t.Errorf("Parallelism %d: points differ from the counted run's", par)
		}
	}
}

// pointBytes returns the JSON of a result's points and best point.
func pointBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	raw, err := json.Marshal(struct {
		Points []DesignPoint
		Best   *DesignPoint
	}{r.Points, r.Best})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
