package floorplan

import (
	"math"
	"testing"

	"sunfloor3d/internal/geom"
)

func squareBlocks(n int, side float64) []Block {
	blocks := make([]Block, n)
	for i := range blocks {
		blocks[i] = Block{Name: blockName(i), W: side, H: side}
	}
	return blocks
}

func blockName(i int) string { return "b" + string(rune('0'+i%10)) + string(rune('a'+i/10)) }

func noOverlaps(t *testing.T, blocks []Block, res *Result) {
	t.Helper()
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			ri := res.Rect(blocks, i)
			rj := res.Rect(blocks, j)
			if ri.Overlaps(rj) {
				t.Fatalf("blocks %d and %d overlap: %v vs %v", i, j, ri, rj)
			}
		}
	}
}

func TestFloorplanLegalAndTight(t *testing.T) {
	blocks := squareBlocks(9, 1)
	res, err := Floorplan(blocks, nil, DefaultParams(1))
	if err != nil {
		t.Fatalf("Floorplan: %v", err)
	}
	noOverlaps(t, blocks, res)
	// Total block area is 9; a decent floorplan of nine unit squares should
	// stay well under 2x dead space.
	if res.AreaMM2 < 9 {
		t.Fatalf("area %v below total block area", res.AreaMM2)
	}
	if res.AreaMM2 > 18 {
		t.Errorf("area %v too loose for 9 unit squares", res.AreaMM2)
	}
	if res.BoundingBox.Area() != res.AreaMM2 {
		t.Error("bounding box and area disagree")
	}
}

func TestFloorplanErrors(t *testing.T) {
	if _, err := Floorplan(nil, nil, DefaultParams(1)); err == nil {
		t.Error("empty block list should fail")
	}
	if _, err := Floorplan([]Block{{Name: "z", W: 0, H: 1}}, nil, DefaultParams(1)); err == nil {
		t.Error("zero-size block should fail")
	}
	blocks := squareBlocks(2, 1)
	if _, err := Floorplan(blocks, []Net{{A: 0, B: 7, Weight: 1}}, DefaultParams(1)); err == nil {
		t.Error("net out of range should fail")
	}
	if _, err := FloorplanWithInitial(blocks, nil, []geom.Point{{X: 0, Y: 0}}, DefaultParams(1)); err == nil {
		t.Error("initial position count mismatch should fail")
	}
}

func TestWireWeightPullsConnectedBlocksTogether(t *testing.T) {
	// 8 blocks; a heavy net between blocks 0 and 7. With wire weight the two
	// should end up closer than the farthest possible distance.
	blocks := squareBlocks(8, 1)
	nets := []Net{{A: 0, B: 7, Weight: 50}}
	p := DefaultParams(3)
	p.WireWeight = 2.0
	res, err := Floorplan(blocks, nets, p)
	if err != nil {
		t.Fatal(err)
	}
	noOverlaps(t, blocks, res)
	c0 := res.Rect(blocks, 0).Center()
	c7 := res.Rect(blocks, 7).Center()
	d := geom.Manhattan(c0, c7)
	// Spread over a ~3x3 area the maximum centre distance would approach 6;
	// connected blocks should be much closer.
	if d > 3 {
		t.Errorf("connected blocks %v apart, expected them pulled together", d)
	}
	if res.WireLengthMM <= 0 {
		t.Error("wirelength should be positive")
	}
}

func TestDeterminism(t *testing.T) {
	blocks := squareBlocks(10, 1)
	nets := []Net{{A: 0, B: 9, Weight: 5}, {A: 2, B: 3, Weight: 1}}
	a, err := Floorplan(blocks, nets, DefaultParams(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Floorplan(blocks, nets, DefaultParams(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatalf("same seed produced different placements at block %d", i)
		}
	}
	c, err := Floorplan(blocks, nets, DefaultParams(43))
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seed may or may not differ; only determinism per seed matters
}

func TestMixedBlockSizes(t *testing.T) {
	blocks := []Block{
		{Name: "big", W: 4, H: 3},
		{Name: "tall", W: 1, H: 5},
		{Name: "small1", W: 1, H: 1},
		{Name: "small2", W: 1.5, H: 1},
		{Name: "wide", W: 5, H: 1},
	}
	res, err := Floorplan(blocks, nil, DefaultParams(7))
	if err != nil {
		t.Fatal(err)
	}
	noOverlaps(t, blocks, res)
	total := 0.0
	for _, b := range blocks {
		total += b.W * b.H
	}
	if res.AreaMM2 < total {
		t.Errorf("area %v below block area %v", res.AreaMM2, total)
	}
	if res.AreaMM2 > 3*total {
		t.Errorf("area %v very loose (blocks %v)", res.AreaMM2, total)
	}
}

func TestConstrainedModePreservesCoreOrder(t *testing.T) {
	// Four fixed cores in a 2x2 arrangement plus two movable switches. In
	// constrained mode the cores' relative left/right and above/below
	// relations must be the same after floorplanning.
	blocks := []Block{
		{Name: "c00", W: 2, H: 2, Fixed: true},
		{Name: "c10", W: 2, H: 2, Fixed: true},
		{Name: "c01", W: 2, H: 2, Fixed: true},
		{Name: "c11", W: 2, H: 2, Fixed: true},
		{Name: "sw0", W: 0.5, H: 0.5},
		{Name: "sw1", W: 0.5, H: 0.5},
	}
	initial := []geom.Point{
		{X: 0, Y: 0}, {X: 2.2, Y: 0}, {X: 0, Y: 2.2}, {X: 2.2, Y: 2.2},
		{X: 1, Y: 1}, {X: 3, Y: 3},
	}
	nets := []Net{{A: 4, B: 0, Weight: 10}, {A: 4, B: 1, Weight: 10}, {A: 5, B: 3, Weight: 10}}
	p := DefaultParams(11)
	p.Constrained = true
	res, err := FloorplanWithInitial(blocks, nets, initial, p)
	if err != nil {
		t.Fatal(err)
	}
	noOverlaps(t, blocks, res)
	// Relative order of the cores must match the input: c00 left of c10,
	// c00 below c01, c10 below c11, c01 left of c11.
	c := func(i int) geom.Point { return res.Rect(blocks, i).Center() }
	if !(c(0).X < c(1).X) {
		t.Errorf("c00 no longer left of c10: %v vs %v", c(0), c(1))
	}
	if !(c(2).X < c(3).X) {
		t.Errorf("c01 no longer left of c11: %v vs %v", c(2), c(3))
	}
	if !(c(0).Y < c(2).Y) {
		t.Errorf("c00 no longer below c01: %v vs %v", c(0), c(2))
	}
	if !(c(1).Y < c(3).Y) {
		t.Errorf("c10 no longer below c11: %v vs %v", c(1), c(3))
	}
}

func TestConstrainedAllFixed(t *testing.T) {
	blocks := []Block{
		{Name: "a", W: 1, H: 1, Fixed: true},
		{Name: "b", W: 1, H: 1, Fixed: true},
	}
	initial := []geom.Point{{X: 0, Y: 0}, {X: 1.5, Y: 0}}
	p := DefaultParams(5)
	p.Constrained = true
	res, err := FloorplanWithInitial(blocks, nil, initial, p)
	if err != nil {
		t.Fatal(err)
	}
	noOverlaps(t, blocks, res)
	// a must remain left of b.
	if !(res.Positions[0].X < res.Positions[1].X) {
		t.Errorf("fixed order changed: %v", res.Positions)
	}
}

func TestUnconstrainedBeatsOrMatchesConstrainedArea(t *testing.T) {
	// Given freedom to swap everything, the annealer should find an area at
	// least as good as the constrained run on the same input. This mirrors
	// the paper's observation that the constrained standard floorplanner is
	// handicapped.
	blocks := []Block{
		{Name: "a", W: 3, H: 1, Fixed: true},
		{Name: "b", W: 1, H: 3, Fixed: true},
		{Name: "c", W: 2, H: 2, Fixed: true},
		{Name: "d", W: 1, H: 1, Fixed: true},
		{Name: "sw", W: 0.6, H: 0.6},
	}
	initial := []geom.Point{{X: 0, Y: 0}, {X: 3.5, Y: 0}, {X: 0, Y: 1.5}, {X: 3.5, Y: 3.5}, {X: 2.5, Y: 2.5}}
	pc := DefaultParams(9)
	pc.Constrained = true
	con, err := FloorplanWithInitial(blocks, nil, initial, pc)
	if err != nil {
		t.Fatal(err)
	}
	pu := DefaultParams(9)
	unc, err := FloorplanWithInitial(blocks, nil, initial, pu)
	if err != nil {
		t.Fatal(err)
	}
	if unc.AreaMM2 > con.AreaMM2*1.2 {
		t.Errorf("unconstrained area %v much worse than constrained %v", unc.AreaMM2, con.AreaMM2)
	}
}

func TestDisplacementWeightKeepsFixedBlocksNearInitial(t *testing.T) {
	// Four fixed cores placed with deliberate whitespace plus one movable
	// switch. With a strong displacement penalty the fixed blocks should end
	// up closer to their initial positions than without it.
	blocks := []Block{
		{Name: "c0", W: 2, H: 2, Fixed: true},
		{Name: "c1", W: 2, H: 2, Fixed: true},
		{Name: "c2", W: 2, H: 2, Fixed: true},
		{Name: "c3", W: 2, H: 2, Fixed: true},
		{Name: "sw", W: 0.5, H: 0.5},
	}
	initial := []geom.Point{
		{X: 1, Y: 1}, {X: 4, Y: 1}, {X: 1, Y: 4}, {X: 4, Y: 4}, {X: 3, Y: 3},
	}
	drift := func(weight float64) float64 {
		p := DefaultParams(21)
		p.Constrained = true
		p.DisplacementWeight = weight
		res, err := FloorplanWithInitial(blocks, nil, initial, p)
		if err != nil {
			t.Fatal(err)
		}
		var d float64
		for i, b := range blocks {
			if b.Fixed {
				d += geom.Manhattan(res.Positions[i], initial[i])
			}
		}
		return d
	}
	free := drift(0)
	held := drift(50)
	if held > free+1e-9 {
		t.Errorf("displacement penalty increased drift: %v (penalised) vs %v (free)", held, free)
	}
}

func TestPackingMatchesSequencePairSemantics(t *testing.T) {
	// Two unit blocks with identity sequence pair: block 0 must be left of
	// block 1 and both at y=0.
	blocks := squareBlocks(2, 1)
	res := packPair(blocks, nil, sequencePair{pos: []int{0, 1}, neg: []int{0, 1}})
	if res.Positions[0].X != 0 || res.Positions[1].X != 1 {
		t.Errorf("positions = %v", res.Positions)
	}
	if res.Positions[0].Y != 0 || res.Positions[1].Y != 0 {
		t.Errorf("positions = %v", res.Positions)
	}
	// Reversed in pos only: 0 below 1.
	res = packPair(blocks, nil, sequencePair{pos: []int{1, 0}, neg: []int{0, 1}})
	if res.Positions[0].Y != 0 || res.Positions[1].Y != 1 {
		t.Errorf("below/above packing wrong: %v", res.Positions)
	}
	if math.Abs(res.AreaMM2-1*2) > 1e-9 {
		t.Errorf("area = %v, want 2", res.AreaMM2)
	}
}

func TestSequencePairFromPlacementRoundTrip(t *testing.T) {
	// A legal 2x2 grid placement must be reproduced (up to compaction) by the
	// derived sequence pair.
	blocks := squareBlocks(4, 1)
	initial := []geom.Point{{X: 0, Y: 0}, {X: 1.2, Y: 0}, {X: 0, Y: 1.2}, {X: 1.2, Y: 1.2}}
	sp := sequencePairFromPlacement(blocks, initial)
	res := packPair(blocks, nil, sp)
	// Relative order preserved: block1 right of block0, block2 above block0.
	if !(res.Positions[1].X > res.Positions[0].X) {
		t.Errorf("block1 not right of block0: %v", res.Positions)
	}
	if !(res.Positions[2].Y > res.Positions[0].Y) {
		t.Errorf("block2 not above block0: %v", res.Positions)
	}
	if !(res.Positions[3].X > res.Positions[2].X && res.Positions[3].Y > res.Positions[1].Y) {
		t.Errorf("block3 not top-right: %v", res.Positions)
	}
	noOverlaps(t, blocks, &Result{Positions: res.Positions})
}
