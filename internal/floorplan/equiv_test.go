package floorplan

// Equivalence of the annealer with the reference annealer in
// reference_test.go: the same Result, bit for bit, for the same inputs.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sunfloor3d/internal/geom"
)

// packPair packs a sequence pair with the annealer's evaluator.
func packPair(blocks []Block, nets []Net, sp sequencePair) *Result {
	pair := newRankedPair(sp)
	return newEvaluator(blocks, nets, Params{}, nil).result(&pair)
}

// sameResult reports the first difference between two Results, comparing
// every float by its bits.
func sameResult(got, want *Result) error {
	if len(got.Positions) != len(want.Positions) {
		return fmt.Errorf("%d positions, want %d", len(got.Positions), len(want.Positions))
	}
	bits := math.Float64bits
	for i := range got.Positions {
		g, w := got.Positions[i], want.Positions[i]
		if bits(g.X) != bits(w.X) || bits(g.Y) != bits(w.Y) {
			return fmt.Errorf("block %d at %v, want %v", i, g, w)
		}
	}
	g, w := got.BoundingBox, want.BoundingBox
	if bits(g.X) != bits(w.X) || bits(g.Y) != bits(w.Y) || bits(g.W) != bits(w.W) || bits(g.H) != bits(w.H) {
		return fmt.Errorf("bounding box %v, want %v", g, w)
	}
	if bits(got.AreaMM2) != bits(want.AreaMM2) {
		return fmt.Errorf("area %v, want %v", got.AreaMM2, want.AreaMM2)
	}
	if bits(got.WireLengthMM) != bits(want.WireLengthMM) {
		return fmt.Errorf("wirelength %v, want %v", got.WireLengthMM, want.WireLengthMM)
	}
	return nil
}

// randomInstance draws n blocks (integer sizes 1-3, so that coordinates tie,
// or fractional ones), about a third of them movable in constrained mode,
// up to 2n nets with integer weights, and an integer placement with
// coinciding centres.
func randomInstance(rng *rand.Rand, n int, fractional bool) ([]Block, []Net, []geom.Point) {
	blocks := make([]Block, n)
	for i := range blocks {
		w, h := float64(1+rng.Intn(3)), float64(1+rng.Intn(3))
		if fractional {
			w, h = 0.5+2*rng.Float64(), 0.5+2*rng.Float64()
		}
		blocks[i] = Block{Name: fmt.Sprintf("b%d", i), W: w, H: h, Fixed: rng.Intn(3) != 0}
	}
	nets := make([]Net, rng.Intn(2*n+1))
	for i := range nets {
		nets[i] = Net{A: rng.Intn(n), B: rng.Intn(n), Weight: float64(1 + rng.Intn(4))}
	}
	initial := make([]geom.Point, n)
	for i := range initial {
		initial[i] = geom.Point{X: float64(rng.Intn(n)), Y: float64(rng.Intn(n))}
	}
	return blocks, nets, initial
}

// TestEvaluatorMatchesPack packs random sequence pairs, not only those an
// annealing run reaches, with the evaluator and with the reference packing,
// and compares the Results and the costs bit for bit, also with a NaN or an
// infinite block size.
func TestEvaluatorMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		blocks, nets, initial := randomInstance(rng, n, trial%2 == 1)
		switch trial % 10 {
		case 3:
			// A NaN size passes Floorplan's validation; its sums must
			// never win a maximum, as in the scan.
			blocks[rng.Intn(n)].W = math.NaN()
		case 7:
			blocks[rng.Intn(n)].H = math.Inf(1)
		}
		sp := sequencePair{pos: rng.Perm(n), neg: rng.Perm(n)}
		p := DefaultParams(1)
		p.DisplacementWeight = float64(trial % 3)
		ev := newEvaluator(blocks, nets, p, initial)
		pair := newRankedPair(sp)
		if err := sameResult(ev.result(&pair), pack(blocks, nets, sp)); err != nil {
			t.Fatalf("trial %d (%d blocks): %v", trial, n, err)
		}
		got, want := ev.cost(&pair), evaluate(blocks, nets, sp, p, initial)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (%d blocks): cost %v, want %v", trial, n, got, want)
		}
	}
}

// Mode bits of FuzzFloorplanMatchesReference.
const (
	fuzzWithInitial  = 1 << iota // FloorplanWithInitial, not Floorplan
	fuzzConstrained              // Params.Constrained
	fuzzDisplacement             // Params.DisplacementWeight > 0
	fuzzZeroTemp                 // Params.InitialTemp = 0
	fuzzFractional               // fractional block sizes
)

// FuzzFloorplanMatchesReference runs both entry points of the annealer and
// of the reference annealer on 1-70 random blocks under a short schedule
// and requires the same Result bit for bit: positions, bounding box, area
// and wirelength. The seeds cover every combination of entry point,
// constrained mode, displacement weight and zero temperature, with integer
// sizes so that coordinates tie, and block counts from 1 up; those with one
// or two movable blocks draw moves that pick the same block twice, whose
// acceptance draw must still be made.
func FuzzFloorplanMatchesReference(f *testing.F) {
	sizes := []uint8{0, 1, 2, 3, 7, 25, 69}
	for mode := uint8(0); mode < 16; mode++ {
		f.Add(int64(mode)+1, sizes[int(mode)%len(sizes)], mode)
	}
	f.Add(int64(99), uint8(64), uint8(fuzzFractional|fuzzWithInitial|fuzzDisplacement))
	f.Add(int64(7), uint8(1), uint8(fuzzConstrained|fuzzWithInitial))
	f.Fuzz(func(t *testing.T, seed int64, nBlocks, mode uint8) {
		n := 1 + int(nBlocks)%70
		rng := rand.New(rand.NewSource(seed))
		blocks, nets, initial := randomInstance(rng, n, mode&fuzzFractional != 0)
		p := DefaultParams(seed)
		p.Iterations = 1 + rng.Intn(40)
		p.TemperatureSteps = 1 + rng.Intn(8)
		p.Constrained = mode&fuzzConstrained != 0
		if mode&fuzzDisplacement != 0 {
			p.DisplacementWeight = 0.25 + 0.5*float64(rng.Intn(4))
		}
		if mode&fuzzZeroTemp != 0 {
			p.InitialTemp = 0
		}
		var got, want *Result
		var gerr, werr error
		if mode&fuzzWithInitial != 0 {
			got, gerr = FloorplanWithInitial(blocks, nets, initial, p)
			want, werr = referenceFloorplanWithInitial(blocks, nets, initial, p)
		} else {
			got, gerr = Floorplan(blocks, nets, p)
			want, werr = referenceFloorplan(blocks, nets, p)
		}
		if gerr != nil || werr != nil {
			t.Fatalf("errors %v and %v on a valid instance", gerr, werr)
		}
		if err := sameResult(got, want); err != nil {
			t.Fatalf("%d blocks, mode %05b: %v", n, mode, err)
		}
	})
}

// TestMovesDoNotAllocate checks that a run's allocations do not grow with
// its number of moves: the annealer keeps one pair, undoes rejected moves
// in place and packs into buffers allocated once per call.
func TestMovesDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blocks, nets, initial := randomInstance(rng, 30, true)
	allocs := func(iterations int) float64 {
		p := DefaultParams(5)
		p.Iterations = iterations
		p.DisplacementWeight = 0.5
		return testing.AllocsPerRun(5, func() {
			if _, err := FloorplanWithInitial(blocks, nets, initial, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(200); many != one {
		t.Errorf("%v allocations with 200 iterations per step, %v with 1", many, one)
	}
}

// BenchmarkAnneal times one Floorplan call under the schedule the benchmark
// generators use (internal/bench's FloorplanLayers), on blocks of the paper
// designs' sizes joined by a chain of nets: 12 and 26 blocks are typical
// layers, 65 the largest paper design's 2-D die and 256 the largest
// generated one's.
func BenchmarkAnneal(b *testing.B) {
	for _, n := range []int{12, 26, 65, 256} {
		rng := rand.New(rand.NewSource(int64(n)))
		blocks := make([]Block, n)
		for i := range blocks {
			w := 1.0 + 0.4*rng.Float64()
			blocks[i] = Block{Name: fmt.Sprintf("b%d", i), W: w, H: w * (0.8 + 0.3*rng.Float64())}
		}
		nets := make([]Net, n-1)
		for i := range nets {
			nets[i] = Net{A: i, B: i + 1, Weight: 0.5 + rng.Float64()}
		}
		p := DefaultParams(1)
		p.Iterations = 100
		p.TemperatureSteps = 35
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Floorplan(blocks, nets, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
