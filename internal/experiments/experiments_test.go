package experiments

import (
	"strings"
	"testing"
)

// quickConfig keeps the unit tests fast: small sweeps, light floorplanning.
func quickConfig() Config {
	c := DefaultConfig()
	c.Quick = true
	return c
}

func TestFormatTable(t *testing.T) {
	s := FormatTable([]string{"a", "long_header"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "long_header") {
		t.Error("header missing")
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("separator missing")
	}
}

func TestFig01Yield(t *testing.T) {
	series := Fig01Yield()
	if len(series) != 3 {
		t.Fatalf("expected 3 processes, got %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Fatalf("%s: no points", s.Process)
		}
		// Non-increasing yield and a visible knee: last point well below first.
		first := s.Points[0].Yield
		last := s.Points[len(s.Points)-1].Yield
		if last >= first {
			t.Errorf("%s: yield does not drop (%v -> %v)", s.Process, first, last)
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Yield > s.Points[i-1].Yield+1e-12 {
				t.Errorf("%s: yield increases at %d TSVs", s.Process, s.Points[i].TSVs)
			}
		}
	}
	if out := FormatFig01(series); !strings.Contains(out, "Fig. 1") {
		t.Error("FormatFig01 missing title")
	}
}

func TestFig10Fig11PowerSweeps(t *testing.T) {
	c := quickConfig()
	p2d, err := Fig10Power2D(c)
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	p3d, err := Fig11Power3D(c)
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	if len(p2d.Points) == 0 || len(p3d.Points) == 0 {
		t.Fatal("empty power sweeps")
	}
	// Points are sorted by switch count and have consistent breakdowns.
	for _, sweep := range []PowerSweep{p2d, p3d} {
		for i, p := range sweep.Points {
			if i > 0 && p.Switches < sweep.Points[i-1].Switches {
				t.Errorf("%s: sweep not sorted", sweep.Design)
			}
			sum := p.SwitchMW + p.SwitchLinkMW + p.CoreLinkMW
			if sum > p.TotalMW*1.0001 || sum < p.TotalMW*0.9 {
				t.Errorf("%s: breakdown %v inconsistent with total %v", sweep.Design, sum, p.TotalMW)
			}
		}
	}
	// Headline trend: the best 3-D point consumes less power than the best
	// 2-D point (Section VIII-A reports 24% for this benchmark).
	if best(p3d) >= best(p2d) {
		t.Errorf("3-D best power %v not below 2-D best power %v", best(p3d), best(p2d))
	}
	if out := FormatPowerSweep("Fig. 10", p2d); !strings.Contains(out, "switches") {
		t.Error("FormatPowerSweep missing header")
	}
}

func best(s PowerSweep) float64 {
	bestV := 1e18
	for _, p := range s.Points {
		if p.TotalMW < bestV {
			bestV = p.TotalMW
		}
	}
	return bestV
}

func TestFig12WireLengths(t *testing.T) {
	c := quickConfig()
	d, err := Fig12WireLengths(c)
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if len(d.Bins2D) == 0 || len(d.Bins3D) == 0 {
		t.Fatal("empty histograms")
	}
	if d.Total3DMM >= d.Total2DMM {
		t.Errorf("3-D total wire length %v not below 2-D %v", d.Total3DMM, d.Total2DMM)
	}
	// The 2-D design has longer wires: its histogram extends at least as far.
	if len(d.Bins2D) < len(d.Bins3D) {
		t.Errorf("2-D histogram (%d bins) shorter than 3-D (%d bins)", len(d.Bins2D), len(d.Bins3D))
	}
	if out := FormatFig12(d); !strings.Contains(out, "length_bin_mm") {
		t.Error("FormatFig12 missing header")
	}
}

func TestFig13to16CaseStudy(t *testing.T) {
	c := quickConfig()
	cs, err := Fig13to16CaseStudy(c)
	if err != nil {
		t.Fatalf("Fig13to16: %v", err)
	}
	if !strings.Contains(cs.Phase1Topology, "sw0") || !strings.Contains(cs.Phase2Topology, "sw0") {
		t.Error("topology descriptions look empty")
	}
	if !strings.Contains(cs.InitialPlacement, "layer 0") {
		t.Error("initial placement missing layers")
	}
	if cs.Phase1Power <= 0 || cs.Phase2Power <= 0 {
		t.Error("non-positive powers")
	}
	// Phase 2 uses only same-layer attachments, so it cannot use more
	// inter-layer links than Phase 1.
	if cs.Phase2MaxILL > cs.Phase1MaxILL {
		t.Errorf("phase 2 ILL (%d) exceeds phase 1 (%d)", cs.Phase2MaxILL, cs.Phase1MaxILL)
	}
}

func TestFig17PhaseComparison(t *testing.T) {
	c := quickConfig()
	rows, err := Fig17Phase1VsPhase2(c)
	if err != nil {
		t.Fatalf("Fig17: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Phase1PowerMW <= 0 || r.Phase2PowerMW <= 0 {
			t.Errorf("%s: non-positive power", r.Benchmark)
		}
		if r.Ratio <= 0 {
			t.Errorf("%s: bad ratio %v", r.Benchmark, r.Ratio)
		}
		// The paper's trend: Phase 2 costs extra power (up to ~40%) but never
		// uses more vertical links than Phase 1.
		if r.Phase2MaxILL > r.Phase1MaxILL {
			t.Errorf("%s: phase 2 uses more inter-layer links", r.Benchmark)
		}
	}
	if out := FormatFig17(rows); !strings.Contains(out, "phase2/phase1") {
		t.Error("FormatFig17 missing header")
	}
}

func TestTable1(t *testing.T) {
	c := quickConfig()
	rows, err := Table1(c)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) < 3 {
		t.Fatalf("expected at least 3 rows in quick mode, got %d", len(rows))
	}
	var reductions int
	for _, r := range rows {
		if r.TotalPower2D <= 0 || r.TotalPower3D <= 0 {
			t.Errorf("%s: non-positive power", r.Benchmark)
		}
		if r.Latency2D < 1 || r.Latency3D < 1 {
			t.Errorf("%s: latency below one cycle", r.Benchmark)
		}
		if r.PowerReduction() > 0 {
			reductions++
		}
	}
	// The headline claim: 3-D saves interconnect power on (nearly) all
	// benchmarks; require it on the majority.
	if reductions*2 < len(rows) {
		t.Errorf("3-D reduced power on only %d of %d benchmarks", reductions, len(rows))
	}
	if out := FormatTable1(rows); !strings.Contains(out, "average power reduction") {
		t.Error("FormatTable1 missing summary")
	}
}

func TestFig18AreaSweep(t *testing.T) {
	c := quickConfig()
	points, err := Fig18FloorplanArea(c)
	if err != nil {
		t.Fatalf("Fig18: %v", err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range points {
		if p.CustomAreaMM2 <= 0 || p.StandardAreaMM2 <= 0 {
			t.Errorf("sw=%d: non-positive area", p.Switches)
		}
	}
	if out := FormatFig18(points); !strings.Contains(out, "custom_area_mm2") {
		t.Error("FormatFig18 missing header")
	}
}

func TestFig19Fig20FloorplanComparison(t *testing.T) {
	c := quickConfig()
	rows, err := Fig19Fig20FloorplanComparison(c)
	if err != nil {
		t.Fatalf("Fig19/20: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	var customPower, standardPower float64
	for _, r := range rows {
		if r.CustomAreaMM2 <= 0 || r.StandardAreaMM2 <= 0 ||
			r.CustomPowerMW <= 0 || r.StandardPowerMW <= 0 {
			t.Errorf("%s: non-positive outcome", r.Benchmark)
		}
		// Both methods insert the same topology, so their areas and powers
		// must stay within the same ballpark (no method may blow up).
		if r.CustomAreaMM2 > 2*r.StandardAreaMM2 || r.StandardAreaMM2 > 2*r.CustomAreaMM2 {
			t.Errorf("%s: area outcomes diverge wildly (%v vs %v)",
				r.Benchmark, r.CustomAreaMM2, r.StandardAreaMM2)
		}
		customPower += r.CustomPowerMW
		standardPower += r.StandardPowerMW
	}
	// On aggregate the custom routine must not lose on power against the
	// constrained standard floorplanner (the paper reports a ~7.5% average
	// power advantage; `sunfloor-bench -experiment fig19-20` prints the
	// measured numbers).
	if customPower > standardPower*1.10 {
		t.Errorf("custom insertion power (%v) clearly worse than standard floorplanner (%v)",
			customPower, standardPower)
	}
	if out := FormatFig19Fig20(rows); !strings.Contains(out, "area_saving") {
		t.Error("FormatFig19Fig20 missing header")
	}
}

func TestFig21Fig22MaxILLSweep(t *testing.T) {
	c := quickConfig()
	points, err := Fig21Fig22MaxILLSweep(c)
	if err != nil {
		t.Fatalf("Fig21/22: %v", err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	// The paper's trend: once feasible, loosening max_ill never increases the
	// best power by much; and the loosest budget must be feasible.
	last := points[len(points)-1]
	if !last.Feasible {
		t.Error("loosest max_ill budget infeasible")
	}
	var prev float64
	seen := false
	for _, p := range points {
		if !p.Feasible {
			continue
		}
		if seen && p.PowerMW > prev*1.15 {
			t.Errorf("power rose sharply from %v to %v when loosening max_ill to %d",
				prev, p.PowerMW, p.MaxILL)
		}
		prev = p.PowerMW
		seen = true
	}
	if !seen {
		t.Fatal("no feasible point at any max_ill")
	}
	if out := FormatFig21Fig22(points); !strings.Contains(out, "max_ill") {
		t.Error("FormatFig21Fig22 missing header")
	}
}

func TestFig23MeshComparison(t *testing.T) {
	c := quickConfig()
	rows, err := Fig23MeshComparison(c)
	if err != nil {
		t.Fatalf("Fig23: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	wins := 0
	for _, r := range rows {
		if r.CustomPowerMW <= 0 || r.MeshPowerMW <= 0 {
			t.Errorf("%s: non-positive power", r.Benchmark)
		}
		if r.PowerSaving() > 0 {
			wins++
		}
	}
	// Headline claim of Fig. 23: the custom topology wins on power across the
	// suite (paper average 51%); require a majority of wins here.
	if wins*2 < len(rows) {
		t.Errorf("custom topology beat the mesh on only %d of %d benchmarks", wins, len(rows))
	}
	if out := FormatFig23(rows); !strings.Contains(out, "power_saving") {
		t.Error("FormatFig23 missing header")
	}
}
