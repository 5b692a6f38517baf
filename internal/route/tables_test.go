package route

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"sunfloor3d/internal/topology"
)

// poisonedTables returns router tables with room for size switches whose
// every cell holds what no router writes: arcs with NaN geometry, a layer
// span past any TSV term, CDG vertex 0, the link marked as existing, no
// block and a stage floor one below the latency; NaN distances, lower
// bounds and TSV terms; switches with port counts of 99, NaN marginals, hard verdicts on
// both sides and a level outside the max_ill table. A router that reads any
// of it before writing it routes differently from one on new tables, or
// panics.
func poisonedTables(size int) *tables {
	nan := math.NaN()
	cells := make([]arc, size*size)
	for i := range cells {
		cells[i] = arc{planar: nan, latency: nan, span: int32(size + 99), vertex: 0, exists: true, blocked: false, fewer: true}
	}
	junk := make([]arc, 1)
	rows := make([][]arc, size)
	for i := range rows {
		rows[i] = junk
	}
	tb := &tables{cells: cells, rows: rows}
	tb.sw = make([]switchState, size)
	tb.dist = make([]float64, size)
	tb.h = make([]float64, size)
	tb.tsv = make([]float64, size)
	tb.prev = make([]int, size)
	tb.open = make([]int, size)
	tb.path = make([]int, size)
	for i := 0; i < size; i++ {
		tb.sw[i] = switchState{
			inMarginal: nan, inVerdict: verdictHard, outVerdict: verdictHard, level: size + 99,
			outMarginal: nan, inPorts: 99, outPorts: 99,
		}
		tb.dist[i] = nan
		tb.h[i] = nan
		tb.tsv[i] = nan
		tb.prev[i] = size + i
		tb.open[i] = size - i
		tb.path[i] = size + i
	}
	return tb
}

// sameArc reports whether two arc records are equal bit for bit.
func sameArc(a, b arc) bool {
	bits := math.Float64bits
	return bits(a.planar) == bits(b.planar) && bits(a.latency) == bits(b.latency) &&
		a.span == b.span && a.vertex == b.vertex && a.exists == b.exists && a.blocked == b.blocked &&
		a.fewer == b.fewer
}

// TestArcRecordIs32Bytes pins the arc record's size: the search reads one
// per relaxation, and the stage-floor flag lives in what was padding.
func TestArcRecordIs32Bytes(t *testing.T) {
	if size := unsafe.Sizeof(arc{}); size != 32 {
		t.Fatalf("arc record is %d bytes, want 32", size)
	}
}

// sameSwitch reports whether two switch records are equal bit for bit.
func sameSwitch(a, b switchState) bool {
	bits := math.Float64bits
	return bits(a.inMarginal) == bits(b.inMarginal) && a.inVerdict == b.inVerdict &&
		a.outVerdict == b.outVerdict && a.level == b.level &&
		bits(a.outMarginal) == bits(b.outMarginal) && a.inPorts == b.inPorts && a.outPorts == b.outPorts
}

// TestReusedRouterTablesMatchFresh checks that a router on tables an
// earlier router left behind works exactly like one on new tables. The
// reused tables are poisoned (see poisonedTables). After init every arc
// record, the diagonal's included, and every switch record must equal a new
// table's bit for bit; ComputePaths, and RepairRoutes of a dead link of its
// routes, must commit the same routes and switches and report the same
// result. Both are checked on tables handed to the router directly and, for
// ComputePaths and RepairRoutes themselves, after a poisoned table was put
// in the pool they draw from.
func TestReusedRouterTablesMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	repaired := 0
	for trial := 0; trial < 40; trial++ {
		top, cfg := oracleCase(t, rng, trial%2 == 0)
		size := top.NumSwitches() + spareSwitchCount

		fresh := &router{top: top.Clone(), cfg: cfg, tb: new(tables)}
		fresh.init()
		reused := &router{top: top.Clone(), cfg: cfg, tb: poisonedTables(size)}
		reused.init()
		n := top.NumSwitches()
		for i := 0; i < n; i++ {
			if !sameSwitch(reused.sw[i], fresh.sw[i]) {
				t.Fatalf("trial %d: switch %d after init on reused tables %+v, on new ones %+v", trial, i, reused.sw[i], fresh.sw[i])
			}
			for j := 0; j < n; j++ {
				if !sameArc(reused.arcs[i][j], fresh.arcs[i][j]) {
					t.Fatalf("trial %d: arc (%d,%d) after init on reused tables %+v, on new ones %+v",
						trial, i, j, reused.arcs[i][j], fresh.arcs[i][j])
				}
			}
		}

		want := top.Clone()
		wantRes, err := computePaths(want, cfg, new(tables))
		if err != nil {
			t.Fatal(err)
		}
		got := top.Clone()
		gotRes, err := computePaths(got, cfg, poisonedTables(size))
		if err != nil {
			t.Fatal(err)
		}
		sameRouting(t, trial, "ComputePaths on reused tables", gotRes, wantRes, got, want)
		tablePool.Put(poisonedTables(size))
		pooled := top.Clone()
		pooledRes, err := ComputePaths(pooled, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameRouting(t, trial, "ComputePaths after a poisoned pool entry", pooledRes, wantRes, pooled, want)

		if !wantRes.Success() {
			continue
		}
		links := want.SwitchLinks()
		if len(links) == 0 {
			continue
		}
		l := links[rng.Intn(len(links))]
		dead := [][2]int{{l.From, l.To}}
		size = want.NumSwitches()
		wantRep := want.Clone()
		wantRR, wantErr := repairRoutes(wantRep, cfg, dead, new(tables))
		gotRep := want.Clone()
		gotRR, gotErr := repairRoutes(gotRep, cfg, dead, poisonedTables(size))
		tablePool.Put(poisonedTables(size))
		pooledRep := want.Clone()
		pooledRR, pooledErr := RepairRoutes(pooledRep, cfg, dead)
		for _, c := range []struct {
			name string
			res  RepairResult
			err  error
			top  *topology.Topology
		}{{"RepairRoutes on reused tables", gotRR, gotErr, gotRep}, {"RepairRoutes after a poisoned pool entry", pooledRR, pooledErr, pooledRep}} {
			if (c.err == nil) != (wantErr == nil) || !reflect.DeepEqual(c.res, wantRR) {
				t.Fatalf("trial %d: %s: %+v (%v), on new tables %+v (%v)", trial, c.name, c.res, c.err, wantRR, wantErr)
			}
			if !reflect.DeepEqual(c.top.Routes, wantRep.Routes) {
				t.Fatalf("trial %d: %s committed other routes than on new tables", trial, c.name)
			}
		}
		repaired++
	}
	if repaired == 0 {
		t.Fatal("no trial reached RepairRoutes")
	}
}

// sameRouting fails the test unless two routing runs reported the same
// result and committed the same switches and routes.
func sameRouting(t *testing.T, trial int, name string, gotRes, wantRes Result, got, want *topology.Topology) {
	t.Helper()
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("trial %d: %s: result %+v, on new tables %+v", trial, name, gotRes, wantRes)
	}
	if !reflect.DeepEqual(got.Switches, want.Switches) || !reflect.DeepEqual(got.Routes, want.Routes) {
		t.Fatalf("trial %d: %s committed other switches or routes than on new tables", trial, name)
	}
}
