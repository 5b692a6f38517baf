package place

import (
	"math"
	"math/rand"
	"testing"

	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/topology"
)

// memoReader decodes fuzz bytes into topology parameters. Once the input is
// used up it yields zeros, so every input decodes to some topology.
type memoReader struct{ data []byte }

func (r *memoReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// coord is a core corner coordinate: 0, integral or fractional.
func (r *memoReader) coord() float64 {
	v := r.next()
	switch v % 3 {
	case 0:
		return 0
	case 1:
		return float64(v / 3)
	default:
		return float64(v) * 0.15
	}
}

// bandwidth is a positive flow bandwidth, integral or fractional.
func (r *memoReader) bandwidth() float64 {
	v := r.next()
	if v%2 == 0 {
		return float64(1 + 10*(v/2))
	}
	return 0.5 + float64(v)*1.3
}

// memoTopology decodes a small placed topology: up to 8 cores on up to three
// layers, up to 4 switches with every core attached, and up to 12 flows
// between distinct cores, each routed from its source's switch to its
// destination's, through a third switch when a byte says so.
func memoTopology(r *memoReader) *topology.Topology {
	cores := make([]model.Core, 2+r.next()%7)
	for i := range cores {
		cores[i] = model.Core{
			Name: string(rune('a' + i)), Width: float64(1 + r.next()%3), Height: float64(1 + r.next()%3),
			X: r.coord(), Y: r.coord(), Layer: r.next() % 3,
		}
	}
	var flows []model.Flow
	for f, n := 0, 1+r.next()%12; f < n; f++ {
		src := r.next() % len(cores)
		dst := (src + 1 + r.next()%(len(cores)-1)) % len(cores)
		flows = append(flows, model.Flow{Src: src, Dst: dst, BandwidthMBps: r.bandwidth()})
	}
	g := &model.CommGraph{Cores: cores, Flows: flows}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	switches := 1 + r.next()%4
	for s := 0; s < switches; s++ {
		top.AddSwitch(s % 3)
	}
	for c := range cores {
		top.AttachCore(c, r.next()%switches)
	}
	for f, fl := range flows {
		a, b := top.CoreAttach[fl.Src], top.CoreAttach[fl.Dst]
		path := []int{a}
		if via := r.next() % (switches + 1); via < switches && via != a && via != b {
			path = append(path, via)
		}
		if b != path[len(path)-1] {
			path = append(path, b)
		}
		top.SetRoute(f, path)
	}
	return top
}

// withDesign returns a clone of t on its own copy of the design, for edits
// of the design that must not reach t.
func withDesign(t *topology.Topology) *topology.Topology {
	c := t.Clone()
	c.Design = t.Design.Clone()
	return c
}

// memoEdit is one edit of a placed topology: its name, and the edited copy,
// or nil when the topology has nothing it applies to.
type memoEdit struct {
	name  string
	apply func(t *topology.Topology, r *memoReader) *topology.Topology
}

// memoEdits lists the edits of one LP input each, plus a layer change, which
// is no LP input.
var memoEdits = []memoEdit{
	{"centre bit", func(t *topology.Topology, r *memoReader) *topology.Topology {
		// Flip the lowest bit of a core's x that moves its centre.
		c := withDesign(t)
		core := &c.Design.Cores[r.next()%len(c.Design.Cores)]
		before := core.Center().X
		x := core.X
		for bit := 0; bit < 64 && core.Center().X == before; bit++ {
			core.X = math.Float64frombits(math.Float64bits(x) ^ 1<<bit)
		}
		if math.Float64bits(core.Center().X) == math.Float64bits(before) {
			return nil
		}
		return c
	}},
	{"weight", func(t *topology.Topology, r *memoReader) *topology.Topology {
		// A flow from a core to itself, routed within its switch, adds to
		// that core's weight and to no link.
		c := withDesign(t)
		core := r.next() % len(c.Design.Cores)
		c.Design.Flows = append(c.Design.Flows, model.Flow{Src: core, Dst: core, BandwidthMBps: r.bandwidth()})
		c.Routes = append(c.Routes, topology.Route{Flow: len(c.Routes), Switches: []int{c.CoreAttach[core]}})
		return c
	}},
	{"attachment", func(t *topology.Topology, r *memoReader) *topology.Topology {
		if t.NumSwitches() < 2 {
			return nil
		}
		c := t.Clone()
		core := r.next() % len(c.CoreAttach)
		c.CoreAttach[core] = (c.CoreAttach[core] + 1 + r.next()%(c.NumSwitches()-1)) % c.NumSwitches()
		return c
	}},
	{"link bandwidth", func(t *topology.Topology, r *memoReader) *topology.Topology {
		// Walk a route's first link back and forth once more: that pair's
		// bandwidth grows and the set of linked pairs stays.
		start := r.next() % len(t.Routes)
		for i := range t.Routes {
			f := (start + i) % len(t.Routes)
			if p := t.Routes[f].Switches; len(p) >= 2 {
				c := t.Clone()
				c.Routes[f].Switches = append([]int{p[0], p[1], p[0]}, p[1:]...)
				return c
			}
		}
		return nil
	}},
	{"switch count", func(t *topology.Topology, r *memoReader) *topology.Topology {
		c := t.Clone()
		c.AddSwitch(r.next() % 3)
		return c
	}},
	{"layer", func(t *topology.Topology, r *memoReader) *topology.Topology {
		c := withDesign(t)
		core := &c.Design.Cores[r.next()%len(c.Design.Cores)]
		core.Layer = (core.Layer + 1) % 3
		return c
	}},
}

// placeBoth places a clone of t through m and another clone afresh, fails
// unless both give the same error or Float64bits-equal positions, and
// reports whether m solved an LP for it.
func placeBoth(t *testing.T, m *Memo, top *topology.Topology, what string) (solved bool) {
	t.Helper()
	before := m.Solves()
	viaMemo, fresh := top.Clone(), top.Clone()
	gotErr, wantErr := m.OptimizeSwitchPositions(viaMemo), OptimizeSwitchPositions(fresh)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: memo error %v, fresh error %v", what, gotErr, wantErr)
	}
	for i := range fresh.Switches {
		g, w := viaMemo.Switches[i].Pos, fresh.Switches[i].Pos
		if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) {
			t.Fatalf("%s: switch %d at %v through the memo, %v afresh", what, i, g, w)
		}
	}
	return m.Solves() > before
}

// FuzzPlacementMemoMatchesFresh pushes a small topology through one memo,
// again as a repeat, and then once per edit of memoEdits, each edit
// repeated. Every placement must be Float64bits-equal to a fresh
// OptimizeSwitchPositions on a clone. A repeat and a layer change must be
// hits; an edit of an LP input (a centre bit, a weight, an attachment, a
// link's bandwidth, the switch count) must be a miss, so a key that left
// the input out fails here even where the stale positions happen to be
// optimal.
func FuzzPlacementMemoMatchesFresh(f *testing.F) {
	// Three cores on two switches, one flow through the switch link.
	f.Add([]byte{3, 1, 1, 3, 6, 0, 1, 1, 4, 0, 1, 2, 2, 9, 1, 2, 0, 0, 10, 1, 1, 0, 1, 1, 3, 1, 5, 2, 7, 4, 8, 0, 6})
	// Eight cores on four switches, twelve flows, some through a third
	// switch.
	eight := []byte{6}
	for c := 0; c < 8; c++ {
		eight = append(eight, byte(c), byte(c+1), byte(3*c+1), byte(7*c), byte(c))
	}
	eight = append(eight, 11)
	for fl := 0; fl < 12; fl++ {
		eight = append(eight, byte(fl), byte(fl*5), byte(fl*11+1))
	}
	eight = append(eight, 3)
	for c := 0; c < 8; c++ {
		eight = append(eight, byte(c))
	}
	for fl := 0; fl < 12; fl++ {
		eight = append(eight, byte(fl%5))
	}
	for i := 0; i < 16; i++ {
		eight = append(eight, byte(i*37))
	}
	f.Add(eight)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		b := make([]byte, rng.Intn(120))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &memoReader{data: data}
		top := memoTopology(r)
		m := NewMemo()
		if !placeBoth(t, m, top, "first placement") {
			t.Fatal("first placement: no LP solved")
		}
		if placeBoth(t, m, top, "repeat") {
			t.Fatal("repeat: the LP was solved again")
		}
		for _, e := range memoEdits {
			edited := e.apply(top, r)
			if edited == nil {
				continue
			}
			solved := placeBoth(t, m, edited, e.name)
			if wantSolve := e.name != "layer"; solved != wantSolve {
				t.Fatalf("%s: solved %v, want %v", e.name, solved, wantSolve)
			}
			if placeBoth(t, m, edited, e.name+" repeat") {
				t.Fatalf("%s repeat: the LP was solved again", e.name)
			}
		}
	})
}
