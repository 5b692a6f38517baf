package topology

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
)

// switchLinksByMap is the map aggregation SwitchLinks replaced: one map entry
// per directed link, each flow's hops added in ascending flow order, then
// the links sorted by (From, To). It ranges over the keys in the order it
// met them, never over the map.
func switchLinksByMap(t *Topology) []SwitchLink {
	agg := make(map[[2]int]float64)
	var keys [][2]int
	for f, r := range t.Routes {
		bw := t.Design.Flows[f].BandwidthMBps
		for i := 1; i < len(r.Switches); i++ {
			key := [2]int{r.Switches[i-1], r.Switches[i]}
			if _, ok := agg[key]; !ok {
				keys = append(keys, key)
			}
			agg[key] += bw
		}
	}
	links := make([]SwitchLink, 0, len(keys))
	for _, k := range keys {
		links = append(links, SwitchLink{From: k[0], To: k[1], BandwidthMBps: agg[k]})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	return links
}

// coreLinksByMap is the map aggregation CoreLinks replaced, read back the
// same way as switchLinksByMap.
func coreLinksByMap(t *Topology) []CoreLink {
	type key struct {
		core   int
		toCore bool
	}
	agg := make(map[key]float64)
	var keys []key
	add := func(k key, bw float64) {
		if _, ok := agg[k]; !ok {
			keys = append(keys, k)
		}
		agg[k] += bw
	}
	for _, fl := range t.Design.Flows {
		add(key{core: fl.Src}, fl.BandwidthMBps)
		add(key{core: fl.Dst, toCore: true}, fl.BandwidthMBps)
	}
	links := make([]CoreLink, 0, len(keys))
	for _, k := range keys {
		links = append(links, CoreLink{Core: k.core, Switch: t.CoreAttach[k.core], ToCore: k.toCore, BandwidthMBps: agg[k]})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].Core != links[j].Core {
			return links[i].Core < links[j].Core
		}
		return !links[i].ToCore && links[j].ToCore
	})
	return links
}

// orderedBandwidths are the bandwidths the fuzz draws flows from: sums of
// 1e16, 7e15 and the small ones depend on the order they are added in, so an
// aggregation that adds a link's flows in another order than ascending flow
// order differs in the last bits.
var orderedBandwidths = []float64{1e16, 1, 7e15, 0.1, 3, 1e-7, 2.5, 1}

// FuzzLinkAggregationMatchesMap builds a topology from the fuzz input, with
// random routes over up to 6 switches that repeat links within and across
// flows, and checks SwitchLinks and CoreLinks against the map aggregations
// they replaced: the same links in the same order, each bandwidth equal to
// the map's bit for bit.
func FuzzLinkAggregationMatchesMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 3, 12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{7, 5, 23, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 9, 99, 200, 17, 33, 65, 129})
	f.Add([]byte{1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			var b byte
			if pos < len(data) {
				b = data[pos]
			} else {
				b = byte(pos * 37)
			}
			pos++
			return int(b)
		}
		nCores := 2 + next()%7
		nSwitches := 1 + next()%6
		nFlows := 1 + next()%24
		cores := make([]model.Core, nCores)
		for i := range cores {
			cores[i] = model.Core{Name: fmt.Sprintf("c%d", i), Width: 1, Height: 1}
		}
		var flows []model.Flow
		for i := 0; i < nFlows; i++ {
			src, dst := next()%nCores, next()%nCores
			if src == dst {
				dst = (dst + 1) % nCores
			}
			flows = append(flows, model.Flow{Src: src, Dst: dst, BandwidthMBps: orderedBandwidths[next()%len(orderedBandwidths)]})
		}
		g, err := model.NewCommGraph(cores, flows)
		if err != nil {
			t.Fatal(err)
		}
		top := New(g, noclib.DefaultLibrary(), 400)
		for s := 0; s < nSwitches; s++ {
			top.AddSwitch(0)
		}
		for c := range cores {
			top.AttachCore(c, next()%(nSwitches+1)-1) // -1 leaves the core unattached
		}
		for fl := range flows {
			hops := next() % 6 // 0 leaves the flow unrouted
			path := make([]int, hops)
			for i := range path {
				path[i] = next() % nSwitches
			}
			top.SetRoute(fl, path)
		}

		got, want := top.SwitchLinks(), switchLinksByMap(top)
		if len(got) != len(want) {
			t.Fatalf("SwitchLinks returned %d links, the map %d", len(got), len(want))
		}
		for i := range got {
			if got[i].From != want[i].From || got[i].To != want[i].To ||
				math.Float64bits(got[i].BandwidthMBps) != math.Float64bits(want[i].BandwidthMBps) {
				t.Fatalf("switch link %d: %+v, the map %+v", i, got[i], want[i])
			}
		}
		gotCore, wantCore := top.CoreLinks(), coreLinksByMap(top)
		if len(gotCore) != len(wantCore) {
			t.Fatalf("CoreLinks returned %d links, the map %d", len(gotCore), len(wantCore))
		}
		for i := range gotCore {
			if gotCore[i].Core != wantCore[i].Core || gotCore[i].Switch != wantCore[i].Switch ||
				gotCore[i].ToCore != wantCore[i].ToCore ||
				math.Float64bits(gotCore[i].BandwidthMBps) != math.Float64bits(wantCore[i].BandwidthMBps) {
				t.Fatalf("core link %d: %+v, the map %+v", i, gotCore[i], wantCore[i])
			}
		}
	})
}
