package fault

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"testing"

	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/route"
	"sunfloor3d/internal/topology"
)

// ring builds a 4-switch ring on one layer with every link fabricated in
// both directions; core ci sits on switch si. With cyclic=false one flow
// crosses each directed ring link between neighbours, and one more takes
// s0->s1->s2, which keeps the channel-dependency graph acyclic. With
// cyclic=true the four clockwise one-hop flows become four flows of two
// clockwise hops each, whose dependencies 01->12->23->30->01 close a cycle.
func ring(t *testing.T, cyclic bool) *topology.Topology {
	t.Helper()
	cores := []model.Core{
		{Name: "c0", Width: 1, Height: 1, X: 0, Y: 0},
		{Name: "c1", Width: 1, Height: 1, X: 3, Y: 0},
		{Name: "c2", Width: 1, Height: 1, X: 3, Y: 3},
		{Name: "c3", Width: 1, Height: 1, X: 0, Y: 3},
	}
	paths := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 0}, {2, 1}, {3, 2}, {0, 3}}
	if cyclic {
		paths = append(paths[4:], []int{0, 1, 2}, []int{1, 2, 3}, []int{2, 3, 0}, []int{3, 0, 1})
	} else {
		paths = append(paths, []int{0, 1, 2})
	}
	flows := make([]model.Flow, len(paths))
	for f, p := range paths {
		flows[f] = model.Flow{Src: p[0], Dst: p[len(p)-1], BandwidthMBps: float64(100 + 10*f)}
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		t.Fatal(err)
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	for c := range cores {
		top.AttachCore(c, top.AddSwitch(0))
	}
	top.EstimateSwitchPositions()
	for f, p := range paths {
		top.SetRoute(f, p)
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if route.DeadlockFree(top) == cyclic {
		t.Fatalf("ring(cyclic=%v) has DeadlockFree = %v", cyclic, !cyclic)
	}
	return top
}

// sameReport fails the test unless Replay and referenceReplay agree on the
// case: the same report bytes or the same error.
func sameReport(t *testing.T, top *topology.Topology, mc ModelConfig, sp *SparingPlan) *Survivability {
	t.Helper()
	got, err := Replay(top, route.DefaultConfig(), mc, sp, nil)
	want, wantErr := referenceReplay(top, route.DefaultConfig(), mc, sp, nil)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("Replay error %v, reference error %v", err, wantErr)
	}
	if err != nil {
		return nil
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Fatalf("Replay report differs from the reference:\n got %s\nwant %s", a, b)
	}
	return got
}

func TestReplayEmptyRouteError(t *testing.T) {
	top := triangle(t, 1)
	top.Routes[2] = topology.Route{Flow: 2}
	mc := ModelConfig{Plans: 4, FaultsPerPlan: 1, Seed: 1, ExhaustiveMax: 24}
	_, err := Replay(top, route.DefaultConfig(), mc, nil, nil)
	if err == nil || err.Error() != "route: flow 2 carries no committed route to repair" {
		t.Fatalf("Replay error = %v, want RepairRoutes' empty-route error", err)
	}
	if newCertificate(top) != nil {
		t.Error("the certificate accepted a topology with an unrouted flow")
	}
	sameReport(t, top, mc, nil)
}

// decideAll decides the dead-link sets in order through one replay state
// and returns the state.
func decideAll(t *testing.T, top *topology.Topology, sets ...[][2]int) *replayState {
	t.Helper()
	r := &replayState{t: top, rcfg: route.DefaultConfig(), baseline: top.Evaluate().AvgLatencyCycles}
	for _, s := range sets {
		if _, err := r.decide(s); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestReplayDecidesEachDeadSetOnce(t *testing.T) {
	// Triangle: killing s0->s2 leaves flow 1 no path (certified dead),
	// killing s0->s1 detours flow 0 over s2 (repaired by the router).
	tri := triangle(t, 1)
	r := decideAll(t, tri, [][2]int{{0, 2}}, [][2]int{{0, 1}}, [][2]int{{0, 2}}, [][2]int{{0, 1}})
	if r.cert == nil {
		t.Fatal("no certificate for the routed, deadlock-free triangle")
	}
	if !r.cert.unroutable([][2]int{{0, 2}}) || r.cert.unroutable([][2]int{{0, 1}}) {
		t.Error("certificate verdicts on the triangle are wrong")
	}
	if len(r.decided) != 2 {
		t.Fatalf("decided %d sets for 2 distinct ones", len(r.decided))
	}
	if o := r.decided[0]; !o.unroutable {
		t.Errorf("s0->s2 outcome %+v, want dead", o)
	}
	if o := r.decided[1]; o.unroutable || o.rerouted != 1 || o.inflation <= 1 {
		t.Errorf("s0->s1 outcome %+v, want one flow rerouted on a longer path", o)
	}

	// Ring: cutting both links out of s0 is certified dead; cutting s1->s2
	// strands two flows that the router sends the other way round. A set
	// listed in another order is the same set.
	rg := ring(t, false)
	r = decideAll(t, rg, [][2]int{{0, 3}, {0, 1}}, [][2]int{{1, 2}}, [][2]int{{0, 1}, {0, 3}}, [][2]int{{1, 2}})
	if !r.cert.unroutable([][2]int{{0, 1}, {0, 3}}) || r.cert.unroutable([][2]int{{1, 2}}) {
		t.Error("certificate verdicts on the ring are wrong")
	}
	if len(r.decided) != 2 || !r.decided[0].unroutable || r.decided[1].unroutable || r.decided[1].rerouted != 2 {
		t.Fatalf("ring outcomes %+v, want a dead set and a set with two flows rerouted", r.decided)
	}

	// 48 two-fault plans over the ring's 8 links (28 distinct sets) repeat
	// sets, and the report matches the replay that routes every plan.
	for seed := int64(1); seed <= 3; seed++ {
		rep := sameReport(t, rg, ModelConfig{Plans: 48, FaultsPerPlan: 2, Seed: seed}, nil)
		if rep.Repaired == 0 || rep.Dead == 0 {
			t.Errorf("seed %d: ring report %+v, want repaired and dead plans", seed, rep)
		}
	}
	sameReport(t, tri, ModelConfig{Plans: 16, FaultsPerPlan: 1, Seed: 5}, nil)
}

// TestReplayCyclicRoutes pins the replay of a topology whose committed routes
// have a cyclic channel-dependency graph: the certificate declines it, so
// every plan is routed and RepairRoutes decides it as before. A plan whose
// dead link breaks the cycle is repaired; the first plan that leaves it
// intact fails the replay with RepairRoutes' error.
func TestReplayCyclicRoutes(t *testing.T) {
	top := ring(t, true)
	if newCertificate(top) != nil {
		t.Fatal("the certificate accepted cyclic routes")
	}
	r := decideAll(t, top, [][2]int{{0, 1}})
	if o := r.decided[0]; o.unroutable || o.rerouted != 2 {
		t.Errorf("s0->s1 outcome %+v, want two flows rerouted", o)
	}
	if _, err := r.decide([][2]int{{1, 0}}); err == nil {
		t.Error("a dead set that leaves the cycle intact was decided")
	}
	sameReport(t, top, ModelConfig{Plans: 4, FaultsPerPlan: 1, Seed: 1, ExhaustiveMax: 24}, nil)
	for seed := int64(1); seed <= 4; seed++ {
		sameReport(t, top, ModelConfig{Plans: 8, FaultsPerPlan: 2, Seed: seed}, nil)
	}
}

// TestCertificateMatchesReachability checks the certificate, on the designs
// of FuzzReplayMatchesReference's corpus, against reachability computed
// afresh: a set of one or two fabricated links is certified dead exactly
// when it leaves some flow's destination switch unreachable from its source
// switch. A flow whose route survives keeps its route, so it is never the
// one cut off.
func TestCertificateMatchesReachability(t *testing.T) {
	checked := 0
	for _, h := range replayCorpus {
		data, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		rc := decodeReplayCase(data)
		if rc == nil {
			continue
		}
		cert := newCertificate(rc.top)
		if cert == nil {
			continue
		}
		sites := Sites(rc.top)
		for i := range sites {
			for j := i; j < len(sites); j++ {
				dead := [][2]int{{sites[i].From, sites[i].To}}
				if j > i {
					dead = append(dead, [2]int{sites[j].From, sites[j].To})
				}
				if got, want := cert.unroutable(dead), cutOff(rc.top, dead); got != want {
					t.Errorf("case %q, dead %v: certificate says %v, reachability %v", h, dead, got, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no dead set checked")
	}
}

// cutOff reports whether some flow's destination switch is unreachable from
// its source switch once the dead links are removed from the links of the
// committed routes (transitive closure).
func cutOff(top *topology.Topology, dead [][2]int) bool {
	n := top.NumSwitches()
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
		reach[i][i] = true
	}
	for _, l := range top.SwitchLinks() {
		reach[l.From][l.To] = true
	}
	for _, d := range dead {
		reach[d[0]][d[1]] = false
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				reach[i][j] = reach[i][j] || reach[i][k] && reach[k][j]
			}
		}
	}
	for _, fl := range top.Design.Flows {
		if !reach[top.CoreAttach[fl.Src]][top.CoreAttach[fl.Dst]] {
			return true
		}
	}
	return false
}
