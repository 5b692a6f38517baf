package fault

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"sunfloor3d/internal/model"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/route"
	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/topology"
)

// referenceReplay is the replay loop before plans were decided by the
// connectivity certificate and the table of dead-link sets: every plan with
// a dead link simulates the injection, clones the topology and repairs it
// with route.RepairRoutes. FuzzReplayMatchesReference and the replay tests
// compare Replay with it byte for byte.
func referenceReplay(t *topology.Topology, rcfg route.Config, mc ModelConfig, sp *SparingPlan, simCfg *sim.Config) (*Survivability, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	rep := &Survivability{}
	if sp != nil {
		rep.SpareTSVs = sp.SpareTSVs
		rep.SpareWires = sp.SpareWires
	}
	sites := Sites(t)
	if len(sites) == 0 {
		// A single-switch design has no inter-switch link to fail.
		return rep, nil
	}

	var plans []Plan
	if mc.ExhaustiveMax > 0 && len(sites) <= mc.ExhaustiveMax {
		plans = SingleFaultPlans(t)
		rep.Exhaustive = true
	} else {
		proc := noclib.StandardProcesses()[0]
		if sp != nil {
			proc = sp.Process
		}
		plans = RandomPlans(t, mc.Plans, mc.FaultsPerPlan, mc.Seed, proc)
	}
	rep.Plans = len(plans)
	rep.WorstLatencyInflation = 1

	spares := make(map[[2]int]int)
	if sp != nil {
		for _, l := range sp.Links {
			spares[[2]int{l.From, l.To}] = l.Spares
		}
	}
	baseline := t.Evaluate().AvgLatencyCycles

	for _, plan := range plans {
		// Spares absorb faults first: a link with at least one provisioned
		// spare survives the loss of its primary TSV/wire.
		var dead [][2]int
		for _, f := range plan.Faults {
			key := [2]int{f.From, f.To}
			if spares[key] > 0 {
				rep.SparesUsed++
				continue
			}
			dead = append(dead, key)
		}
		if len(dead) == 0 {
			rep.Absorbed++
			rep.Survived++
			continue
		}

		if simCfg != nil {
			// Dynamic fault observation: inject the dead links into the
			// unrepaired topology and let the watchdog see the stranded
			// flits starve.
			cfg := *simCfg
			cfg.DeadLinks = dead
			cfg.FaultCycle = mc.FaultCycle
			st, err := sim.Run(t, cfg)
			if err != nil {
				return nil, fmt.Errorf("fault: injection simulation: %w", err)
			}
			rep.SimInjected++
			if !st.Healthy() {
				rep.SimDetected++
			}
		}

		clone := t.Clone()
		rr, err := route.RepairRoutes(clone, rcfg, dead)
		if err != nil {
			return nil, err
		}
		if len(rr.Unroutable) > 0 {
			rep.Dead++
			continue
		}
		if !route.DeadlockFree(clone) {
			return nil, fmt.Errorf("fault: repaired routes have a cyclic channel dependency graph")
		}
		rep.ReroutedFlows += rr.Rerouted
		m := clone.Evaluate()
		// A degenerate baseline (no routed flows, zero-length routes) would
		// turn the ratio into NaN or Inf; the inflation then stays at its
		// neutral value of 1 rather than poisoning the JSON-stable report.
		if baseline > 0 {
			if infl := m.AvgLatencyCycles / baseline; infl > rep.WorstLatencyInflation {
				rep.WorstLatencyInflation = infl
			}
		}
		rep.Repaired++
		rep.Survived++

		if simCfg != nil {
			// Graceful-degradation check: the repaired topology must run
			// clean — no watchdog trip, no livelock.
			cfg := *simCfg
			cfg.DeadLinks = nil
			cfg.FaultCycle = 0
			st, err := sim.Run(clone, cfg)
			if err != nil {
				return nil, fmt.Errorf("fault: post-repair simulation: %w", err)
			}
			rep.SimChecked++
			if !st.Healthy() {
				rep.SimDeadlocks++
			}
		}
	}

	if sp != nil && sp.TotalSpares() > 0 && rep.Plans > 0 {
		rep.SpareUtilization = float64(rep.SparesUsed) / float64(rep.Plans*sp.TotalSpares())
	}
	return rep, nil
}

// replayCase is one decoded fuzz scenario: a routed topology and the
// settings of a replay against it.
type replayCase struct {
	top  *topology.Topology
	rcfg route.Config
	mc   ModelConfig
	sp   *SparingPlan
	sim  *sim.Config
}

// caseBytes doles out the bytes of a fuzz input, falling back to a rolling
// default once the input is exhausted, so every prefix decodes to a case.
type caseBytes struct {
	data []byte
	pos  int
}

// n returns a value in [0, k) derived from the next byte.
func (r *caseBytes) n(k int) int {
	var b byte
	if r.pos < len(r.data) {
		b = r.data[r.pos]
	} else {
		b = byte(r.pos * 37)
	}
	r.pos++
	return int(b) % k
}

// decodeReplayCase decodes a fuzz input into a small design of 3 to 12
// cores on one to three layers, attached to 2 to 8 switches and routed by
// route.ComputePaths (under a switch-size limit on some inputs, so that
// some flows may stay unrouted), and a replay of 4 to 32 plans of one to
// three faults each, with sparing and a short simulation on some inputs. It
// returns nil when the decoded design is degenerate.
func decodeReplayCase(data []byte) *replayCase {
	r := &caseBytes{data: data}
	nCores := 3 + r.n(10)
	nLayers := 1 + r.n(3)
	nSwitches := 2 + r.n(7)
	nFlows := 2 + r.n(19)

	cores := make([]model.Core, nCores)
	for i := range cores {
		cores[i] = model.Core{
			Name:   fmt.Sprintf("c%d", i),
			Width:  0.5 + float64(r.n(8))/4,
			Height: 0.5 + float64(r.n(8))/4,
			X:      float64(r.n(12)),
			Y:      float64(r.n(12)),
			Layer:  r.n(nLayers),
		}
	}
	var flows []model.Flow
	for i := 0; i < nFlows; i++ {
		src, dst := r.n(nCores), r.n(nCores)
		if src == dst {
			continue
		}
		flows = append(flows, model.Flow{Src: src, Dst: dst, BandwidthMBps: float64(25 * (1 + r.n(80)))})
	}
	if len(flows) == 0 {
		return nil
	}
	g, err := model.NewCommGraph(cores, flows)
	if err != nil {
		return nil
	}
	top := topology.New(g, noclib.DefaultLibrary(), 400)
	for s := 0; s < nSwitches; s++ {
		top.AddSwitch(r.n(nLayers))
	}
	for c := range cores {
		top.AttachCore(c, r.n(nSwitches))
	}
	top.EstimateSwitchPositions()
	rc := &replayCase{top: top, rcfg: route.DefaultConfig()}
	if k := r.n(8); k < 2 {
		rc.rcfg.MaxSwitchSize = 3 + k
	}
	if _, err := route.ComputePaths(top, rc.rcfg); err != nil {
		return nil
	}

	rc.mc = ModelConfig{Plans: 4 + r.n(29), FaultsPerPlan: 1 + r.n(3), Seed: int64(r.n(256)), FaultCycle: 10 * r.n(4)}
	if r.n(5) == 0 {
		rc.mc.ExhaustiveMax = 24
	}
	if k := r.n(6); k < 2 {
		procs := append(noclib.StandardProcesses(), highRateProcess())
		cfg := SparingConfig{Process: procs[r.n(len(procs))], TargetYield: []float64{0.99, 0.999}[k]}
		if rc.sp, err = BuildSparing(top, cfg); err != nil {
			return nil
		}
	}
	if r.n(3) == 0 {
		sc := sim.DefaultConfig()
		sc.Cycles = 150
		sc.DrainCycles = 150
		sc.StatsLevel = sim.StatsSummary
		sc.WatchdogCycles = 40
		sc.Seed = int64(r.n(256))
		rc.sim = &sc
	}
	return rc
}

// replayCorpus is the seed corpus of FuzzReplayMatchesReference, as hex.
// Between them the entries hold plans that leave a stranded flow without a
// path, plans the router repairs, plans the router cannot repair although
// every flow has a path, dead-link sets repeated within a replay (with and
// without simulation), spares absorbing faults, the exhaustive single-fault
// plans, three faults per plan, and flows left unrouted, so that the replay
// fails in RepairRoutes or in the injection simulation.
var replayCorpus = []string{
	// Simulated, three sites, every plan dead, 29 of 32 plans repeat a set.
	"",
	// Three switches, 21 plans all repaired, 17 of them repeats.
	"36c563eab74bb6ea2a2f93a86221fe293c3a9e25441d57f321d2825a2e1a8efc765e128e57c93a230b958a054a66cc344632373b",
	// Simulated: 9 repaired and 9 dead of 18 plans, 12 repeats.
	"fb30967ab41008a55308cb3cb580a4c9f694b3e976125bcd55de55e78fed7d1b95a5ce24b1e9",
	// Simulated: 3 of 26 plans dead although every stranded flow has a path.
	"57236df16803d3b6a06295b60fdadfe80185529c593d72d7d0412edb343b5a8894660cdc575bb58a9dadf58bd68f516c7190c66c7443f8b7cb0ad83938",
	// 4 of 27 plans dead although every stranded flow has a path, 21 repeats.
	"913b82b24ae982b3962a2cff5cbaeeb80fe01276bdf85ad2ddca4ef6941a6d58ad53b89be1dadc89e38d8d1bc1bb",
	// Spared and simulated: absorbed, repaired and dead plans.
	"c5c882945a78c1f5ed555c9ee09730d5bfde1e723d1c1814be500cf0f7c5c96d9014ced6b9",
	// Exhaustive single-fault plans: 4 repaired, 6 dead.
	"1b88d66743ee14a921dcfe2ad0a92907ae3be01ace9ec325b39d01fab68b965a0c468b00103c009776d77c07ece275d3525005440712dd1ed550d00db344213ed8a807bd91",
	// Simulated, three faults per plan, repeats.
	"5d0709f3afb6f8388384797775df5cd020c7acf93b8af374fd2cba4594d3a98c3e38d7e1839ebf3fc60ba68f3f1bf813438d9305d3042b06ca88ec673663121fee",
	// Unrouted flows: RepairRoutes fails at the first dead plan.
	"ef8e49c1653c9f988a451e32008fab94b7bcacd80cb8ab20c67fc53486150116370488ac38cfa49a",
	// Unrouted flows, simulated: the injection simulation fails first.
	"4fdee4ce797846d17074ef52e4dc37",
}

// FuzzReplayMatchesReference checks Replay against referenceReplay on
// generated routed designs: the same report bytes, or the same error.
func FuzzReplayMatchesReference(f *testing.F) {
	for _, h := range replayCorpus {
		data, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rc := decodeReplayCase(data)
		if rc == nil {
			return
		}
		want, wantErr := referenceReplay(rc.top, rc.rcfg, rc.mc, rc.sp, rc.sim)
		got, err := Replay(rc.top, rc.rcfg, rc.mc, rc.sp, rc.sim)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Replay error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		a, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("Replay report differs from the reference:\n got %s\nwant %s", a, b)
		}
	})
}
