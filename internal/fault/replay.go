package fault

import (
	"cmp"
	"fmt"
	"slices"

	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/route"
	"sunfloor3d/internal/sim"
	"sunfloor3d/internal/topology"
)

// Survivability is the per-design-point fault report: how the topology fared
// against every replayed fault plan. All fields are plain values with fixed
// JSON names, so the report serialises byte-identically for equal inputs.
type Survivability struct {
	// Plans is the number of fault plans replayed.
	Plans int `json:"plans"`
	// Exhaustive reports that the plans enumerate every single-link fault of
	// the design rather than a random sample.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Survived counts the plans the design survives: every fault absorbed by
	// a spare, or all stranded flows re-routed deadlock-free.
	Survived int `json:"survived"`
	// Absorbed counts the survived plans in which spares masked every fault
	// and no re-routing was needed.
	Absorbed int `json:"absorbed"`
	// Repaired counts the survived plans that needed re-routing.
	Repaired int `json:"repaired"`
	// Dead counts the certified-dead plans: some flow provably has no path
	// over the surviving links.
	Dead int `json:"dead"`
	// ReroutedFlows is the total number of stranded flows re-routed across
	// all repaired plans.
	ReroutedFlows int `json:"rerouted_flows,omitempty"`
	// WorstLatencyInflation is the worst ratio of repaired to baseline
	// average zero-load latency over the repaired plans (1 when no repair
	// changed the latency).
	WorstLatencyInflation float64 `json:"worst_latency_inflation,omitempty"`
	// SpareTSVs and SpareWires echo the provisioned sparing plan.
	SpareTSVs  int `json:"spare_tsvs,omitempty"`
	SpareWires int `json:"spare_wires,omitempty"`
	// SparesUsed is the total number of faults absorbed by a spare across
	// all plans.
	SparesUsed int `json:"spares_used,omitempty"`
	// SpareUtilization is SparesUsed over the total spare capacity offered
	// across all plans (Plans x TotalSpares).
	SpareUtilization float64 `json:"spare_utilization,omitempty"`
	// SimInjected counts the plans whose faults were additionally injected
	// into the flit-level simulator on the unrepaired topology; SimDetected
	// counts how many of those runs the runtime watchdog flagged.
	SimInjected int `json:"sim_injected,omitempty"`
	SimDetected int `json:"sim_detected,omitempty"`
	// SimChecked counts the repaired plans whose re-routed topology was
	// re-simulated; SimDeadlocks counts watchdog trips among them and must
	// be zero — the repair contract is that the watchdog never fires
	// post-repair.
	SimChecked   int `json:"sim_checked,omitempty"`
	SimDeadlocks int `json:"sim_deadlocks,omitempty"`
}

// SurvivedFraction returns the fraction of replayed plans the design
// survived (0 when no plan ran).
func (s *Survivability) SurvivedFraction() float64 {
	if s.Plans == 0 {
		return 0
	}
	return float64(s.Survived) / float64(s.Plans)
}

// Replay runs the fault harness against a routed, validated topology: it
// generates the fault plans (exhaustive single-fault enumeration when the
// design is small enough, weighted random sampling otherwise), lets the
// sparing plan absorb what it can, repairs the rest with
// route.RepairRoutes, statically re-validates every repaired route set via
// the channel-dependency graph, and — when simCfg is non-nil — dynamically
// cross-validates with the flit simulator: faults are injected into the
// unrepaired topology at mc.FaultCycle (the watchdog should observe them)
// and the repaired topology is re-simulated (the watchdog must not trip).
//
// A plan is decided by the set of links it kills, so each distinct dead-link
// set is decided once per call and later plans with the same set count the
// same outcome. A set that leaves some stranded flow with no path over the
// surviving fabricated links is certified dead without routing.
//
// t is never mutated; repairs happen on clones. The replay is fully
// deterministic: equal (topology, configs, sparing plan, seed) inputs return
// byte-identical reports.
func Replay(t *topology.Topology, rcfg route.Config, mc ModelConfig, sp *SparingPlan, simCfg *sim.Config) (*Survivability, error) {
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
	r := &replayState{t: t, rcfg: rcfg, mc: mc, simCfg: simCfg, baseline: t.AvgLatencyCycles()}

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
		o, err := r.decide(dead)
		if err != nil {
			return nil, err
		}
		o.count(rep, simCfg != nil)
	}

	if sp != nil && sp.TotalSpares() > 0 && rep.Plans > 0 {
		rep.SpareUtilization = float64(rep.SparesUsed) / float64(rep.Plans*sp.TotalSpares())
	}
	return rep, nil
}

// outcome is what one dead-link set does to the topology: every plan that
// kills exactly that set adds the same counts to the report.
type outcome struct {
	// dead is the dead-link set, sorted by (from, to).
	dead [][2]int
	// simDetected reports that the watchdog flagged the injection run.
	simDetected bool
	// unroutable reports that some stranded flow has no repaired route: the
	// set is certified dead.
	unroutable bool
	// rerouted is the number of stranded flows the repair re-routed.
	rerouted int
	// inflation is the ratio of the repaired to the baseline average
	// zero-load latency (0 when the baseline is degenerate).
	inflation float64
	// simDeadlock reports that the watchdog tripped on the repaired topology.
	simDeadlock bool
}

// count adds the outcome of one plan to the report; simulated tells whether
// the replay runs the simulator.
func (o *outcome) count(rep *Survivability, simulated bool) {
	if simulated {
		rep.SimInjected++
		if o.simDetected {
			rep.SimDetected++
		}
	}
	if o.unroutable {
		rep.Dead++
		return
	}
	rep.ReroutedFlows += o.rerouted
	if o.inflation > rep.WorstLatencyInflation {
		rep.WorstLatencyInflation = o.inflation
	}
	rep.Repaired++
	rep.Survived++
	if simulated {
		rep.SimChecked++
		if o.simDeadlock {
			rep.SimDeadlocks++
		}
	}
}

// replayState is what one Replay call shares across its plans: the outcome
// of every dead-link set decided so far and the connectivity certificate.
// Repair, CDG check, evaluation and simulation are pure functions of
// (topology, configs, dead set), and the router and the simulator both treat
// a dead-link list as a set, so a decided outcome holds for every plan that
// kills the same set.
type replayState struct {
	t        *topology.Topology
	rcfg     route.Config
	mc       ModelConfig
	simCfg   *sim.Config
	baseline float64

	decided []outcome
	// cert is built with the first outcome; it stays nil for a topology the
	// certificate cannot decide.
	cert *certificate
}

// decide returns the outcome of the dead-link set, sorting dead in place.
func (r *replayState) decide(dead [][2]int) (outcome, error) {
	slices.SortFunc(dead, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	for _, o := range r.decided {
		if slices.Equal(o.dead, dead) {
			return o, nil
		}
	}
	o, err := r.compute(dead)
	if err != nil {
		return o, err
	}
	r.decided = append(r.decided, o)
	return o, nil
}

// compute works out the outcome of a dead-link set not decided before.
func (r *replayState) compute(dead [][2]int) (outcome, error) {
	o := outcome{dead: dead}
	if r.simCfg != nil {
		// Dynamic fault observation: inject the dead links into the
		// unrepaired topology and let the watchdog see the stranded flits
		// starve.
		cfg := *r.simCfg
		cfg.DeadLinks = dead
		cfg.FaultCycle = r.mc.FaultCycle
		st, err := sim.Run(r.t, cfg)
		if err != nil {
			return o, fmt.Errorf("fault: injection simulation: %w", err)
		}
		o.simDetected = !st.Healthy()
	}
	if len(r.decided) == 0 {
		r.cert = newCertificate(r.t)
	}
	if r.cert != nil && r.cert.unroutable(dead) {
		o.unroutable = true
		return o, nil
	}

	clone := r.t.Clone()
	rr, err := route.RepairRoutes(clone, r.rcfg, dead)
	if err != nil {
		return o, err
	}
	if len(rr.Unroutable) > 0 {
		o.unroutable = true
		return o, nil
	}
	if !route.DeadlockFree(clone) {
		return o, fmt.Errorf("fault: repaired routes have a cyclic channel dependency graph")
	}
	o.rerouted = rr.Rerouted
	// A degenerate baseline (no routed flows, zero-length routes) would turn
	// the ratio into NaN or Inf; the inflation then stays 0, so the report's
	// worst inflation keeps its neutral value of 1 rather than poisoning the
	// JSON-stable report.
	if r.baseline > 0 {
		o.inflation = clone.AvgLatencyCycles() / r.baseline
	}
	if r.simCfg != nil {
		// Graceful-degradation check: the repaired topology must run clean —
		// no watchdog trip, no livelock.
		cfg := *r.simCfg
		cfg.DeadLinks = nil
		cfg.FaultCycle = 0
		st, err := sim.Run(clone, cfg)
		if err != nil {
			return o, fmt.Errorf("fault: post-repair simulation: %w", err)
		}
		o.simDeadlock = !st.Healthy()
	}
	return o, nil
}

// certificate decides, without routing, the dead-link sets that strand a
// flow whose destination switch cannot be reached from its source switch
// over the surviving fabricated links. The repair router may use those links
// only, so route.RepairRoutes would report such a flow unroutable, and the
// set is dead without a clone or a repair router. A set the certificate does
// not decide is routed.
type certificate struct {
	t *topology.Topology
	// link[i][j] reports that the fabricated link i->j survives the set
	// under check; unroutable clears the dead links and restores them.
	link [][]bool
	// seen and queue are the breadth-first search's scratch; queue has room
	// for every switch.
	seen  []bool
	queue []int
}

// newCertificate builds the certificate of a routed topology. It returns nil
// where route.RepairRoutes could fail instead of reporting a flow
// unroutable: when some flow has no committed route, or the committed routes
// have a cyclic channel-dependency graph (every surviving subset of a
// deadlock-free route set is deadlock-free, of a cyclic one it need not be).
// Every set is then routed, and RepairRoutes rejects the input as before.
func newCertificate(t *topology.Topology) *certificate {
	n := t.NumSwitches()
	c := &certificate{t: t, link: make([][]bool, n), seen: make([]bool, n), queue: make([]int, 0, n)}
	cells := make([]bool, n*n)
	for i := range c.link {
		c.link[i] = cells[i*n : (i+1)*n]
	}
	for _, rt := range t.Routes {
		if len(rt.Switches) == 0 {
			return nil
		}
		for i := 1; i < len(rt.Switches); i++ {
			c.link[rt.Switches[i-1]][rt.Switches[i]] = true
		}
	}
	if !route.DeadlockFree(t) {
		return nil
	}
	return c
}

// unroutable reports whether the dead links, all of them fabricated, strand
// a flow whose destination switch is unreachable from its source switch
// over the surviving links. The endpoints are the switches of the flow's
// cores, as the router's.
func (c *certificate) unroutable(dead [][2]int) bool {
	for _, d := range dead {
		c.link[d[0]][d[1]] = false
	}
	cut := false
	for f, rt := range c.t.Routes {
		if !c.crossesDead(rt.Switches) {
			continue
		}
		fl := c.t.Design.Flows[f]
		if !c.reaches(c.t.CoreAttach[fl.Src], c.t.CoreAttach[fl.Dst]) {
			cut = true
			break
		}
	}
	for _, d := range dead {
		c.link[d[0]][d[1]] = true
	}
	return cut
}

// crossesDead reports whether the committed path steps over a dead link:
// every link of a committed route is fabricated, so exactly where it leaves
// the surviving set.
func (c *certificate) crossesDead(path []int) bool {
	for i := 1; i < len(path); i++ {
		if !c.link[path[i-1]][path[i]] {
			return true
		}
	}
	return false
}

// reaches reports whether dst can be reached from src over the surviving
// links (breadth-first).
func (c *certificate) reaches(src, dst int) bool {
	clear(c.seen)
	c.seen[src] = true
	q := append(c.queue[:0], src)
	for k := 0; k < len(q); k++ {
		u := q[k]
		if u == dst {
			return true
		}
		for v, ok := range c.link[u] {
			if ok && !c.seen[v] {
				c.seen[v] = true
				q = append(q, v)
			}
		}
	}
	return false
}
