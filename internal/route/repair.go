package route

import (
	"fmt"
	"sort"

	"sunfloor3d/internal/topology"
)

// RepairResult reports what RepairRoutes did to a faulted topology.
type RepairResult struct {
	// Stranded lists the flows whose committed route crossed a dead link,
	// in ascending flow order.
	Stranded []int
	// Rerouted is the number of stranded flows that received a new
	// deadlock-free route over the surviving links.
	Rerouted int
	// Unroutable lists the stranded flows for which no deadlock-free path
	// over the surviving links exists; their routes are left empty, so
	// Topology.Validate fails and the design point is certified dead under
	// this fault plan.
	Unroutable []int
	// DeadlockRetries counts path recomputations forced by channel
	// dependency cycles during the repair.
	DeadlockRetries int
}

// RepairRoutes re-routes the flows stranded by the failure of the given
// inter-switch links, in place on t. The fabricated chip is fixed: only links
// already implied by the committed routes — minus the dead ones — may carry
// the repaired paths, and no indirect switch can be inserted. Surviving
// routes are kept verbatim; their channel dependencies seed the CDG, so every
// repaired path is deadlock-free against the whole repaired route set (a
// surviving subset of a deadlock-free set is itself deadlock-free). The
// repair is fully deterministic: equal (topology, config, dead set) inputs
// commit byte-identical routes.
//
// A stranded flow with no valid path keeps an empty route; the caller detects
// certified-dead plans through RepairResult.Unroutable (equivalently, a
// failing Topology.Validate).
func RepairRoutes(t *topology.Topology, cfg Config, dead [][2]int) (RepairResult, error) {
	tb := tablePool.Get().(*tables)
	defer tablePool.Put(tb)
	return repairRoutes(t, cfg, dead, tb)
}

// repairRoutes is RepairRoutes with its router's tables carved from tb.
func repairRoutes(t *topology.Topology, cfg Config, dead [][2]int, tb *tables) (RepairResult, error) {
	var res RepairResult
	if len(dead) == 0 {
		return res, nil
	}

	// The fabricated link set is exactly what the committed routes imply; the
	// repair may use it minus the dead links. Every dead link is checked
	// against the fabricated set before any is removed from it.
	n := t.NumSwitches()
	allowed := newSquare(n, 0, false)
	for _, rt := range t.Routes {
		for i := 1; i < len(rt.Switches); i++ {
			allowed[rt.Switches[i-1]][rt.Switches[i]] = true
		}
	}
	for _, d := range dead {
		if d[0] < 0 || d[0] >= n || d[1] < 0 || d[1] >= n || !allowed[d[0]][d[1]] {
			return res, fmt.Errorf("route: dead link %d->%d is not a fabricated link of the topology", d[0], d[1])
		}
	}
	for _, d := range dead {
		allowed[d[0]][d[1]] = false
	}

	// Partition the flows and save the surviving paths before the router
	// resets every route. Every link of a committed route is fabricated, so
	// a route crosses a dead link exactly where it leaves the allowed set.
	crossesDead := func(path []int) bool {
		for i := 1; i < len(path); i++ {
			if !allowed[path[i-1]][path[i]] {
				return true
			}
		}
		return false
	}
	stranded := make([]bool, len(t.Routes))
	surviving := make([][]int, len(t.Routes))
	for f, rt := range t.Routes {
		if len(rt.Switches) == 0 {
			return res, fmt.Errorf("route: flow %d carries no committed route to repair", f)
		}
		if crossesDead(rt.Switches) {
			stranded[f] = true
			res.Stranded = append(res.Stranded, f)
		} else {
			surviving[f] = rt.Switches
		}
	}
	sort.Ints(res.Stranded)
	if len(res.Stranded) == 0 {
		return res, nil
	}

	// Repair router: the arc universe is the surviving fabricated links only,
	// and no switch can be added to a fabbed chip.
	cfg.AllowIndirectSwitches = false
	cfg.StopAtFirstFailure = false
	r := &router{top: t, cfg: cfg, allowed: allowed, tb: tb}
	defer r.stash()
	r.init()

	// Re-commit the surviving routes in the deterministic decreasing-
	// bandwidth order the original router used, rebuilding the link, port,
	// ILL and CDG bookkeeping the repaired paths must respect.
	order := t.Design.FlowsByBandwidth()
	for _, f := range order {
		if stranded[f] {
			continue
		}
		if bad, cyclic := r.deadlockArc(surviving[f]); cyclic {
			return res, fmt.Errorf("route: surviving routes are not deadlock-free (cycle at link %d->%d)", bad[0], bad[1])
		}
		r.commit(f, surviving[f])
	}

	// Route the stranded flows, heaviest first, over the surviving links.
	for _, f := range order {
		if !stranded[f] {
			continue
		}
		if r.routeFlow(f) {
			res.Rerouted++
		} else {
			res.Unroutable = append(res.Unroutable, f)
		}
	}
	sort.Ints(res.Unroutable)
	res.DeadlockRetries = r.deadlock
	return res, nil
}
