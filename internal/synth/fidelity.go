package synth

// triageSimBand is the simulation step of the fidelity ladder. With
// Options.SimBand active, evaluation attaches only the analytic contention
// estimate to valid points; this pass cuts the estimated Pareto band over
// pts and runs the flit-level simulator on the band members alone. Points
// outside the band are marked SimTriage "skip" and keep their estimate;
// band members are marked "sim" and gain DesignPoint.Sim (a simulation
// failure invalidates the point exactly as it would on the inline path).
//
// Band membership is margin-dominance on (power, estimated latency): a
// point is skipped only when some other valid point is no worse in both
// coordinates, strictly better in one, and clear of it by at least the
// SimBand margin in one. The margin respects where the estimate can
// actually be wrong. Power is computed exactly, so its margin is the plain
// (1+SimBand) factor. Estimated latency is the exact zero-load latency
// plus the M/D/1 waiting estimate, and only the waiting part carries
// estimator error — so the latency margin inflates the dominator's wait by
// (1+SimBand) and deflates the dominated point's by 1/(1+SimBand) and asks
// whether the dominator still wins. At low load (waits near zero) that
// degenerates to the exact zero-load comparison and skips aggressively; at
// saturation (waits dominating) it demands a wide gap and keeps the point.
// Every point on the estimated Pareto front is always simulated — a skip
// needs a plain dominator, which a front point by definition lacks — and
// so is every near-tie within the margins. Widening SimBand only moves
// points from "skip" to "sim". The decision depends only on the set of
// valid points, never on evaluation order, so serial, parallel,
// checkpointed and sharded runs triage identically. Points whose SimTriage
// is already set (restored from a checkpoint) are left untouched.
func triageSimBand(pts []DesignPoint, opt Options, p *pool) error {
	if opt.SimBand == 0 {
		return nil
	}
	var valid []int
	for i := range pts {
		if pts[i].Valid && pts[i].SimTriage == "" && pts[i].Contention != nil {
			valid = append(valid, i)
		}
	}
	var band, skipped []int
	frac := opt.SimBand
	// wait is the estimated contention component of a point's latency: the
	// part the M/D/1 model guessed, and the only part the band needs to
	// hedge against.
	wait := func(i int) float64 {
		w := pts[i].Contention.AvgLatencyCycles - pts[i].Metrics.AvgLatencyCycles
		if w < 0 {
			return 0
		}
		return w
	}
	for _, i := range valid {
		pi := pts[i].Metrics.Power.TotalMW()
		li := pts[i].Contention.AvgLatencyCycles
		zi := pts[i].Metrics.AvgLatencyCycles
		wi := wait(i)
		dominated := false
		for _, j := range valid {
			if j == i {
				continue
			}
			pj := pts[j].Metrics.Power.TotalMW()
			lj := pts[j].Contention.AvgLatencyCycles
			if !(pj <= pi && lj <= li && (pj < pi || lj < li)) {
				continue
			}
			zj := pts[j].Metrics.AvgLatencyCycles
			if pj*(1+frac) <= pi ||
				zj+(1+frac)*wait(j) <= zi+wi/(1+frac) {
				dominated = true
				break
			}
		}
		if dominated {
			skipped = append(skipped, i)
		} else {
			band = append(band, i)
		}
	}

	// Skipped points still count toward progress: each one is a triage
	// decision the caller can observe, carrying SimTriage "skip".
	p.addTotal(len(skipped))
	for _, i := range skipped {
		pts[i].SimTriage = "skip"
		p.emit(pts[i])
	}

	sims := make([]DesignPoint, len(band))
	err := p.forEach(len(band),
		func(k int) DesignPoint {
			dp := pts[band[k]]
			dp.SimTriage = "sim"
			return simulatePoint(dp, opt)
		},
		func(k int, dp DesignPoint) { sims[k] = dp })
	if err != nil {
		return err
	}
	for k, i := range band {
		pts[i] = sims[k]
	}
	return nil
}
