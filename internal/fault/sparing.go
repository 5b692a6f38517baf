package fault

import (
	"fmt"
	"math"

	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/topology"
)

// SparingConfig asks the synthesis flow to provision spare TSVs and spare
// planar wires so the fabricated chip reaches a target functional yield on a
// given manufacturing process.
type SparingConfig struct {
	// Process is the 3-D manufacturing process whose failure rates size the
	// spares.
	Process noclib.Process
	// TargetYield is the functional-yield target in (0, 1): the probability
	// that every inter-switch link of the chip works (possibly through a
	// spare) must be at least this value.
	TargetYield float64
}

// Validate checks the configuration values.
func (c SparingConfig) Validate() error {
	// The interval checks are negated from their accepting form so that NaN
	// is rejected too.
	if !(c.Process.BaseYield > 0 && c.Process.BaseYield <= 1) {
		return fmt.Errorf("fault: sparing process BaseYield %g outside (0, 1]", c.Process.BaseYield)
	}
	if !(c.Process.TSVFailureRate > 0 && c.Process.TSVFailureRate < 1) {
		return fmt.Errorf("fault: sparing process TSVFailureRate %g outside (0, 1)", c.Process.TSVFailureRate)
	}
	if !(c.TargetYield > 0 && c.TargetYield < 1) {
		return fmt.Errorf("fault: TargetYield %g outside (0, 1)", c.TargetYield)
	}
	return nil
}

// LinkSpares records the spares provisioned for one fault site.
type LinkSpares struct {
	From, To int
	// Spares is the number of spare TSVs (vertical sites) or spare wires
	// (planar sites) the link carries.
	Spares int
}

// SparingPlan is the provisioned spare set of one topology: how many spare
// TSVs or wires every inter-switch link carries so the chip meets the target
// yield.
type SparingPlan struct {
	// Process the plan was sized for.
	Process noclib.Process
	// Links lists the per-site spare counts, in Sites order.
	Links []LinkSpares
	// SpareTSVs is the total number of spare TSVs (vertical sites only);
	// these occupy TSV macros and are reported in the topology metrics.
	SpareTSVs int
	// SpareWires is the total number of spare planar wires.
	SpareWires int
}

// TotalSpares returns the total number of provisioned spares across all
// sites.
func (p *SparingPlan) TotalSpares() int { return p.SpareTSVs + p.SpareWires }

// maxSparesPerLink bounds the spare search; with realistic failure rates one
// or two spares per link always suffice, the cap only guards against an
// unreachable per-link target.
const maxSparesPerLink = 64

// BuildSparing sizes the spares of every fault site of the topology so the
// whole link set survives manufacturing with probability at least
// cfg.TargetYield. The target is split evenly across the sites (per-link
// target yield^(1/L)); each vertical link spanning b boundaries carries b
// TSVs failing independently at the process rate and receives the smallest
// spare count whose binomial survival meets the per-link target, and each
// planar link fails as a unit at the derated wire rate with 1+s independent
// copies. The construction is deterministic: equal (topology, config) inputs
// return byte-identical plans.
func BuildSparing(t *topology.Topology, cfg SparingConfig) (*SparingPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sites := Sites(t)
	plan := &SparingPlan{Process: cfg.Process, Links: make([]LinkSpares, 0, len(sites))}
	if len(sites) == 0 {
		return plan, nil
	}
	perLink := rootN(cfg.TargetYield, len(sites))
	for _, s := range sites {
		n, err := sparesFor(s, cfg.Process, perLink)
		if err != nil {
			return nil, err
		}
		plan.Links = append(plan.Links, LinkSpares{From: s.From, To: s.To, Spares: n})
		if s.Vertical() {
			plan.SpareTSVs += n
		} else {
			plan.SpareWires += n
		}
	}
	return plan, nil
}

// sparesFor returns the smallest spare count that lifts the site's survival
// probability to at least target.
func sparesFor(s Site, proc noclib.Process, target float64) (int, error) {
	for n := 0; n <= maxSparesPerLink; n++ {
		if linkSurvival(s, proc, n) >= target {
			return n, nil
		}
	}
	return 0, fmt.Errorf("fault: link %d->%d cannot reach per-link yield %g with %d spares",
		s.From, s.To, target, maxSparesPerLink)
}

// linkSurvival returns the probability that the site still works with n
// spares. A vertical site spanning b boundaries needs b working TSVs out of
// the b+n fabricated ones (spares substitute for any failed TSV); a planar
// site needs any one of its 1+n redundant wires.
func linkSurvival(s Site, proc noclib.Process, n int) float64 {
	if s.Vertical() {
		return binomialAtMost(s.Boundaries+n, n, proc.TSVFailureRate)
	}
	q := proc.TSVFailureRate / planarRateDivisor
	allDead := 1.0
	for i := 0; i <= n; i++ {
		allDead *= q
	}
	return 1 - allDead
}

// binomialAtMost returns P(X <= k) for X ~ Binomial(n, p), evaluated with a
// fixed left-to-right recurrence so the result is byte-identical across
// platforms and runs.
func binomialAtMost(n, k int, p float64) float64 {
	if k >= n {
		return 1
	}
	// pmf(0) = (1-p)^n, pmf(i+1) = pmf(i) * (n-i)/(i+1) * p/(1-p).
	pmf := 1.0
	for i := 0; i < n; i++ {
		pmf *= 1 - p
	}
	cdf := pmf
	for i := 0; i < k; i++ {
		pmf *= float64(n-i) / float64(i+1) * p / (1 - p)
		cdf += pmf
	}
	return cdf
}

// rootN returns x^(1/n); math.Pow is a pure-Go softfloat implementation, so
// the result is byte-identical across platforms (the yield model already
// depends on this).
func rootN(x float64, n int) float64 {
	if n <= 1 {
		return x
	}
	return math.Pow(x, 1/float64(n))
}
