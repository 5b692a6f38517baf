package sim

import (
	"math"
	"math/rand"

	"sunfloor3d/internal/topology"
)

// injector decides, cycle by cycle, how many packets each flow injects. All
// injectors are deterministic for a fixed seed and iterate flows in index
// order, so the source-queue contents (and hence the whole simulation) are
// reproducible. The same injector instances drive both the optimized and the
// reference engine, which is one half of the byte-identical-Stats contract.
type injector interface {
	// poll advances the injector by one cycle and reports every flow that
	// injects packets this cycle via emit(flow, n), in flow index order.
	poll(now int64, emit func(flow, n int))
	// done reports that the injector will never emit another packet (used by
	// the single-packet oracle to terminate early).
	done() bool
	// nextEventAt reports the earliest cycle >= now at which the injector
	// might emit a packet, advancing its internal state over the skipped
	// quiet cycles [now, returned). Returning now means "cannot skip"; the
	// caller must then poll normally. Implementations may only skip
	// stretches they can advance bit-identically to per-cycle polling — the
	// bursty profile's integer off-period countdowns qualify, floating-point
	// rate accumulators do not.
	nextEventAt(now int64) int64
}

// flowRates returns the per-flow injection rate in flits per cycle, derived
// from the flow bandwidths, the link width and the operating frequency. A
// link carries one flit of LinkWidthBits per cycle, so its capacity in MB/s is
// bytesPerFlit * freqMHz; rates are capped at 1 flit/cycle (link saturation).
func flowRates(t *topology.Topology, scale float64) []float64 {
	bytesPerFlit := float64(t.Lib.LinkWidthBits) / 8
	capMBps := bytesPerFlit * t.FreqMHz
	rates := make([]float64, t.Design.NumFlows())
	for i, f := range t.Design.Flows {
		r := 0.0
		if capMBps > 0 {
			r = f.BandwidthMBps * scale / capMBps
		}
		if r > 1 {
			r = 1
		}
		rates[i] = r
	}
	return rates
}

// rateInjector injects packets with a deterministic per-flow rate accumulator:
// every cycle the flow earns rate/PacketFlits packet credits and injects one
// packet per whole credit. It implements both the uniform profile and (with
// per-flow scaled rates) the hotspot profile without consuming randomness.
type rateInjector struct {
	perFlow []float64 // packet injections per cycle
	credit  []float64
	anyRate bool
}

func newRateInjector(rates []float64, packetFlits int) *rateInjector {
	per := make([]float64, len(rates))
	any := false
	for i, r := range rates {
		per[i] = r / float64(packetFlits)
		if per[i] > 0 {
			any = true
		}
	}
	return &rateInjector{perFlow: per, credit: make([]float64, len(rates)), anyRate: any}
}

func (r *rateInjector) poll(now int64, emit func(flow, n int)) {
	per, credit := r.perFlow, r.credit
	for f := range per {
		c := credit[f] + per[f]
		if c >= 1 {
			n := 0
			for c >= 1 {
				c -= 1
				n++
			}
			emit(f, n)
		}
		credit[f] = c
	}
}

func (r *rateInjector) done() bool { return false }

// nextEventAt cannot skip quiet cycles: the credit accumulators advance by
// floating-point addition every cycle, and a batched multiply-add would not
// reproduce the per-cycle rounding. With no injecting flow at all the
// injector is quiet forever.
func (r *rateInjector) nextEventAt(now int64) int64 {
	if r.anyRate {
		return now
	}
	return math.MaxInt64
}

// hotspotRates scales the rate of every flow whose destination is the core
// with the highest total incoming bandwidth (lowest index on ties).
func hotspotRates(t *topology.Topology, rates []float64, factor float64) []float64 {
	in := make([]float64, t.Design.NumCores())
	for _, f := range t.Design.Flows {
		in[f.Dst] += f.BandwidthMBps
	}
	hot, hotBW := -1, 0.0
	for c, bw := range in {
		if bw > hotBW {
			hot, hotBW = c, bw
		}
	}
	out := append([]float64(nil), rates...)
	for i, f := range t.Design.Flows {
		if f.Dst == hot {
			out[i] *= factor
			if out[i] > 1 {
				out[i] = 1
			}
		}
	}
	return out
}

// burstInjector alternates exponentially distributed on/off periods per flow.
// During an on period the flow injects at burst rate; the off period length is
// chosen so the long-run average matches the nominal rate.
type burstInjector struct {
	rng     *rand.Rand
	on      []bool
	left    []int64   // cycles left in the current period
	onRate  []float64 // packet injections per cycle while on
	onMean  []float64
	offMean []float64
	credit  []float64
}

func newBurstInjector(rates []float64, cfg Config) *burstInjector {
	n := len(rates)
	b := &burstInjector{
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		on:      make([]bool, n),
		left:    make([]int64, n),
		onRate:  make([]float64, n),
		onMean:  make([]float64, n),
		offMean: make([]float64, n),
		credit:  make([]float64, n),
	}
	for i, r := range rates {
		if r <= 0 {
			continue
		}
		rOn := r * cfg.BurstFactor
		if rOn > 1 {
			rOn = 1
		}
		if rOn <= r {
			// No burst headroom (the nominal rate already saturates the link,
			// or BurstFactor is 1): the flow streams permanently at its
			// nominal rate, otherwise the forced >=1-cycle off periods would
			// shave the long-run average below the communication graph.
			b.onRate[i] = r / float64(cfg.PacketFlits)
			b.on[i] = true
			b.left[i] = math.MaxInt64
			continue
		}
		b.onRate[i] = rOn / float64(cfg.PacketFlits)
		b.onMean[i] = cfg.MeanBurstCycles
		// Solve mean_off from r = rOn * on/(on+off).
		b.offMean[i] = cfg.MeanBurstCycles * (rOn - r) / r
		// Start in an off period of random phase so flows do not burst in
		// lockstep.
		b.on[i] = false
		b.left[i] = b.draw(b.offMean[i])
	}
	return b
}

// maxPeriod caps a drawn on/off period. A huge finite mean (or an off mean
// that overflows to +Inf) gives a product out of int64's range, and Go leaves
// the conversion of such a value to the platform (MinInt64 on amd64, a
// saturated value on arm64), so the same Config would give different Stats
// on different CPUs. The cap is far below MaxInt64, so now+left cannot
// overflow in nextEventAt, and far beyond any horizon a run can simulate.
const maxPeriod = int64(1) << 53

// draw samples an exponentially distributed period of the given mean, at
// least one cycle and at most maxPeriod.
func (b *burstInjector) draw(mean float64) int64 {
	if mean <= 0 {
		return 1
	}
	x := b.rng.ExpFloat64() * mean
	if !(x < float64(maxPeriod)) {
		return maxPeriod
	}
	v := int64(x)
	if v < 1 {
		v = 1
	}
	return v
}

func (b *burstInjector) poll(now int64, emit func(flow, n int)) {
	for f := range b.onRate {
		if b.onRate[f] == 0 {
			continue
		}
		if b.left[f] == 0 {
			b.on[f] = !b.on[f]
			if b.on[f] {
				b.left[f] = b.draw(b.onMean[f])
			} else {
				b.left[f] = b.draw(b.offMean[f])
			}
		}
		b.left[f]--
		if !b.on[f] {
			continue
		}
		b.credit[f] += b.onRate[f]
		if b.credit[f] >= 1 {
			n := 0
			for b.credit[f] >= 1 {
				b.credit[f] -= 1
				n++
			}
			emit(f, n)
		}
	}
}

func (b *burstInjector) done() bool { return false }

// nextEventAt fast-forwards over all-off stretches: while every bursting
// flow sits in an off period, a poll only decrements the integer countdowns,
// so batching k decrements is bit-identical to k polls (the RNG and the
// credit accumulators are untouched until a flow turns on). The skip ends at
// the first cycle a countdown reaches its flip.
func (b *burstInjector) nextEventAt(now int64) int64 {
	k := int64(math.MaxInt64)
	any := false
	for f := range b.onRate {
		if b.onRate[f] == 0 {
			continue
		}
		if b.on[f] {
			return now // a flow is bursting (or streams permanently)
		}
		any = true
		if b.left[f] < k {
			k = b.left[f]
		}
	}
	if !any {
		return math.MaxInt64 // no flow ever injects
	}
	if k < 1 {
		return now // a flow flips on at the very next poll
	}
	for f := range b.onRate {
		if b.onRate[f] != 0 {
			b.left[f] -= k
		}
	}
	return now + k
}

// singlePacketInjector injects exactly one packet for one flow at cycle 0.
// It is the zero-contention oracle used to cross-validate FlowLatencyCycles.
type singlePacketInjector struct {
	flow int
	sent bool
}

func (s *singlePacketInjector) poll(now int64, emit func(flow, n int)) {
	if !s.sent {
		s.sent = true
		emit(s.flow, 1)
	}
}

func (s *singlePacketInjector) done() bool { return s.sent }

func (s *singlePacketInjector) nextEventAt(now int64) int64 { return now }

// newProfileInjector builds the injector for the configured profile.
func newProfileInjector(t *topology.Topology, cfg Config) injector {
	rates := flowRates(t, cfg.InjectionScale)
	switch cfg.Profile {
	case Bursty:
		return newBurstInjector(rates, cfg)
	case Hotspot:
		return newRateInjector(hotspotRates(t, rates, cfg.HotspotFactor), cfg.PacketFlits)
	default:
		return newRateInjector(rates, cfg.PacketFlits)
	}
}
