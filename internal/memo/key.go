// Package memo implements the content-addressed design-point cache behind
// synthesis-as-a-service: a canonical, versioned content hash of a synthesis
// request — the communication graph plus the result-affecting options — and a
// two-tier (in-memory LRU + on-disk) store of the JSON-stable Result bytes,
// with single-flight deduplication of concurrent identical requests.
//
// The cache is sound because synthesis is deterministic: for equal
// (CommGraph, Options) inputs the engine produces byte-identical serialised
// Results regardless of parallelism, progress callbacks or the scheduler used
// (enforced since PR 2, property-tested since PR 5). The key therefore covers
// exactly the inputs the serialised Result depends on and deliberately
// excludes the execution knobs that are proven not to change it (Parallelism,
// Progress, Scheduler, Weight, and the simulator's StatsLevel switch and its
// Reference switch, which selects the equivalence-oracle engine).
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"sunfloor3d/internal/model"
	"sunfloor3d/internal/synth"
)

// Version tags the canonical encoding. It must be bumped whenever the
// encoding itself changes, a result-affecting field is added to the inputs,
// or the synthesis flow changes the bytes it produces for unchanged inputs
// (a golden-corpus diff): entries written under an old version must never be
// returned for a new one. The version string is hashed into every key, so a
// bump invalidates the whole store without touching it.
const Version = "sunfloor3d-memo/v4"

// executionKnobs classifies every field reachable from Key's parameters that
// the canonical encoder deliberately does NOT hash, keyed by its dotted path
// from the parameter root, with the proof obligation as the value: each entry
// must name a property (usually an existing test) showing the field cannot
// change the serialised Result bytes. The fingerprintcover analyzer in
// internal/determlint and TestOptionsFingerprintCoverage both enforce that
// this map plus the fields Key reads exactly tile the option surface — an
// option added without being hashed here or justified below fails the lint
// and the test, so it can never silently poison the content-addressed cache.
var executionKnobs = map[string]string{
	"Parallelism":    "worker count never changes Result bytes (serial==parallel property, PR 1; re-asserted by the PR 5 harness)",
	"Scheduler":      "a contended shared scheduler is byte-identical to a serial run (scheduler equivalence tests, PR 6)",
	"Weight":         "fair-share weight only reorders slot grants, which the pre-assigned point indices make result-neutral (PR 6)",
	"Progress":       "progress callbacks observe the sweep; results are assembled independently of callback presence or speed (PR 1)",
	"Sim.StatsLevel": "stats level only controls which per-resource rows are materialised; serialised Results exclude Sim stats entirely",
	"Sim.Reference":  "reference and production simulator engines produce byte-identical Stats (equivalence suite + FuzzSimDeterminism, PR 4)",
}

// Key returns the canonical content hash of a synthesis request as a
// lowercase hex string. Two requests receive the same key exactly when the
// engine is guaranteed to produce byte-identical serialised Results for them.
//
// The encoding walks every field in a fixed declaration order with explicit
// length framing (no map iteration, no reflection, no struct layout
// dependence) and normalises floats before hashing: negative zero hashes
// like positive zero, every other value hashes its exact IEEE-754 bit
// pattern. NaN and infinities never reach the hash — graph and option
// validation reject them first.
func Key(g *model.CommGraph, opt synth.Options) string {
	h := sha256.New()
	e := encoder{h: h}

	e.str(Version)

	// Section 1: the communication graph (Definitions 1 and 2).
	e.str("cores")
	e.i64(int64(len(g.Cores)))
	for _, c := range g.Cores {
		e.str(c.Name)
		e.f64(c.Width)
		e.f64(c.Height)
		e.f64(c.X)
		e.f64(c.Y)
		e.i64(int64(c.Layer))
		e.bool(c.IsMemory)
	}
	e.str("flows")
	e.i64(int64(len(g.Flows)))
	for _, f := range g.Flows {
		e.i64(int64(f.Src))
		e.i64(int64(f.Dst))
		e.f64(f.BandwidthMBps)
		e.f64(f.LatencyCycles)
		e.i64(int64(f.Type))
	}

	// Section 2: the result-affecting synthesis options.
	e.str("options")
	e.i64(int64(len(opt.FrequenciesMHz)))
	for _, f := range opt.FrequenciesMHz {
		e.f64(f)
	}
	e.i64(int64(opt.MaxILL))
	e.i64(int64(opt.SoftILLMargin))
	e.i64(int64(opt.Phase))
	e.f64(opt.Partition.Alpha)
	e.f64(opt.Partition.ThetaMin)
	e.f64(opt.Partition.ThetaMax)
	e.f64(opt.Partition.ThetaStep)
	e.f64(opt.Partition.IsolatedEdgeWeight)
	e.i64(int64(opt.SwitchLayer))
	e.f64(opt.PowerWeight)
	e.f64(opt.LatencyWeight)
	e.bool(opt.RunLPPlacement)
	e.bool(opt.LPOnBest)
	e.i64(int64(opt.MaxSwitchesPerLayer))
	e.bool(opt.RequireLatencyMet)

	// Section 3: the component library (power/delay/area models).
	e.str("library")
	e.i64(int64(opt.Lib.TechnologyNM))
	e.i64(int64(opt.Lib.LinkWidthBits))
	e.f64(opt.Lib.SwitchBasePowerMW)
	e.f64(opt.Lib.SwitchPortPowerMW)
	e.f64(opt.Lib.SwitchTrafficPowerMWPerGBps)
	e.f64(opt.Lib.SwitchBaseAreaMM2)
	e.f64(opt.Lib.SwitchPortAreaMM2)
	e.f64(opt.Lib.NIPowerMW)
	e.f64(opt.Lib.NIAreaMM2)
	e.f64(opt.Lib.ReferenceFreqMHz)
	e.f64(opt.Lib.WirePowerMWPerMMPerGBps)
	e.f64(opt.Lib.WireLeakagePowerMWPerMM)
	e.f64(opt.Lib.WireDelayPSPerMM)
	e.f64(opt.Lib.MaxUnrepeatedLinkMM)
	e.f64(opt.Lib.TSVDelayPS)
	e.f64(opt.Lib.TSVPowerMWPerGBps)
	e.f64(opt.Lib.TSVPitchUM)
	e.f64(opt.Lib.VerticalPitchMM)
	e.f64(opt.Lib.SwitchFreqK)
	e.f64(opt.Lib.SwitchFreqCapMHz)

	// Section 4: the simulation request. Simulation statistics are excluded
	// from the serialised Result, but a failed simulation invalidates the
	// point it ran on (Valid/FailReason are serialised), so the simulated
	// workload is part of the key. Reference and StatsLevel are execution
	// knobs with byte-identical outcomes and stay out.
	e.str("sim")
	e.bool(opt.Sim != nil)
	if opt.Sim != nil {
		s := opt.Sim
		e.i64(int64(s.Cycles))
		e.i64(int64(s.DrainCycles))
		e.i64(s.Seed)
		e.i64(int64(s.Profile))
		e.f64(s.InjectionScale)
		e.i64(int64(s.PacketFlits))
		e.i64(int64(s.VCs))
		e.i64(int64(s.BufferFlits))
		e.i64(int64(s.WatchdogCycles))
		e.i64(int64(s.LivelockCycles))
		e.f64(s.BurstFactor)
		e.f64(s.MeanBurstCycles)
		e.f64(s.HotspotFactor)
		e.i64(int64(len(s.DeadLinks)))
		for _, dl := range s.DeadLinks {
			e.i64(int64(dl[0]))
			e.i64(int64(dl[1]))
		}
		e.i64(int64(s.FaultCycle))
	}

	// Section 5: the exploration space. The axes define the enumerated
	// points and NoPrune switches between stubbed and fully evaluated
	// dominated regions, so both shape the serialised Result. The
	// checkpoint/shard hooks are execution plumbing (a resumed or merged run
	// is byte-identical to an uninterrupted one) and stay out, which is also
	// what lets every shard of one exploration share one fingerprint.
	e.str("space")
	e.bool(opt.Space != nil)
	if opt.Space != nil {
		s := opt.Space
		e.bool(s.NoPrune)
		e.i64(int64(len(s.Axes)))
		for _, a := range s.Axes {
			e.str(a.Name)
			e.i64(int64(len(a.Values)))
			for _, v := range a.Values {
				e.f64(v)
			}
		}
	}

	// Section 6: the fault model. Sparing changes the spare provisioning
	// stamped into the serialised metrics and which faults the replay
	// absorbs; the fault model's plan count, seed and fault cycle shape the
	// survivability report attached to every valid point. All of it reaches
	// the serialised Result, so all of it is keyed.
	e.str("fault")
	e.bool(opt.Sparing != nil)
	if opt.Sparing != nil {
		s := opt.Sparing
		e.str(s.Process.Name)
		e.f64(s.Process.BaseYield)
		e.f64(s.Process.TSVFailureRate)
		e.i64(int64(s.Process.KneeTSVs))
		e.f64(s.TargetYield)
	}
	e.bool(opt.Fault != nil)
	if opt.Fault != nil {
		s := opt.Fault
		e.i64(int64(s.Plans))
		e.i64(int64(s.FaultsPerPlan))
		e.i64(s.Seed)
		e.i64(int64(s.ExhaustiveMax))
		e.i64(int64(s.FaultCycle))
	}

	// Section 7: the fidelity ladder. Contend adds the serialised contention
	// estimate to every valid point, and SimBand decides which points carry
	// simulation-backed validity and the serialised sim_triage marker, so a
	// triaged run must never alias a full-sim (or estimate-free) run of the
	// same request — the v4 bump plus this section guarantees it.
	e.str("contend")
	e.bool(opt.Contend)
	e.f64(opt.SimBand)

	return hex.EncodeToString(h.Sum(nil))
}

// encoder writes length-framed primitives into a hash. Every string is
// prefixed with its byte length so that adjacent fields can never alias
// ("ab"+"c" vs "a"+"bc"), and all integers are fixed-width little endian.
type encoder struct {
	h   hash.Hash
	buf [8]byte
}

func (e *encoder) i64(v int64) {
	binary.LittleEndian.PutUint64(e.buf[:], uint64(v))
	e.h.Write(e.buf[:])
}

// f64 hashes the IEEE-754 bit pattern of v with negative zero normalised to
// positive zero, so the two representations of zero — which compare equal and
// behave identically throughout the flow — share a key.
func (e *encoder) f64(v float64) {
	if v == 0 {
		v = 0
	}
	binary.LittleEndian.PutUint64(e.buf[:], math.Float64bits(v))
	e.h.Write(e.buf[:])
}

func (e *encoder) bool(v bool) {
	if v {
		e.i64(1)
	} else {
		e.i64(0)
	}
}

func (e *encoder) str(s string) {
	e.i64(int64(len(s)))
	e.h.Write([]byte(s))
}
