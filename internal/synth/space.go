package synth

import (
	"fmt"
	"math"
)

// Axis names understood by the explorer. Every axis of a Space must use one
// of these.
const (
	// AxisFreqMHz sweeps the NoC operating frequency. When present it
	// replaces Options.FrequenciesMHz as the frequency dimension.
	AxisFreqMHz = "freq_mhz"
	// AxisSwitchCount restricts the Phase-1 switch-count sweep to the listed
	// counts instead of the full 1..NumCores range. Incompatible with
	// Phase2Only, whose enumeration is extras-per-layer rather than a switch
	// count.
	AxisSwitchCount = "switch_count"
	// AxisVCs sweeps the number of simulator virtual channels. Requires
	// Options.Sim.
	AxisVCs = "vcs"
	// AxisLinkWidthBits sweeps the link width of the component library
	// (which feeds the TSV macro area model and the simulator's flit width).
	AxisLinkWidthBits = "link_width_bits"
	// AxisLayerCount sweeps the number of stacked layers the design is
	// folded onto: each value L re-assigns every core to layer (original
	// layer mod L) before synthesis, so one exploration compares 3-D
	// stacking depths (L = 1 is the flattened 2-D baseline). Planar core
	// positions are kept as-is.
	AxisLayerCount = "layer_count"
	// AxisTSVBudget sweeps a hard cap on the TSV macro count: a design
	// point needing more TSV macros than the budget is invalid. Distinct
	// budgets genuinely re-evaluate (validity differs), unlike the
	// vcs/link-width duplicates.
	AxisTSVBudget = "tsv_budget"
)

// Axis is one dimension of an exploration Space: a named parameter and the
// ordered list of values to sweep. Values are declared as float64 for
// uniformity; integer axes (switch counts, VCs, link widths) must hold
// integral values.
type Axis struct {
	// Name is one of the Axis* constants.
	Name string `json:"name"`
	// Values lists the axis values in sweep order.
	Values []float64 `json:"values"`
}

// Space is an N-dimensional design space for the explorer: the cross product
// of its axes. Every run explores a space: without Options.Space,
// SynthesizeContext explores {NoPrune: true}, whose cells are the
// frequencies of Options.FrequenciesMHz, which is the classic sweep.
//
// The cross product is enumerated in a deterministic order — frequency
// outermost, then layer count, then TSV budget, then VC count, then link
// width, each in declared value order, with the switch-count sweep innermost
// — so Result.Points is byte-identical across runs, parallelism levels,
// shards and resumes.
//
// Unless NoPrune is set, the explorer prunes provably dominated regions
// before partitioning and routing: (vcs, link width) cells beyond the first
// combination of each frequency are whole-cell duplicates of that
// frequency's probe cell in every result-affecting metric (power, latency
// and validity do not depend on VC count or link width; only the
// area-in-JSON differs through the TSV macro model, which never enters the
// objective or the front), and switch counts whose analytic power lower
// bound is dominated by an already-explored point at the latency floor are
// skipped via branch and bound. Pruned points appear in Result.Points as
// stubs with Pruned set and a FailReason naming the decision, so progress
// consumers see every pruning decision. Pruning is exact: the Pareto front
// and the best point of a pruned run are byte-identical to a NoPrune run of
// the same space.
//
// The JSON form, which sunfloor-server decodes from the "space" field of a
// request, is {"axes":[{"name":"freq_mhz","values":[400,600]}],
// "no_prune":true}.
type Space struct {
	// Axes lists the dimensions. Order matters only among values of one
	// axis; the nesting order of the enumeration is fixed (see above).
	Axes []Axis `json:"axes"`
	// NoPrune disables duplicate-cell and branch-and-bound pruning and
	// evaluates every point exhaustively (the brute-force reference mode).
	NoPrune bool `json:"no_prune,omitempty"`
}

// axis returns the named axis, or nil when the space does not sweep it.
func (s *Space) axis(name string) *Axis {
	for i := range s.Axes {
		if s.Axes[i].Name == name {
			return &s.Axes[i]
		}
	}
	return nil
}

// intValues returns the named axis's values as ints (nil when absent).
// Validate has already checked integrality.
func (s *Space) intValues(name string) []int {
	a := s.axis(name)
	if a == nil {
		return nil
	}
	out := make([]int, len(a.Values))
	for i, v := range a.Values {
		out[i] = int(v)
	}
	return out
}

// validate checks the space against the options it will explore with.
func (s *Space) validate(o Options) error {
	if len(s.Axes) == 0 {
		return fmt.Errorf("synth: space has no axes")
	}
	seen := map[string]bool{}
	for _, a := range s.Axes {
		switch a.Name {
		case AxisFreqMHz, AxisSwitchCount, AxisVCs, AxisLinkWidthBits, AxisLayerCount, AxisTSVBudget:
		default:
			return fmt.Errorf("synth: unknown axis %q (valid: %s, %s, %s, %s, %s, %s)",
				a.Name, AxisFreqMHz, AxisSwitchCount, AxisVCs, AxisLinkWidthBits, AxisLayerCount, AxisTSVBudget)
		}
		if seen[a.Name] {
			return fmt.Errorf("synth: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("synth: axis %q has no values", a.Name)
		}
		vals := map[float64]bool{}
		for _, v := range a.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("synth: axis %q has non-positive value %g", a.Name, v)
			}
			if a.Name != AxisFreqMHz && v != math.Trunc(v) {
				return fmt.Errorf("synth: axis %q requires integral values, got %g", a.Name, v)
			}
			// A huge integral value converts to an arbitrary int (1e300
			// becomes math.MinInt64 on amd64), which the partitioner would
			// then be asked for as a switch count. MaxInt32 is far above any
			// real count and fits an int on every platform.
			if a.Name != AxisFreqMHz && v > math.MaxInt32 {
				return fmt.Errorf("synth: axis %q value %g exceeds %d", a.Name, v, math.MaxInt32)
			}
			if vals[v] {
				return fmt.Errorf("synth: axis %q lists value %g twice", a.Name, v)
			}
			vals[v] = true
		}
	}
	if s.axis(AxisSwitchCount) != nil && o.Phase == Phase2Only {
		return fmt.Errorf("synth: axis %q is incompatible with Phase2Only (Phase 2 sweeps extra switches per layer, not a switch count)", AxisSwitchCount)
	}
	if a := s.axis(AxisVCs); a != nil {
		if o.Sim == nil {
			return fmt.Errorf("synth: axis %q requires simulation (Options.Sim)", AxisVCs)
		}
		for _, v := range a.Values {
			cfg := *o.Sim
			cfg.VCs = int(v)
			if err := cfg.Validate(); err != nil {
				return fmt.Errorf("synth: axis %q value %g: %w", AxisVCs, v, err)
			}
		}
	}
	if a := s.axis(AxisLinkWidthBits); a != nil {
		for _, v := range a.Values {
			lib := o.Lib
			lib.LinkWidthBits = int(v)
			if err := lib.Validate(); err != nil {
				return fmt.Errorf("synth: axis %q value %g: %w", AxisLinkWidthBits, v, err)
			}
		}
	}
	return nil
}

// cellSpec identifies one cell of the exploration: a fixed (frequency, layer
// count, TSV budget, VC count, link width) combination whose interior is the
// switch-count sweep.
type cellSpec struct {
	// index is the cell's position in the deterministic enumeration.
	index int
	// freqIdx and freq identify the frequency.
	freqIdx int
	freq    float64
	// lcIdx and lc identify the layer-count fold (lc 0 when the space has no
	// layer_count axis: the design's own layering). lcIdx always indexes the
	// explorer's graph-variant table, including the no-axis case.
	lcIdx int
	lc    int
	// tsv is the TSV macro budget (0 when the space has no tsv_budget axis).
	tsv int
	// group numbers the (frequency, layer count, TSV budget) combination the
	// cell belongs to. Cells of one group differ only in (vcs, lw), which
	// changes no result-affecting metric, so the group is the unit of
	// duplicate-cell pruning.
	group int
	// vcs is the simulator VC count (0 when the space has no vcs axis).
	vcs int
	// lw is the link width in bits (0 when the space has no link-width axis).
	lw int
	// probe marks the first (vcs, lw) combination of its group: the cell
	// that is evaluated for real and that duplicate cells are pruned against.
	probe bool
}

// cells enumerates the space's cells in deterministic order: frequency
// outermost, then layer count, then TSV budget, then VC count, then link
// width.
func (s *Space) cells(opt Options) []cellSpec {
	freqs := opt.FrequenciesMHz
	if a := s.axis(AxisFreqMHz); a != nil {
		freqs = a.Values
	}
	lcVals := []int{0}
	if lv := s.intValues(AxisLayerCount); lv != nil {
		lcVals = lv
	}
	tsvVals := []int{0}
	if tv := s.intValues(AxisTSVBudget); tv != nil {
		tsvVals = tv
	}
	vcsVals := []int{0}
	if vv := s.intValues(AxisVCs); vv != nil {
		vcsVals = vv
	}
	lwVals := []int{0}
	if lv := s.intValues(AxisLinkWidthBits); lv != nil {
		lwVals = lv
	}
	var out []cellSpec
	group := 0
	for fi, f := range freqs {
		for lci, lc := range lcVals {
			for _, tsv := range tsvVals {
				for vi, vcs := range vcsVals {
					for li, lw := range lwVals {
						out = append(out, cellSpec{
							index:   len(out),
							freqIdx: fi,
							freq:    f,
							lcIdx:   lci,
							lc:      lc,
							tsv:     tsv,
							group:   group,
							vcs:     vcs,
							lw:      lw,
							probe:   vi == 0 && li == 0,
						})
					}
				}
				group++
			}
		}
	}
	return out
}

// NumCells returns the number of (frequency, layer count, TSV budget, vcs,
// link width) cells the space enumerates with the given options. Cell indices — the unit of
// checkpointing and sharding — run from 0 to NumCells-1 in deterministic
// order.
func (s *Space) NumCells(opt Options) int { return len(s.cells(opt)) }

// ExplorationHooks let a caller own, restore and persist exploration cells,
// which is how the facade implements checkpoint/resume and sharding. All
// hooks receive the cell index of the deterministic enumeration. A nil hook
// means: own every cell, never restore, discard nothing.
type ExplorationHooks struct {
	// Own reports whether this process should evaluate the cell. Unowned
	// cells that Restore cannot supply are filled with skipped stubs, which
	// is what makes shard results disjoint and exactly mergeable.
	Own func(cell int) bool
	// Restore returns the previously persisted points of a cell, if any.
	// Restored cells are not re-evaluated and not re-passed to Done.
	Restore func(cell int) ([]DesignPoint, bool)
	// Done receives the points of every cell this run evaluated, in
	// completion order, exactly once per cell and never concurrently. A
	// non-nil error fails the exploration immediately: a hook that cannot
	// persist a cell must stop the run rather than let it continue against
	// silently stale state.
	Done func(cell int, points []DesignPoint) error
}

// SetExplorationHooks installs the checkpoint/shard hooks on the options.
// The hooks are execution plumbing: they must not change what any evaluated
// cell contains (Restore must return exactly what Done persisted), and they
// are excluded from the cache fingerprint like Progress and Parallelism.
func (o *Options) SetExplorationHooks(h ExplorationHooks) { o.explore = h }
