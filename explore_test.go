package sunfloor3d_test

// Tests of the N-dimensional design-space explorer: exactness of pruning
// against brute force, serial/parallel equivalence, checkpoint resume,
// shard merging, and option validation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sunfloor3d"
)

func exploreSpace3() sunfloor3d.Space {
	return sunfloor3d.Space{Axes: []sunfloor3d.Axis{
		{Name: sunfloor3d.AxisFreqMHz, Values: []float64{400, 600}},
		{Name: sunfloor3d.AxisLinkWidthBits, Values: []float64{16, 32, 64}},
		{Name: sunfloor3d.AxisSwitchCount, Values: []float64{1, 2, 3, 4, 6, 8}},
	}}
}

func stable(t *testing.T, r *sunfloor3d.Result) []byte {
	t.Helper()
	b, err := r.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// points wraps a point slice in a Result so it can be serialised with
// MarshalStable for byte comparison.
func points(t *testing.T, pts []sunfloor3d.DesignPoint) []byte {
	t.Helper()
	return stable(t, &sunfloor3d.Result{Points: pts, BestIndex: -1})
}

// TestExplorerExactAgainstBruteForce is the core acceptance check: the
// pruned explorer's Pareto front and best point are byte-identical to the
// brute-force (NoPrune) enumeration of the same space, while at least one
// point was actually pruned. It runs the 3-axis space on the hand-written
// API design and a 3 x 12 x 12 frequency x link width x switch count space
// on the paper's D_26_media.
func TestExplorerExactAgainstBruteForce(t *testing.T) {
	media, err := sunfloor3d.BenchmarkByName("D_26_media", 1)
	if err != nil {
		t.Fatal(err)
	}
	mediaSpace := sunfloor3d.Space{Axes: []sunfloor3d.Axis{
		{Name: sunfloor3d.AxisFreqMHz, Values: []float64{400, 600, 800}},
		{Name: sunfloor3d.AxisLinkWidthBits, Values: []float64{8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}},
		{Name: sunfloor3d.AxisSwitchCount, Values: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
	}}
	t.Run("api_design", func(t *testing.T) { checkExplorerExact(t, apiDesign(t), exploreSpace3()) })
	t.Run("D_26_media", func(t *testing.T) { checkExplorerExact(t, media.Graph3D, mediaSpace) })
}

func checkExplorerExact(t *testing.T, d *sunfloor3d.Design, sp sunfloor3d.Space) {
	ctx := context.Background()

	pruned, err := sunfloor3d.Synthesize(ctx, d,
		sunfloor3d.WithSpace(sp), sunfloor3d.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	brute := sp
	brute.NoPrune = true
	exhaustive, err := sunfloor3d.Synthesize(ctx, d,
		sunfloor3d.WithSpace(brute), sunfloor3d.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}

	if len(pruned.Points) != len(exhaustive.Points) {
		t.Fatalf("point counts differ: pruned %d, brute %d", len(pruned.Points), len(exhaustive.Points))
	}
	nPruned := 0
	for _, p := range pruned.Points {
		if p.Pruned {
			nPruned++
		}
	}
	if nPruned == 0 {
		t.Fatal("no point was pruned on a 3-axis space with duplicate cells")
	}
	if len(exhaustive.ParetoFront()) == 0 {
		t.Fatal("brute force found no valid point: nothing to compare")
	}

	if pf, bf := points(t, pruned.ParetoFront()), points(t, exhaustive.ParetoFront()); !bytes.Equal(pf, bf) {
		t.Errorf("Pareto fronts differ:\npruned: %s\nbrute:  %s", pf, bf)
	}
	pb, bb := pruned.Best(), exhaustive.Best()
	if (pb == nil) != (bb == nil) {
		t.Fatalf("best presence differs: pruned %v, brute %v", pb != nil, bb != nil)
	}
	if pb != nil {
		pjb := points(t, []sunfloor3d.DesignPoint{*pb})
		bjb := points(t, []sunfloor3d.DesignPoint{*bb})
		if !bytes.Equal(pjb, bjb) {
			t.Errorf("best points differ:\npruned: %s\nbrute:  %s", pjb, bjb)
		}
	}
}

// TestExplorerSerialParallelIdentical extends the engine's core determinism
// contract to explorer runs.
func TestExplorerSerialParallelIdentical(t *testing.T) {
	d := apiDesign(t)
	ctx := context.Background()
	sp := exploreSpace3()
	serial, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(sp))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sunfloor3d.Synthesize(ctx, d,
		sunfloor3d.WithSpace(sp), sunfloor3d.WithParallelism(-1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stable(t, serial), stable(t, parallel)) {
		t.Error("serial and parallel explorer runs differ")
	}
}

// TestClassicSweepIsOneAxisExploration: a classic frequency sweep is the
// exploration of a one-axis (freq_mhz) space with pruning off. LP placement
// on every point keeps the classic sweep from refining its best point and no
// sim band is requested, so neither whole-run step applies; the two runs
// must then serialise to the same bytes at every parallelism and report the
// same serial progress stream.
func TestClassicSweepIsOneAxisExploration(t *testing.T) {
	media, err := sunfloor3d.BenchmarkByName("D_26_media", 1)
	if err != nil {
		t.Fatal(err)
	}
	freqs := []float64{400, 600, 800}
	space := sunfloor3d.Space{NoPrune: true, Axes: []sunfloor3d.Axis{{Name: sunfloor3d.AxisFreqMHz, Values: freqs}}}
	type event struct {
		done, total, switches int
		freq                  float64
		valid                 bool
	}
	run := func(t *testing.T, d *sunfloor3d.Design, parallelism int, opts ...sunfloor3d.Option) ([]byte, []event) {
		t.Helper()
		var events []event
		opts = append(append([]sunfloor3d.Option(nil), opts...), sunfloor3d.WithParallelism(parallelism), sunfloor3d.WithProgress(func(ev sunfloor3d.Event) {
			events = append(events, event{ev.Done, ev.Total, ev.Point.SwitchCount, ev.Point.FreqMHz, ev.Point.Valid})
		}))
		res, err := sunfloor3d.Synthesize(context.Background(), d, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return stable(t, res), events
	}
	designs := []struct {
		name string
		d    *sunfloor3d.Design
	}{{"api_design", apiDesign(t)}, {"D_26_media", media.Graph3D}}
	variants := []struct {
		name string
		opts []sunfloor3d.Option
	}{
		{"auto", nil},
		{"contention_phase1", []sunfloor3d.Option{sunfloor3d.WithContention(), sunfloor3d.WithPhase(sunfloor3d.Phase1Only)}},
	}
	for _, dc := range designs {
		for _, v := range variants {
			t.Run(dc.name+"/"+v.name, func(t *testing.T) {
				base := append([]sunfloor3d.Option{sunfloor3d.WithLPPlacement(true)}, v.opts...)
				classic := append(append([]sunfloor3d.Option(nil), base...), sunfloor3d.WithFrequenciesMHz(freqs...))
				explore := append(append([]sunfloor3d.Option(nil), base...), sunfloor3d.WithSpace(space))
				for _, par := range []int{1, 4} {
					cb, cev := run(t, dc.d, par, classic...)
					eb, eev := run(t, dc.d, par, explore...)
					if !bytes.Equal(cb, eb) {
						t.Errorf("parallelism %d: classic sweep and one-axis exploration serialise differently", par)
					}
					if par == 1 && !reflect.DeepEqual(cev, eev) {
						t.Errorf("serial progress streams differ:\nclassic: %v\nexplore: %v", cev, eev)
					}
				}
			})
		}
	}
}

// TestExplorerProgressReportsPruning checks that every point — evaluated or
// pruned — reaches the progress stream, with pruning decisions visible.
func TestExplorerProgressReportsPruning(t *testing.T) {
	d := apiDesign(t)
	var events, prunedEvents int
	_, err := sunfloor3d.Synthesize(context.Background(), d,
		sunfloor3d.WithSpace(exploreSpace3()),
		sunfloor3d.WithProgress(func(ev sunfloor3d.Event) {
			events++
			if ev.Point.Pruned {
				prunedEvents++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 3 * 6 // freq x link width x switch counts
	if events < want {
		t.Errorf("progress events = %d, want at least %d", events, want)
	}
	if prunedEvents == 0 {
		t.Error("no pruned point reached the progress stream")
	}
}

// TestExplorerCheckpointResume interrupts an exploration mid-run and resumes
// it from the checkpoint, asserting the resumed result is byte-identical to
// an uninterrupted run.
func TestExplorerCheckpointResume(t *testing.T) {
	d := apiDesign(t)
	ctx := context.Background()
	sp := exploreSpace3()
	ckpt := filepath.Join(t.TempDir(), "explore.ckpt")

	baseline, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(sp))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt after the first few points.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := 0
	_, err = sunfloor3d.Synthesize(cctx, d,
		sunfloor3d.WithSpace(sp),
		sunfloor3d.WithCheckpoint(ckpt),
		sunfloor3d.WithProgress(func(sunfloor3d.Event) {
			n++
			if n == 4 {
				cancel()
			}
		}))
	if err == nil {
		t.Log("run finished before the cancellation took effect; resume still exercises restore")
	}

	if _, err := os.Stat(ckpt); err != nil {
		t.Skipf("no checkpoint written before cancellation: %v", err)
	}

	resumed, err := sunfloor3d.Synthesize(ctx, d,
		sunfloor3d.WithSpace(sp), sunfloor3d.WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stable(t, baseline), stable(t, resumed)) {
		t.Error("resumed run differs from uninterrupted run")
	}

	// A third run restores every cell from the checkpoint.
	restored, err := sunfloor3d.Synthesize(ctx, d,
		sunfloor3d.WithSpace(sp), sunfloor3d.WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stable(t, baseline), stable(t, restored)) {
		t.Error("fully restored run differs from uninterrupted run")
	}
}

// TestExplorerShardMerge runs a space in n shards with per-shard
// checkpoints, concatenates the checkpoint files, and asserts the merged
// restore equals the unsharded run byte for byte.
func TestExplorerShardMerge(t *testing.T) {
	d := apiDesign(t)
	ctx := context.Background()
	sp := exploreSpace3()
	dir := t.TempDir()

	unsharded, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(sp))
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	var merged []byte
	for i := 0; i < shards; i++ {
		ckpt := filepath.Join(dir, fmt.Sprintf("shard%d.ckpt", i))
		if _, err := sunfloor3d.Synthesize(ctx, d,
			sunfloor3d.WithSpace(sp),
			sunfloor3d.WithShard(i, shards),
			sunfloor3d.WithCheckpoint(ckpt)); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatalf("shard %d checkpoint: %v", i, err)
		}
		merged = append(merged, data...)
	}
	mergedPath := filepath.Join(dir, "merged.ckpt")
	if err := os.WriteFile(mergedPath, merged, 0o644); err != nil {
		t.Fatal(err)
	}
	mergedRes, err := sunfloor3d.Synthesize(ctx, d,
		sunfloor3d.WithSpace(sp), sunfloor3d.WithCheckpoint(mergedPath))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stable(t, unsharded), stable(t, mergedRes)) {
		t.Error("merged sharded result differs from unsharded run")
	}
}

// TestExplorerOptionValidation covers the cross-option constraints.
func TestExplorerOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []sunfloor3d.Option
	}{
		{"unknown axis", []sunfloor3d.Option{sunfloor3d.WithSpace(sunfloor3d.Space{
			Axes: []sunfloor3d.Axis{{Name: "voltage", Values: []float64{1}}}})}},
		{"empty axis", []sunfloor3d.Option{sunfloor3d.WithSpace(sunfloor3d.Space{
			Axes: []sunfloor3d.Axis{{Name: sunfloor3d.AxisFreqMHz}}})}},
		{"no axes", []sunfloor3d.Option{sunfloor3d.WithSpace(sunfloor3d.Space{})}},
		{"duplicate axis", []sunfloor3d.Option{sunfloor3d.WithSpace(sunfloor3d.Space{
			Axes: []sunfloor3d.Axis{
				{Name: sunfloor3d.AxisFreqMHz, Values: []float64{400}},
				{Name: sunfloor3d.AxisFreqMHz, Values: []float64{600}}}})}},
		{"duplicate value", []sunfloor3d.Option{sunfloor3d.WithSpace(sunfloor3d.Space{
			Axes: []sunfloor3d.Axis{{Name: sunfloor3d.AxisFreqMHz, Values: []float64{400, 400}}}})}},
		{"fractional switch count", []sunfloor3d.Option{sunfloor3d.WithSpace(sunfloor3d.Space{
			Axes: []sunfloor3d.Axis{{Name: sunfloor3d.AxisSwitchCount, Values: []float64{1.5}}}})}},
		{"vcs without sim", []sunfloor3d.Option{sunfloor3d.WithSpace(sunfloor3d.Space{
			Axes: []sunfloor3d.Axis{{Name: sunfloor3d.AxisVCs, Values: []float64{2}}}})}},
		{"switch count with phase2", []sunfloor3d.Option{
			sunfloor3d.WithPhase(sunfloor3d.Phase2Only),
			sunfloor3d.WithSpace(sunfloor3d.Space{
				Axes: []sunfloor3d.Axis{{Name: sunfloor3d.AxisSwitchCount, Values: []float64{2}}}})}},
		{"fractional layer count", []sunfloor3d.Option{sunfloor3d.WithSpace(sunfloor3d.Space{
			Axes: []sunfloor3d.Axis{{Name: sunfloor3d.AxisLayerCount, Values: []float64{1.5}}}})}},
		{"fractional tsv budget", []sunfloor3d.Option{sunfloor3d.WithSpace(sunfloor3d.Space{
			Axes: []sunfloor3d.Axis{{Name: sunfloor3d.AxisTSVBudget, Values: []float64{7.5}}}})}},
		{"sim band without simulation", []sunfloor3d.Option{
			sunfloor3d.WithContention(), sunfloor3d.WithSimBand(0.2)}},
		{"sim band without contention", []sunfloor3d.Option{
			sunfloor3d.WithSimulation(sunfloor3d.DefaultSimConfig()), sunfloor3d.WithSimBand(0.2)}},
		{"negative sim band", []sunfloor3d.Option{
			sunfloor3d.WithContention(),
			sunfloor3d.WithSimulation(sunfloor3d.DefaultSimConfig()),
			sunfloor3d.WithSimBand(-0.1)}},
		{"NaN sim band", []sunfloor3d.Option{
			sunfloor3d.WithContention(),
			sunfloor3d.WithSimulation(sunfloor3d.DefaultSimConfig()),
			sunfloor3d.WithSimBand(math.NaN())}},
		{"checkpoint without space", []sunfloor3d.Option{sunfloor3d.WithCheckpoint("x.ckpt")}},
		{"shard without space", []sunfloor3d.Option{sunfloor3d.WithShard(0, 2)}},
		{"shard index out of range", []sunfloor3d.Option{
			sunfloor3d.WithSpace(exploreSpace3()), sunfloor3d.WithShard(2, 2)}},
	}
	for _, tc := range cases {
		if _, err := sunfloor3d.NewEngine(tc.opts...); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := sunfloor3d.NewEngine(sunfloor3d.WithSpace(exploreSpace3()), sunfloor3d.WithShard(1, 2)); err != nil {
		t.Errorf("valid shard config rejected: %v", err)
	}
}

// TestFingerprintValidatesLikeNewEngine: Fingerprint rejects the option sets
// NewEngine rejects, including the cross-option checks of the checkpoint and
// shard hooks, instead of returning a key for a request no engine would run.
// A valid shard still shares the fingerprint of its whole exploration.
func TestFingerprintValidatesLikeNewEngine(t *testing.T) {
	d := apiDesign(t)
	cases := []struct {
		name string
		opts []sunfloor3d.Option
	}{
		{"shard without space", []sunfloor3d.Option{sunfloor3d.WithShard(0, 2)}},
		{"checkpoint without space", []sunfloor3d.Option{sunfloor3d.WithCheckpoint("x.ckpt")}},
	}
	for _, tc := range cases {
		if _, err := sunfloor3d.NewEngine(tc.opts...); err == nil {
			t.Errorf("%s: NewEngine accepted the options", tc.name)
		}
		if key, err := sunfloor3d.Fingerprint(d, tc.opts...); err == nil {
			t.Errorf("%s: Fingerprint returned key %s, want the NewEngine error", tc.name, key)
		}
	}
	whole, err := sunfloor3d.Fingerprint(d, sunfloor3d.WithSpace(exploreSpace3()))
	if err != nil {
		t.Fatal(err)
	}
	shard, err := sunfloor3d.Fingerprint(d, sunfloor3d.WithSpace(exploreSpace3()), sunfloor3d.WithShard(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if shard != whole {
		t.Errorf("a shard fingerprints as %s, its exploration as %s", shard, whole)
	}
}

// TestExplorerCheckpointFingerprintMismatch asserts a checkpoint written by
// a different request cannot be resumed.
func TestExplorerCheckpointFingerprintMismatch(t *testing.T) {
	d := apiDesign(t)
	ctx := context.Background()
	ckpt := filepath.Join(t.TempDir(), "explore.ckpt")
	sp := exploreSpace3()
	if _, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(sp), sunfloor3d.WithCheckpoint(ckpt)); err != nil {
		t.Fatal(err)
	}
	other := sp
	other.NoPrune = true
	if _, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(other), sunfloor3d.WithCheckpoint(ckpt)); err == nil {
		t.Error("checkpoint of a different request resumed without error")
	}
}

// TestExplorerCheckpointTornMiddleLine: a torn record in the MIDDLE of a
// checkpoint — the shape `cat` produces when an interrupted shard file (torn
// trailing line, no newline) is concatenated before an intact one — must be
// skipped, its cells recomputed, and the resumed result must stay
// byte-identical to the uninterrupted run.
func TestExplorerCheckpointTornMiddleLine(t *testing.T) {
	d := apiDesign(t)
	ctx := context.Background()
	ckpt := filepath.Join(t.TempDir(), "explore.ckpt")
	sp := exploreSpace3()
	// Evaluate every cell so the checkpoint holds one line per cell; with
	// pruning on, dominated cells are stubbed without a checkpoint record
	// and the file can be too short to tear in the middle.
	sp.NoPrune = true

	live, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(sp), sunfloor3d.WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("fixture checkpoint has only %d lines, need at least 4 to tear the middle", len(lines))
	}
	// Tear a middle record in half and splice the next line onto it without
	// a separating newline, exactly as a concatenated torn shard would.
	mid := len(lines) / 2
	torn := append([]byte(nil), lines[mid][:len(lines[mid])/2]...)
	torn = append(torn, lines[mid+1]...)
	var rebuilt [][]byte
	rebuilt = append(rebuilt, lines[:mid]...)
	rebuilt = append(rebuilt, torn)
	rebuilt = append(rebuilt, lines[mid+2:]...)
	if err := os.WriteFile(ckpt, append(bytes.Join(rebuilt, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(sp), sunfloor3d.WithCheckpoint(ckpt))
	if err != nil {
		t.Fatalf("resume over torn middle line: %v", err)
	}
	if !bytes.Equal(stable(t, live), stable(t, resumed)) {
		t.Error("result resumed over a torn middle line differs from the uninterrupted run")
	}
}

// TestExplorerCheckpointTornTail: a checkpoint whose last record was torn
// by a killed writer (no trailing newline) must resume by recomputing just
// that cell, and the resumed run's records must start on a new line, so a
// second resume restores everything and computes no point at all.
func TestExplorerCheckpointTornTail(t *testing.T) {
	d := apiDesign(t)
	ctx := context.Background()
	ckpt := filepath.Join(t.TempDir(), "explore.ckpt")
	sp := exploreSpace3()
	sp.NoPrune = true

	live, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(sp), sunfloor3d.WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.TrimSuffix(data, []byte("\n"))
	last := bytes.LastIndexByte(body, '\n') + 1
	if err := os.WriteFile(ckpt, body[:last+(len(body)-last)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	resume := func() int {
		t.Helper()
		computed := 0
		res, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(sp), sunfloor3d.WithCheckpoint(ckpt),
			sunfloor3d.WithProgress(func(ev sunfloor3d.Event) {
				if ev.Point.Elapsed > 0 {
					computed++
				}
			}))
		if err != nil {
			t.Fatalf("resume over torn tail: %v", err)
		}
		if !bytes.Equal(stable(t, live), stable(t, res)) {
			t.Error("result resumed over a torn tail differs from the uninterrupted run")
		}
		return computed
	}
	if n := resume(); n == 0 {
		t.Fatal("first resume computed no point: the torn cell was not recomputed")
	}
	if n := resume(); n != 0 {
		t.Errorf("second resume computed %d points, want 0: the first resume's record was lost", n)
	}
}

// TestExplorerCheckpointImpossibleFailedFlows: a record with the request's
// fingerprint whose point claims more failed flows than the design has
// flows is corrupt. Resuming must skip it and recompute its cell, as for a
// torn line, instead of panicking on (or allocating) the claimed count, and
// return the uninterrupted run's bytes.
func TestExplorerCheckpointImpossibleFailedFlows(t *testing.T) {
	d := apiDesign(t)
	ctx := context.Background()
	ckpt := filepath.Join(t.TempDir(), "explore.ckpt")
	sp := exploreSpace3()
	sp.NoPrune = true

	live, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(sp), sunfloor3d.WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	mid := len(lines) / 2
	var rec map[string]any
	dec := json.NewDecoder(bytes.NewReader(lines[mid]))
	dec.UseNumber()
	if err := dec.Decode(&rec); err != nil {
		t.Fatal(err)
	}
	pt := rec["points"].([]any)[0].(map[string]any)
	pt["route_stats"].(map[string]any)["failed_flows"] = json.Number("4611686018427387904")
	if lines[mid], err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	computed := 0
	resumed, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(sp), sunfloor3d.WithCheckpoint(ckpt),
		sunfloor3d.WithProgress(func(ev sunfloor3d.Event) {
			if ev.Point.Elapsed > 0 {
				computed++
			}
		}))
	if err != nil {
		t.Fatalf("resume over an impossible record: %v", err)
	}
	if computed == 0 {
		t.Error("resume computed no point: the corrupt record's cell was restored")
	}
	if !bytes.Equal(stable(t, live), stable(t, resumed)) {
		t.Error("result resumed over an impossible record differs from the uninterrupted run")
	}
}

// TestExplorerCheckpointCorruptValue: a record with the request's
// fingerprint whose points still parse but no longer match its digest (the
// first digit of one avg_latency_cycles bumped) is corrupt. Resuming must
// drop it and recompute its cell, and return the uninterrupted run's bytes
// instead of the flipped value.
func TestExplorerCheckpointCorruptValue(t *testing.T) {
	d := apiDesign(t)
	ctx := context.Background()
	ckpt := filepath.Join(t.TempDir(), "explore.ckpt")
	sp := exploreSpace3()

	live, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(sp), sunfloor3d.WithCheckpoint(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte(`"avg_latency_cycles":`)
	at := bytes.Index(data, key)
	if at < 0 {
		t.Fatal("checkpoint holds no avg_latency_cycles")
	}
	at += len(key)
	switch c := data[at]; {
	case c == '9':
		data[at] = '1'
	case c >= '0' && c < '9':
		data[at] = c + 1
	default:
		t.Fatalf("avg_latency_cycles starts with %q, not a digit", c)
	}
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	computed := 0
	resumed, err := sunfloor3d.Synthesize(ctx, d, sunfloor3d.WithSpace(sp), sunfloor3d.WithCheckpoint(ckpt),
		sunfloor3d.WithProgress(func(ev sunfloor3d.Event) {
			if ev.Point.Elapsed > 0 {
				computed++
			}
		}))
	if err != nil {
		t.Fatalf("resume over a corrupt value: %v", err)
	}
	if computed == 0 {
		t.Error("resume computed no point: the corrupt record's cell was restored")
	}
	if !bytes.Equal(stable(t, live), stable(t, resumed)) {
		t.Error("result resumed over a corrupt value differs from the uninterrupted run")
	}
}

// TestExplorerCheckpointSimBandFingerprint: toggling the fidelity ladder
// changes the request fingerprint, so a checkpoint written with WithSimBand
// cannot resume a run without it — and vice versa. Without this, a triaged
// checkpoint (some points never simulated) would silently seed a full-sim
// resume.
func TestExplorerCheckpointSimBandFingerprint(t *testing.T) {
	d := apiDesign(t)
	ctx := context.Background()
	sp := sunfloor3d.Space{Axes: []sunfloor3d.Axis{
		{Name: sunfloor3d.AxisFreqMHz, Values: []float64{400, 600}},
	}}
	cfg := sunfloor3d.DefaultSimConfig()
	cfg.Cycles = 500
	cfg.DrainCycles = 500
	base := []sunfloor3d.Option{
		sunfloor3d.WithSpace(sp),
		sunfloor3d.WithSimulation(cfg),
		sunfloor3d.WithContention(),
	}
	withBand := append(append([]sunfloor3d.Option(nil), base...), sunfloor3d.WithSimBand(0.25))

	// Checkpoint written without the band, resumed with it: rejected.
	ckpt := filepath.Join(t.TempDir(), "full.ckpt")
	if _, err := sunfloor3d.Synthesize(ctx, d, append(base, sunfloor3d.WithCheckpoint(ckpt))...); err != nil {
		t.Fatal(err)
	}
	if _, err := sunfloor3d.Synthesize(ctx, d, append(withBand, sunfloor3d.WithCheckpoint(ckpt))...); err == nil {
		t.Error("full-sim checkpoint resumed under WithSimBand without error")
	}

	// Checkpoint written with the band, resumed without it: rejected.
	ckpt2 := filepath.Join(t.TempDir(), "band.ckpt")
	if _, err := sunfloor3d.Synthesize(ctx, d, append(withBand, sunfloor3d.WithCheckpoint(ckpt2))...); err != nil {
		t.Fatal(err)
	}
	if _, err := sunfloor3d.Synthesize(ctx, d, append(base, sunfloor3d.WithCheckpoint(ckpt2))...); err == nil {
		t.Error("triaged checkpoint resumed without WithSimBand without error")
	}
}
