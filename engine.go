package sunfloor3d

import (
	"context"
	"fmt"

	"sunfloor3d/internal/memo"
	"sunfloor3d/internal/synth"
)

// Engine is a configured synthesizer. An Engine is immutable after creation
// and safe for concurrent use; each Synthesize call runs independently.
type Engine struct {
	cfg config
}

// NewEngine validates the options and returns an engine. The zero option
// list reproduces the paper's defaults: a single 400 MHz sweep, max_ill of
// 25, power-dominated objective, LP placement on the best point, serial
// evaluation.
func NewEngine(opts ...Option) (*Engine, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Synthesize runs the full SunFloor 3D flow on the design: it sweeps the
// configured frequencies and switch counts, evaluates every design point on
// a bounded worker pool, and returns all explored points plus the best one.
// Cancelling the context stops the sweep promptly and returns the context's
// error. The ordering of Result.Points and the identity of the best point do
// not depend on the parallelism. A design whose Cores or Flows were edited
// after NewDesign into one that NewDesign rejects is rejected with the same
// error.
func (e *Engine) Synthesize(ctx context.Context, d *Design) (*Result, error) {
	// Design's fields are exported, so check them again: an edited design
	// would otherwise panic a worker or reach the request fingerprint.
	if err := d.Check(); err != nil {
		return nil, err
	}
	opt := e.cfg.opt
	if e.cfg.progress != nil {
		progress := e.cfg.progress
		opt.Progress = func(ev synth.Event) {
			progress(Event{Done: ev.Done, Total: ev.Total, Point: DesignPoint{Point: ev.Point.Point, topo: ev.Point.Topology}})
		}
	}

	// Checkpoint/shard plumbing for explorer runs. The hooks only decide
	// which cells this process computes, restores or persists — they never
	// change what an evaluated cell contains — so they stay outside the
	// request fingerprint, which is also what lets every shard of one
	// exploration share the checkpoint key.
	var hooks synth.ExplorationHooks
	var ck *checkpointFile
	if e.cfg.shard {
		index, count := e.cfg.shardIndex, e.cfg.shardCount
		hooks.Own = func(cell int) bool { return cell%count == index }
	}
	if e.cfg.checkpoint != "" {
		var err error
		ck, err = openCheckpoint(e.cfg.checkpoint, memo.Key(d, opt), len(d.Flows))
		if err != nil {
			return nil, err
		}
		hooks.Restore = ck.restore
		hooks.Done = ck.append
	}

	res, err := synth.SynthesizeContext(ctx, d, opt, hooks)
	if ck != nil {
		// Cells checkpointed before a failure (including cancellation) are
		// kept — that is the point of resumability. Append errors already
		// failed the run through the Done hook; close only has the file
		// handle left to report.
		if cerr := ck.close(); cerr != nil && err == nil {
			return nil, fmt.Errorf("sunfloor3d: closing checkpoint: %w", cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	return resultFromInternal(res), nil
}

// Synthesize is the package-level convenience wrapper: it builds an Engine
// from the options and runs it once on the design.
func Synthesize(ctx context.Context, d *Design, opts ...Option) (*Result, error) {
	e, err := NewEngine(opts...)
	if err != nil {
		return nil, err
	}
	return e.Synthesize(ctx, d)
}
