package synth

import (
	"context"
	"runtime"
	"sync"
)

// Event reports the completion of one design-point evaluation during a
// synthesis run. Events are delivered to Options.Progress in completion
// order, serialised within the run (never concurrently), from the goroutine
// that finished the point.
type Event struct {
	// Done is the number of design points evaluated so far.
	Done int
	// Total is the number of design points scheduled so far. It can grow
	// while the run is in progress: the theta rescaling loop and the Phase-2
	// fallback of Algorithm 1 schedule additional points only when the
	// initial sweep leaves switch counts unmet. A retry whose outcome is
	// decided before it runs (see sweep.phase1) is never scheduled, so it is
	// neither counted nor reported.
	Total int
	// Point is the design point that just finished (valid or not). A theta
	// retry or Phase-2 fallback step that failed in routing stopped at its
	// first unroutable flow (see sweep.finish): its Route.FailedFlows is 1
	// and its FailReason names that flow, claiming no total. sweep.phase1
	// keeps such a step only when it is valid, so no serialised Result
	// holds one.
	Point DesignPoint
}

// pool is one synthesis run's view of design-point execution: it tracks
// progress accounting, forwards completion events, and draws evaluation
// slots from a fair-share Scheduler — the process-wide one from
// Options.Scheduler when the run belongs to a multiplexing caller such as
// sunfloor-server, or a private one sized from Options.Parallelism
// otherwise. All stages of the run (all frequencies, theta retries and
// Phase-2 fallbacks) share the same slot budget.
type pool struct {
	ctx     context.Context
	client  *schedClient // nil on the serial reference path
	serial  bool
	onEvent func(Event)

	mu          sync.Mutex
	done, total int
}

// resolveParallelism maps Options.Parallelism to a worker count: 0 or 1 is
// serial, n > 1 uses at most n workers, negative uses one per available CPU.
func resolveParallelism(n int) int {
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// newPool sizes a pool from the options. With a shared scheduler the run
// registers as a client (weight Options.Weight, per-run limit
// Options.Parallelism when positive); without one, a private single-client
// scheduler reproduces the standalone bounded-worker behaviour, and
// Parallelism 0 or 1 keeps the fully serial reference path.
func newPool(ctx context.Context, opt Options) *pool {
	p := &pool{ctx: ctx, onEvent: opt.Progress}
	if opt.Scheduler != nil {
		limit := 0
		if opt.Parallelism > 0 {
			limit = opt.Parallelism
		}
		p.client = opt.Scheduler.register(opt.Weight, limit)
		return p
	}
	n := resolveParallelism(opt.Parallelism)
	if n == 1 {
		p.serial = true
		return p
	}
	p.client = NewScheduler(n).register(1, 0)
	return p
}

// close deregisters the run from its scheduler. It must be called after
// every forEach returned, which guarantees all slots are back.
func (p *pool) close() {
	if p.client != nil {
		p.client.close()
	}
}

// addTotal grows the scheduled-point count without running an evaluation.
// The explorer uses it to account for pruned, restored and shard-skipped
// points, which are then surfaced through emit like evaluated ones so
// progress consumers see every point and every pruning decision.
func (p *pool) addTotal(n int) {
	p.mu.Lock()
	p.total += n
	p.mu.Unlock()
}

// emit records one finished point and forwards it to the progress callback.
func (p *pool) emit(dp DesignPoint) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if p.onEvent != nil {
		p.onEvent(Event{Done: p.done, Total: p.total, Point: dp})
	}
}

// forEach evaluates fn(i) for every i in [0, n) and stores each result with
// sink(i, point). Results land at their own index, so the caller observes the
// same ordering whether the evaluations ran serially or on a contended
// shared scheduler. When the context is cancelled, no further evaluations
// start, the evaluations already in flight are drained to completion, and
// the context error is returned — forEach never leaves a worker goroutine
// behind. sink must be safe for concurrent calls on distinct indices
// (writing to distinct elements of a pre-allocated slice is).
func (p *pool) forEach(n int, fn func(i int) DesignPoint, sink func(i int, dp DesignPoint)) error {
	p.mu.Lock()
	p.total += n
	p.mu.Unlock()

	if p.serial {
		for i := 0; i < n; i++ {
			if err := p.ctx.Err(); err != nil {
				return err
			}
			dp := fn(i)
			sink(i, dp)
			p.emit(dp)
		}
		return nil
	}

	var wg sync.WaitGroup
	var err error
	for i := 0; i < n; i++ {
		// acquire re-checks cancellation itself, but the explicit check first
		// avoids queueing on a contended scheduler after the run is dead.
		if err = p.ctx.Err(); err != nil {
			break
		}
		if err = p.client.acquire(p.ctx); err != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer p.client.release()
			dp := fn(i)
			sink(i, dp)
			p.emit(dp)
		}(i)
	}
	wg.Wait()
	return err
}
