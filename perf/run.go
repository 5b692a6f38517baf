package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sunfloor3d"
	"sunfloor3d/internal/memo"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	smoke    bool
	// root is the repository root; the run reads its digests below it and
	// writes temporary files under root/.bench_build/perf.
	root string
}

func (c runConfig) digestPath() string {
	return filepath.Join(c.root, "perf", "testdata", "digests.json")
}
func (c runConfig) workDir() string { return filepath.Join(c.root, ".bench_build", "perf") }

// A run sets its workload up at least setupRepeats times and, while the
// set-ups have taken less than setupMinTotal, again (up to setupMaxRepeats),
// so that setup_s, their median, is not one noisy sample even when a set-up
// takes a millisecond.
const (
	setupRepeats    = 3
	setupMinTotal   = 200 * time.Millisecond
	setupMaxRepeats = 100
)

// timedSetup runs setup as described above (once for a smoke run) and
// returns the last result with the median set-up time in seconds.
func timedSetup[T any](cfg runConfig, setup func() (T, error)) (T, float64, error) {
	var v T
	var times []float64
	var total time.Duration
	for len(times) < setupRepeats || (total < setupMinTotal && len(times) < setupMaxRepeats) {
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		if cfg.smoke {
			break
		}
	}
	return v, median(times), nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runWorkload runs one workload and reports its metrics: the end-to-end ones,
// or with cfg.trace the per-layer ones of a traced pass.
func runWorkload(cfg runConfig) (*report, error) {
	if err := os.MkdirAll(cfg.workDir(), 0o755); err != nil {
		return nil, err
	}
	if cfg.workload == "serve" {
		return runServe(cfg)
	}
	type inputs struct {
		jobs []synthJob
		chk  *checker
	}
	in, setupS, err := timedSetup(cfg, func() (inputs, error) {
		jobs, err := synthJobs(cfg.workload, cfg.seed, cfg.smoke)
		if err != nil {
			return inputs{}, err
		}
		ref, err := loadDigests(cfg.digestPath())
		if err != nil {
			return inputs{}, err
		}
		return inputs{jobs, newChecker(ref, cfg.seed)}, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &report{workload: cfg.workload}
	if cfg.trace {
		lt := newLayerTrace()
		lt.traceCalls(in.jobs, in.chk, rep)
		lt.probeMemo(cfg.workDir(), rep)
		lt.addMetrics(rep)
		return rep, lt.tr.write(spanPath(cfg))
	}
	var m runMeter
	measureSynth(cfg, in.jobs, in.chk, &m, rep)
	m.addCommon(rep, setupS)
	return rep, nil
}

func spanPath(cfg runConfig) string {
	return filepath.Join(cfg.workDir(), fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
}

// measureSynth runs passes over the call list until cfg.seconds have passed.
// The first pass always completes; a later call still running at the deadline
// is cancelled and discarded. Each call is timed alone: the host sample before
// it and digesting its output happen outside its timer.
func measureSynth(cfg runConfig, jobs []synthJob, chk *checker, m *runMeter, rep *report) {
	samples := make([][]float64, len(jobs))
	points := make([]int, len(jobs))
	deadline := time.Now().Add(cfg.seconds)
	passes := 0 // complete passes
pass:
	for !cfg.smoke || passes == 0 {
		m.startPass()
		for i, j := range jobs {
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if passes > 0 {
				if !time.Now().Before(deadline) {
					break pass
				}
				ctx, cancel = context.WithDeadline(ctx, deadline)
			}
			m.sampleHost(hostSamplesPerCall)
			t0 := time.Now()
			res, err := sunfloor3d.Synthesize(ctx, j.design, j.opt.facade()...)
			dt := time.Since(t0)
			cancel()
			if passes > 0 && errors.Is(err, context.DeadlineExceeded) {
				break pass
			}
			rep.attempted++
			if msg := checkResult(j.label, res, err, chk); msg != "" {
				rep.failed++
				rep.problem("%s", msg)
				continue
			}
			samples[i] = append(samples[i], msOf(dt))
			points[i] = len(res.Points)
		}
		m.endPass()
		passes++
	}
	runMS, nSamples, totalPoints := 0.0, 0, 0
	var perCall []float64
	for i := range jobs {
		med := median(samples[i]) // NaN for a call that never succeeded
		perCall = append(perCall, med)
		runMS += med
		nSamples += len(samples[i])
		totalPoints += points[i]
	}
	slow := m.slowdown()
	runS := runMS / 1000 / slow
	rep.add("run_s", "s", runS, fmt.Sprintf("one pass of %d calls: sum of per-call medians over %d full passes plus any partial one; %.4g s of wall time", len(jobs), passes, runMS/1000))
	rep.add("points_per_s", "1/s", float64(totalPoints)/runS, fmt.Sprintf("%d retained points per pass", totalPoints))
	// Which call of a mixed list is the median changes with the seed, which
	// moves this number by 15-20% from run to run: it is printed, not gated.
	rep.info("call_p50_ms %.4g: median of %d per-call medians, n=%d", median(perCall)/slow, len(jobs), nSamples)
}

// checkResult gates one call's output and returns why it is wrong, or "".
func checkResult(label string, res *sunfloor3d.Result, err error, chk *checker) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", label, err)
	}
	b, err := res.MarshalStable()
	if err != nil {
		return fmt.Sprintf("%s: %v", label, err)
	}
	d, err := digestOf(res, b)
	if err != nil {
		return fmt.Sprintf("%s: %v", label, err)
	}
	return chk.check(label, d)
}

// layerTrace collects what a traced run measures per layer.
type layerTrace struct {
	tr     *tracer
	counts layerCounts

	calls                         int
	callWall, callback            time.Duration
	allocMB, marshalMS, fingerMS  []float64
	cacheHits, cacheLookups       int
	memPutMS, memGetMS, diskGetMS float64
	outputs                       []tracedCall

	// serve and serial are the serve workload's timed pass and its
	// one-client pass; nil for the other workloads.
	serve, serial *servePass
}

func newLayerTrace() *layerTrace { return &layerTrace{tr: newTracer()} }

// tracedCall is the serialised output of one traced call.
type tracedCall struct {
	label  string
	stable []byte
}

// traceCalls traces every call once.
func (lt *layerTrace) traceCalls(jobs []synthJob, chk *checker, rep *report) {
	for _, j := range jobs {
		rep.attempted++
		if _, err := lt.traceCall(j, chk); err != nil {
			rep.failed++
			rep.problem("%s: %v", j.label, err)
		}
	}
}

// traceCall runs one call with progress recording, checks its output and
// replays its attempts through the layers. The call's label is its trace ID.
// It returns the serialised output, which it also keeps for the memo probe.
func (lt *layerTrace) traceCall(j synthJob, chk *checker) ([]byte, error) {
	trace := j.label
	var events []sunfloor3d.Event
	var callback time.Duration
	opts := append(j.opt.facade(), sunfloor3d.WithProgress(func(ev sunfloor3d.Event) {
		t0 := time.Now()
		events = append(events, ev)
		callback += time.Since(t0)
	}))
	var res *sunfloor3d.Result
	var err error
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wall := lt.tr.do(trace, 0, "facade.Synthesize", func() { res, err = sunfloor3d.Synthesize(context.Background(), j.design, opts...) })
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	lt.calls++
	lt.callWall += wall
	lt.callback += callback
	lt.allocMB = append(lt.allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	lt.cacheHits += res.Cache.Hits
	lt.cacheLookups += res.Cache.Hits + res.Cache.Misses

	var stable []byte
	lt.marshalMS = append(lt.marshalMS, msOf(lt.tr.do(trace, 0, "facade.MarshalStable", func() { stable, err = res.MarshalStable() })))
	if err != nil {
		return nil, err
	}
	var key string
	lt.fingerMS = append(lt.fingerMS, msOf(lt.tr.do(trace, 0, "facade.Fingerprint", func() { key, err = sunfloor3d.Fingerprint(j.design, j.opt.facade()...) })))
	if err != nil {
		return nil, err
	}
	if key != memo.Key(j.design, j.opt.engine()) {
		return nil, errors.New("the replay's engine options do not fingerprint like the call's facade options")
	}
	d, err := digestOf(res, stable)
	if err != nil {
		return nil, err
	}
	if msg := chk.check(j.label, d); msg != "" {
		return nil, errors.New(msg)
	}
	rp := &replayer{tr: lt.tr, trace: trace, design: j.design, opt: j.opt.engine(), counts: &lt.counts}
	if err := rp.replay(events, res); err != nil {
		return nil, err
	}
	lt.outputs = append(lt.outputs, tracedCall{label: j.label, stable: stable})
	return stable, nil
}

// probeMemo times the design-point cache's Put and Lookup on a scratch cache
// holding the traced calls' serialised outputs: memory hits first, then disk
// hits through a second cache instance on the same directory.
func (lt *layerTrace) probeMemo(work string, rep *report) {
	calls := lt.outputs
	if len(calls) == 0 {
		return
	}
	dir, err := os.MkdirTemp(work, "memo-probe-")
	if err != nil {
		rep.problem("memo probe: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	warm, err := memo.New(dir, len(calls))
	if err != nil {
		rep.problem("memo probe: %v", err)
		return
	}
	keys := make([]string, len(calls))
	var put, memGet, diskGet []float64
	for i, c := range calls {
		keys[i] = sha([]byte(fmt.Sprintf("%s#%d", c.label, i)))
		t0 := time.Now()
		warm.Put(keys[i], c.stable)
		put = append(put, msOf(time.Since(t0)))
	}
	cold, err := memo.New(dir, 1)
	if err != nil {
		rep.problem("memo probe: %v", err)
		return
	}
	for i, c := range calls {
		t0 := time.Now()
		b, prov, ok := warm.Lookup(keys[i])
		memGet = append(memGet, msOf(time.Since(t0)))
		if !ok || prov != memo.FromMemory || string(b) != string(c.stable) {
			rep.problem("memo probe: memory lookup of %s failed", c.label)
		}
		t1 := time.Now()
		b, prov, ok = cold.Lookup(keys[i])
		diskGet = append(diskGet, msOf(time.Since(t1)))
		if !ok || prov != memo.FromDisk || string(b) != string(c.stable) {
			rep.problem("memo probe: disk lookup of %s failed", c.label)
		}
	}
	lt.memPutMS, lt.memGetMS, lt.diskGetMS = median(put), median(memGet), median(diskGet)
}
