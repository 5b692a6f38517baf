// Package server implements sunfloor-server: synthesis as a service. It
// wraps the sunfloor3d engine in an HTTP/JSON daemon with
//
//   - a content-addressed design-point cache (internal/memo): every request
//     is fingerprinted, equal requests — across clients, processes and
//     restarts — are answered from the cache or deduplicated onto one
//     in-flight computation;
//   - a request index in front of that cache: the SHA-256 of each request
//     body that passed validation maps to the request's fingerprint, so a
//     repeated body whose result either cache tier holds is answered without
//     being decoded, parsed or fingerprinted again. The index keys on the
//     bytes, not the request: a new spelling of a request (other whitespace,
//     field order or number format) takes the full path once. It holds at
//     most 1024 bodies and is reset when full;
//   - a bounded job queue with request validation and graceful shutdown;
//   - streaming progress over NDJSON or SSE, wired to the engine's
//     per-design-point progress events;
//   - one process-wide fair-share scheduler: concurrent requests draw
//     evaluation slots from a fixed budget proportionally to their weights
//     instead of oversubscribing the CPU.
//
// The HTTP surface:
//
//	POST /v1/synthesize            submit a job; 202 + job view, or the
//	                               result body directly with ?wait=1
//	GET  /v1/jobs/{id}             job status
//	GET  /v1/jobs/{id}/stream      progress events (NDJSON; SSE on Accept)
//	GET  /v1/jobs/{id}/result      canonical serialised Result
//	GET  /v1/cache/stats           cache, request index, scheduler and
//	                               queue statistics
//	GET  /healthz                  liveness probe
//
// A request (SynthesizeRequest) is a design source plus options. It is the
// same value cmd/sunfloor3d builds from its flags: the CLI posts it with
// -server and otherwise runs its Design and EngineOptions locally, so the
// two paths cannot drift apart.
//
// A ?wait=1 submission is answered on its own connection and registers no
// job, so it never takes a RetainJobs slot from the asynchronous jobs whose
// clients still poll them.
//
// Result bodies are the engine's canonical serialisation: byte-identical to
// a local Synthesize + WriteJSON of the same request, whatever mix of cache
// tiers, deduplication and scheduling produced them.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"sunfloor3d"
	"sunfloor3d/internal/memo"
	"sunfloor3d/internal/workload"
)

// Config parameterizes a Server. The zero value is usable: memory-only
// cache, CPU-sized scheduler, default queue and retention bounds.
type Config struct {
	// CacheDir is the on-disk tier of the design-point cache ("" = memory
	// only). The directory may be shared with CLI runs (-cache-dir) and
	// other server processes.
	CacheDir string
	// MemEntries bounds the in-memory cache tier (<= 0 selects the default).
	MemEntries int
	// QueueDepth bounds the backlog of accepted-but-not-started jobs;
	// submissions beyond it are rejected with 503 (<= 0 selects 64).
	QueueDepth int
	// Workers is the number of jobs synthesized concurrently (<= 0 selects
	// 4). Each job's design points still multiplex over the shared
	// scheduler, so Workers bounds bookkeeping, not CPU use.
	Workers int
	// Capacity is the shared scheduler's evaluation-slot budget (<= 0
	// selects one slot per available CPU).
	Capacity int
	// RetainJobs bounds how many terminal jobs keep their status and result
	// queryable (<= 0 selects 256). Evicted results remain available through
	// the cache by resubmitting the request.
	RetainJobs int
}

// Server is the synthesis service. Create with New, serve with any
// http.Server (Server implements http.Handler), stop with Shutdown.
type Server struct {
	cache *memo.Cache
	sched *sunfloor3d.Scheduler
	reg   *registry
	mux   *http.ServeMux

	baseCtx context.Context
	cancel  context.CancelFunc

	queue   chan queued
	workers sync.WaitGroup

	mu     sync.Mutex
	closed bool

	index requestIndex
}

// queued pairs an accepted job with its parsed, validated work.
type queued struct {
	job    *job
	design *sunfloor3d.Design
	opts   []sunfloor3d.Option
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cache, err := memo.New(cfg.CacheDir, cfg.MemEntries)
	if err != nil {
		return nil, fmt.Errorf("server: opening cache: %w", err)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cache:   cache,
		sched:   sunfloor3d.NewScheduler(cfg.Capacity),
		reg:     newRegistry(cfg.RetainJobs),
		baseCtx: ctx,
		cancel:  cancel,
		queue:   make(chan queued, cfg.QueueDepth),
		index:   requestIndex{keys: make(map[[sha256.Size]byte]string)},
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/synthesize", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/cache/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP dispatches to the server's API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Scheduler returns the process-wide fair-share scheduler, so embedding
// callers can attach their own runs to the same slot budget.
func (s *Server) Scheduler() *sunfloor3d.Scheduler { return s.sched }

// Cache returns the design-point cache.
func (s *Server) Cache() *memo.Cache { return s.cache }

// Shutdown stops the server gracefully: new submissions are rejected,
// queued and running jobs are given until ctx expires to finish, then the
// stragglers are cancelled and drained. Shutdown returns once every worker
// has exited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue) // submissions stopped above, so no further sends
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // cancel in-flight synthesis; workers drain and exit
		<-done
	}
	s.cancel()
	return err
}

// worker drains the job queue until it is closed.
func (s *Server) worker() {
	defer s.workers.Done()
	for q := range s.queue {
		s.run(q)
	}
}

// run executes one job through the cache: a fingerprint hit (or another
// in-flight job with the same fingerprint) answers without synthesizing;
// otherwise this job computes and its progress is streamed.
func (s *Server) run(q queued) {
	q.job.setRunning()
	compute := func() ([]byte, error) {
		opts := append(q.opts, sunfloor3d.WithProgress(func(ev sunfloor3d.Event) {
			q.job.progress(ProgressEvent{
				Type: "progress", Done: ev.Done, Total: ev.Total,
				FreqMHz:     ev.Point.FreqMHz,
				SwitchCount: ev.Point.SwitchCount,
				Valid:       ev.Point.Valid,
				Pruned:      ev.Point.Pruned,
				SimTriage:   ev.Point.SimTriage,
			})
		}))
		res, err := sunfloor3d.Synthesize(s.baseCtx, q.design, opts...)
		if err != nil {
			return nil, err
		}
		return res.MarshalStable()
	}
	body, prov, err := s.cache.GetOrCompute(s.baseCtx, q.job.key, compute)
	if q.job.id == "" {
		// A ?wait=1 request's job: only its handler waits on it.
		q.job.finish(body, prov, err)
		return
	}
	s.reg.finish(q.job, body, prov, err)
}

// SynthesizeRequest is the JSON body of POST /v1/synthesize and the one
// encoding of a synthesis request outside the engine: cmd/sunfloor3d fills
// it from its flags and either posts it (-server) or runs it locally. The
// design is given either as the text spec pair (cores_spec + comm_spec, the
// formats of WriteDesign/cmd/specgen) or as a workload generator string
// (gen, the key=value form of the CLI's -gen flag). Requests that denote the
// same design and options share one fingerprint however they were spelled.
type SynthesizeRequest struct {
	CoresSpec string          `json:"cores_spec,omitempty"`
	CommSpec  string          `json:"comm_spec,omitempty"`
	Gen       string          `json:"gen,omitempty"`
	Options   *RequestOptions `json:"options,omitempty"`
}

// RequestOptions are the request's engine options, each field setting the
// facade option named in its comment (see EngineOptions); unset fields keep
// the engine defaults. Checkpoint files, shards, simulation and progress
// callbacks are per-process concerns and have no field here.
type RequestOptions struct {
	FrequenciesMHz      []float64 `json:"frequencies_mhz,omitempty"`        // WithFrequenciesMHz
	MaxILL              *int      `json:"max_ill,omitempty"`                // WithMaxILL
	SoftILLMargin       *int      `json:"soft_ill_margin,omitempty"`        // WithSoftILLMargin
	Phase               *string   `json:"phase,omitempty"`                  // WithPhase(ParsePhase(...))
	Alpha               *float64  `json:"alpha,omitempty"`                  // WithAlpha
	PowerWeight         *float64  `json:"power_weight,omitempty"`           // WithObjective, with latency_weight
	LatencyWeight       *float64  `json:"latency_weight,omitempty"`         // WithObjective, with power_weight
	SwitchLayer         *string   `json:"switch_layer,omitempty"`           // WithSwitchLayerRule: "average" or "majority"
	MaxSwitchesPerLayer *int      `json:"max_switches_per_layer,omitempty"` // WithMaxSwitchesPerLayer
	LPEveryPoint        *bool     `json:"lp_every_point,omitempty"`         // WithLPPlacement
	RequireLatencyMet   *bool     `json:"require_latency_met,omitempty"`    // WithRequireLatencyMet
	// Weight is the request's fair-share weight on the shared scheduler
	// (WithFairShareWeight); Parallelism caps its slot share
	// (WithParallelism). Neither changes the fingerprint.
	Weight      *int `json:"weight,omitempty"`
	Parallelism *int `json:"parallelism,omitempty"`
	// Space switches the request from the classic frequency sweep to the
	// N-dimensional design-space explorer (WithSpace); its JSON form is
	// sunfloor3d.Space's.
	Space *sunfloor3d.Space `json:"space,omitempty"`
	// Sparing provisions spare TSVs/wires for a target functional yield
	// (WithSparing); Fault replays deterministic fault plans and attaches
	// the survivability report to every valid point (WithFaultModel).
	Sparing *SparingRequest `json:"sparing,omitempty"`
	Fault   *FaultRequest   `json:"fault,omitempty"`
	// Contention attaches the analytic M/D/1 contention estimate to every
	// valid point (WithContention).
	Contention *bool `json:"contention,omitempty"`
}

// SparingRequest carries the arguments of sunfloor3d.WithSparing: the
// manufacturing process by its standard name (wafer-level-A, wafer-level-B,
// die-to-wafer) and the functional-yield target in (0, 1).
type SparingRequest struct {
	Process     string  `json:"process"`
	TargetYield float64 `json:"target_yield"`
}

// FaultRequest sets fields of the sunfloor3d.FaultModelConfig passed to
// WithFaultModel; unset fields keep the defaults of
// sunfloor3d.DefaultFaultModelConfig.
type FaultRequest struct {
	Plans         *int   `json:"plans,omitempty"`
	FaultsPerPlan *int   `json:"faults_per_plan,omitempty"`
	Seed          *int64 `json:"seed,omitempty"`
	ExhaustiveMax *int   `json:"exhaustive_max,omitempty"`
	FaultCycle    *int   `json:"fault_cycle,omitempty"`
}

// Design builds the request's design from its one design source: the spec
// text pair or the generator string.
func (r *SynthesizeRequest) Design() (*sunfloor3d.Design, error) {
	hasSpecs := r.CoresSpec != "" || r.CommSpec != ""
	switch {
	case hasSpecs && r.Gen != "":
		return nil, errors.New("give either cores_spec+comm_spec or gen, not both")
	case hasSpecs:
		if r.CoresSpec == "" || r.CommSpec == "" {
			return nil, errors.New("cores_spec and comm_spec must both be set")
		}
		return sunfloor3d.LoadDesign(strings.NewReader(r.CoresSpec), strings.NewReader(r.CommSpec))
	case r.Gen != "":
		spec, err := sunfloor3d.ParseGenSpec(r.Gen)
		if err != nil {
			return nil, err
		}
		// GenerateBenchmark(spec).Graph3D, without the flattened 2-D die
		// the request never reads.
		return workload.Generate3D(spec)
	default:
		return nil, errors.New("no design: set cores_spec+comm_spec or gen")
	}
}

// EngineOptions translates the options into facade options, rejecting
// unknown names; a nil receiver gives none. Values are checked by the engine
// (NewEngine, Fingerprint), not here.
func (o *RequestOptions) EngineOptions() ([]sunfloor3d.Option, error) {
	if o == nil {
		return nil, nil
	}
	var opts []sunfloor3d.Option
	if len(o.FrequenciesMHz) > 0 {
		opts = append(opts, sunfloor3d.WithFrequenciesMHz(o.FrequenciesMHz...))
	}
	if o.MaxILL != nil {
		opts = append(opts, sunfloor3d.WithMaxILL(*o.MaxILL))
	}
	if o.SoftILLMargin != nil {
		opts = append(opts, sunfloor3d.WithSoftILLMargin(*o.SoftILLMargin))
	}
	if o.Phase != nil {
		p, err := sunfloor3d.ParsePhase(*o.Phase)
		if err != nil {
			return nil, err
		}
		opts = append(opts, sunfloor3d.WithPhase(p))
	}
	if o.Alpha != nil {
		opts = append(opts, sunfloor3d.WithAlpha(*o.Alpha))
	}
	if (o.PowerWeight == nil) != (o.LatencyWeight == nil) {
		return nil, errors.New("power_weight and latency_weight must be set together")
	}
	if o.PowerWeight != nil {
		opts = append(opts, sunfloor3d.WithObjective(*o.PowerWeight, *o.LatencyWeight))
	}
	if o.SwitchLayer != nil {
		switch *o.SwitchLayer {
		case "average":
			opts = append(opts, sunfloor3d.WithSwitchLayerRule(sunfloor3d.LayerAverage))
		case "majority":
			opts = append(opts, sunfloor3d.WithSwitchLayerRule(sunfloor3d.LayerMajority))
		default:
			return nil, fmt.Errorf("unknown switch_layer %q (valid: average, majority)", *o.SwitchLayer)
		}
	}
	if o.MaxSwitchesPerLayer != nil {
		opts = append(opts, sunfloor3d.WithMaxSwitchesPerLayer(*o.MaxSwitchesPerLayer))
	}
	if o.LPEveryPoint != nil {
		opts = append(opts, sunfloor3d.WithLPPlacement(*o.LPEveryPoint))
	}
	if o.RequireLatencyMet != nil {
		opts = append(opts, sunfloor3d.WithRequireLatencyMet(*o.RequireLatencyMet))
	}
	if o.Weight != nil {
		opts = append(opts, sunfloor3d.WithFairShareWeight(*o.Weight))
	}
	if o.Parallelism != nil {
		opts = append(opts, sunfloor3d.WithParallelism(*o.Parallelism))
	}
	if o.Sparing != nil {
		proc, err := sunfloor3d.ProcessByName(o.Sparing.Process)
		if err != nil {
			return nil, err
		}
		opts = append(opts, sunfloor3d.WithSparing(proc, o.Sparing.TargetYield))
	}
	if o.Fault != nil {
		fc := sunfloor3d.DefaultFaultModelConfig()
		if o.Fault.Plans != nil {
			fc.Plans = *o.Fault.Plans
		}
		if o.Fault.FaultsPerPlan != nil {
			fc.FaultsPerPlan = *o.Fault.FaultsPerPlan
		}
		if o.Fault.Seed != nil {
			fc.Seed = *o.Fault.Seed
		}
		if o.Fault.ExhaustiveMax != nil {
			fc.ExhaustiveMax = *o.Fault.ExhaustiveMax
		}
		if o.Fault.FaultCycle != nil {
			fc.FaultCycle = *o.Fault.FaultCycle
		}
		opts = append(opts, sunfloor3d.WithFaultModel(fc))
	}
	if o.Space != nil {
		opts = append(opts, sunfloor3d.WithSpace(*o.Space))
	}
	if o.Contention != nil && *o.Contention {
		opts = append(opts, sunfloor3d.WithContention())
	}
	return opts, nil
}

// maxRequestBody bounds the accepted request size (specs are text; even
// hundreds of cores stay far below this). A larger body is answered 413.
const maxRequestBody = 8 << 20

// bodyReadTimeout bounds how long a client may take to send a submit body
// once the handler starts reading it; the daemon's ReadHeaderTimeout bounds
// the headers before it. A client that trickles its body is answered 400 and
// disconnected instead of holding a connection open indefinitely.
var bodyReadTimeout = 30 * time.Second

// requestIndex maps the SHA-256 of each submit body that passed decoding,
// Design, EngineOptions and Fingerprint to the request's fingerprint. Each of
// those steps is a pure function of the body, so an indexed body's key is the
// one the full path would compute, and a body whose result the cache holds is
// answered without being decoded, parsed or fingerprinted again.
type requestIndex struct {
	mu   sync.Mutex
	keys map[[sha256.Size]byte]string
	hits uint64
}

// maxIndexEntries bounds the request index, an entry being a digest and a
// fingerprint. A full index is reset; a body it forgot takes the full path
// again, as a first-seen one does.
const maxIndexEntries = 1024

// lookup returns the fingerprint of an indexed body and counts the hit.
func (x *requestIndex) lookup(digest [sha256.Size]byte) (string, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	key, ok := x.keys[digest]
	if ok {
		x.hits++
	}
	return key, ok
}

// add indexes a validated body's fingerprint.
func (x *requestIndex) add(digest [sha256.Size]byte, key string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.keys[digest]; !ok && len(x.keys) >= maxIndexEntries {
		clear(x.keys)
	}
	x.keys[digest] = key
}

// stats returns the index's part of the stats view.
func (x *requestIndex) stats() IndexStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return IndexStats{Entries: len(x.keys), Hits: x.hits}
}

// handleSubmit answers a synthesis request. A body the request index knows
// is answered from the cache at once. Any other body, or one whose result
// has left the cache or is still being computed, takes the full path, the
// one place a request is validated and enqueued. With ?wait=1 the response
// is the result body itself; otherwise it is 202 with the job view. Either
// way the fingerprint is exposed as X-Sunfloor-Key, and result bodies carry
// X-Sunfloor-Cache.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The whole body must arrive before the read deadline. Once it has, the
	// deadline is cleared: a read error on the connection while a ?wait=1
	// request waits for its synthesis would cancel the request context.
	// After a failed read it stays armed, so the server's drain of the
	// unread body before the error response cannot block on the same slow
	// client. A writer with no connection to set a deadline on reads
	// without one, so its error is dropped.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Sprintf("reading request body: %v", err))
		return
	}
	_ = rc.SetReadDeadline(time.Time{})
	waitArg := r.URL.Query().Get("wait")
	wait := waitArg == "1" || waitArg == "true"

	// The cache lookups, which can read and hash a disk entry, run before
	// s.mu is taken, so they never hold up other submissions. A hit consumes
	// no queue slot and no worker.
	digest := sha256.Sum256(raw)
	if key, ok := s.index.lookup(digest); ok {
		if body, prov, hit := s.cache.Peek(key); hit {
			s.answerHit(w, key, body, prov, wait)
			return
		}
	}
	var req SynthesizeRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("parsing request body: %v", err))
		return
	}
	design, err := req.Design()
	var opts []sunfloor3d.Option
	if err == nil {
		opts, err = req.Options.EngineOptions()
	}
	var key string
	if err == nil {
		key, err = sunfloor3d.Fingerprint(design, opts...)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.index.add(digest, key)
	if body, prov, hit := s.cache.Peek(key); hit {
		s.answerHit(w, key, body, prov, wait)
		return
	}
	w.Header().Set("X-Sunfloor-Key", key)
	opts = append(opts, sunfloor3d.WithScheduler(s.sched))

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	// Only submitters send on the queue, all under s.mu, so a free slot seen
	// here is still free below. A rejected submission registers no job: a
	// job that never runs would never turn terminal and never be evicted.
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "job queue is full, retry later")
		return
	}
	// A ?wait=1 request's response carries no job ID, so nobody could query
	// its job: it is left out of the registry.
	j := newJob("", key)
	if !wait {
		j = s.reg.add(key)
	}
	s.queue <- queued{job: j, design: design, opts: opts}
	s.mu.Unlock()

	if !wait {
		accepted(w, j)
		return
	}
	status, body, prov, errMsg := j.wait(r.Context().Done())
	switch status {
	case StatusDone:
		writeResult(w, prov, body)
	case StatusFailed:
		httpError(w, http.StatusUnprocessableEntity, errMsg)
	default:
		// Client went away before the job finished; the job keeps running.
		httpError(w, http.StatusRequestTimeout, "request cancelled while waiting")
	}
}

// answerHit answers a submission whose result the cache holds, found by the
// request index or by the fingerprint: with the result body under ?wait=1,
// otherwise with 202 and a job registered already done, whose endpoints
// serve the result.
func (s *Server) answerHit(w http.ResponseWriter, key string, body []byte, prov memo.Provenance, wait bool) {
	w.Header().Set("X-Sunfloor-Key", key)
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if wait {
		writeResult(w, prov, body)
		return
	}
	j := s.reg.add(key)
	s.reg.finish(j, body, prov, nil)
	accepted(w, j)
}

// accepted acknowledges an asynchronous submission with 202, the job view
// and the job's location.
func accepted(w http.ResponseWriter, j *job) {
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// writeResult answers with a canonical serialised Result and its cache
// provenance.
func writeResult(w http.ResponseWriter, prov memo.Provenance, body []byte) {
	w.Header().Set("X-Sunfloor-Cache", string(prov))
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleStatus answers with the job view.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleResult answers with the canonical serialised Result of a finished
// job, with the cache provenance and fingerprint in headers.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	j.mu.Lock()
	status, body, prov, errMsg := j.status, j.result, j.prov, j.err
	j.mu.Unlock()
	switch status {
	case StatusDone:
		w.Header().Set("X-Sunfloor-Key", j.key)
		writeResult(w, prov, body)
	case StatusFailed:
		httpError(w, http.StatusUnprocessableEntity, errMsg)
	default:
		httpError(w, http.StatusConflict, "job is not finished")
	}
}

// handleStream streams the job's progress events: one JSON object per line
// (NDJSON), or SSE "data:" frames when the client asks for
// text/event-stream. The stream replays history, follows live events and
// ends after the terminal event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Wake the cond-based follower when the client disconnects.
	clientGone := r.Context().Done()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-clientGone:
			j.cond.Broadcast()
		case <-stop:
		}
	}()

	next := 0
	for {
		j.mu.Lock()
		for next >= len(j.events) {
			select {
			case <-clientGone:
				j.mu.Unlock()
				return
			default:
			}
			j.cond.Wait()
		}
		batch := append([]ProgressEvent(nil), j.events[next:]...)
		next = len(j.events)
		j.mu.Unlock()

		for _, ev := range batch {
			line, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "data: %s\n\n", line)
			} else {
				fmt.Fprintf(w, "%s\n", line)
			}
			if ev.Type == "done" {
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// StatsView is the body of GET /v1/cache/stats.
type StatsView struct {
	Cache     memo.Stats                `json:"cache"`
	Index     IndexStats                `json:"request_index"`
	Scheduler sunfloor3d.SchedulerStats `json:"scheduler"`
	QueueLen  int                       `json:"queue_len"`
	QueueCap  int                       `json:"queue_cap"`
}

// IndexStats counts the request index's activity since the server started.
type IndexStats struct {
	// Entries is the number of request bodies the index maps to a
	// fingerprint.
	Entries int `json:"entries"`
	// Hits counts submissions whose body the index knew, including those
	// whose result had left the cache and was computed again.
	Hits uint64 `json:"hits"`
}

// handleStats reports cache, request index, scheduler and queue statistics.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsView{
		Cache:     s.cache.Stats(),
		Index:     s.index.stats(),
		Scheduler: s.sched.Stats(),
		QueueLen:  len(s.queue),
		QueueCap:  cap(s.queue),
	})
}

// errorBody is the JSON shape of every error response.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
