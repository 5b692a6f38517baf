// Package sunfloor3d is a from-scratch Go implementation of SunFloor 3D, the
// application-specific network-on-chip topology synthesis tool for 3-D
// systems on chips by Seiculescu, Murali, Benini and De Micheli (DATE 2009 /
// IEEE TCAD 29(12), 2010).
//
// The root package is the public, supported API. A synthesis run takes a
// context, a *Design (cores with 3-D layer assignment and floorplan
// positions, plus communication flows) and functional options, evaluates the
// frequency x switch-count design-point sweep on a bounded worker pool, and
// returns a structured *Result with stable JSON marshalling:
//
//	design, err := sunfloor3d.NewDesign(cores, flows)
//	...
//	res, err := sunfloor3d.Synthesize(ctx, design,
//		sunfloor3d.WithFrequenciesMHz(400, 600),
//		sunfloor3d.WithMaxILL(10),
//		sunfloor3d.WithParallelism(-1), // one worker per CPU
//	)
//	...
//	best := res.Best()
//	fmt.Println(best.Report(), best.Topology().Describe())
//
// Cancelling the context stops a sweep promptly; WithProgress streams one
// Event per evaluated design point; serial and parallel runs return
// bit-identical results. See README.md for the full quickstart and the CLI
// flag reference.
//
// A DesignPoint embeds the engine's serialised point (internal/synth.Point),
// so its fields (FreqMHz, SwitchCount, Metrics, Route, ...) and Cost are
// promoted from there, and their documentation lives on that type. Read
// points from a Result; a composite literal naming those fields
// (sunfloor3d.DesignPoint{FreqMHz: ...}) does not compile. Benchmark is one
// type for the paper's designs, generated designs and loaded spec files.
//
// # The synthesis hot path
//
// The frequency x switch-count sweep shares its partitioning work run-wide:
// the PG/SPG/LPG graphs and their min-cut partitions depend only on the
// communication graph and the partitioning parameters, so each is computed
// once and shared read-only across all swept frequencies and workers
// (Result.Cache reports the hit/miss counts). Inside the router, the
// per-flow arc-cost graph of Algorithm 3 is one flat table holding each
// switch pair's geometry, link existence and a block bit; the search prices
// each arc as it relaxes it from small per-switch port records and a
// per-layer-pair max_ill verdict, so a committed path updates only those
// records and refreshes no arc. The shortest-path search is goal-directed
// (A*): a consistent lower bound read from the arc table's destination row,
// a tie rule and a guard that falls back to plain Dijkstra make it return
// exactly Dijkstra's paths and costs while settling fewer switches; it scans
// only the switches it has not settled, and deadlock retries overlay
// forbidden arcs on it instead of rebuilding anything. Algorithm 1 builds
// no attempt whose outcome is decided before it runs (a theta retry that
// repeats a core assignment already tried for its switch count, a Phase-2
// fallback step whose switch count no unmet count needs), so it retains
// exactly the exhaustive sweep's points from fewer attempts. Every DesignPoint records
// its router statistics (Route) and wall-clock build time (Elapsed). The
// repository's benchmark, `bash perf/run.sh` (see perf/README.md), times the
// sweep end to end and per layer; BENCH_PR2.json is frozen history of the
// hot path's original speed-up that nothing regenerates.
//
// # Flit-level simulation
//
// WithSimulation(SimConfig) runs a deterministic, seedable flit-level
// wormhole simulator on every valid design point and attaches the resulting
// SimStats to DesignPoint.Sim: per-flow achieved latency and throughput,
// per-link and per-switch utilization, and a runtime deadlock/livelock
// watchdog verdict. The simulator replays the committed per-flow routes with
// finite virtual-channel buffers, credit-based flow control and round-robin
// output arbitration under one of three injection profiles (SimUniform,
// SimBursty, SimHotspot). Topology.Simulate re-simulates one synthesized
// topology under further traffic scenarios without re-running synthesis, and
// Topology.ZeroLoadLatencies measures every flow in isolation.
//
// The simulator and the analytic models are kept in exact agreement, and the
// test suite enforces it on every benchmark:
//
//   - Zero-contention simulated head-flit latency equals
//     Metrics latencies (Topology.FlowLatencyCycles) exactly. The shared
//     model: one cycle per traversed switch, plus LinkPipelineStages for
//     each core-to-switch, switch-to-switch and switch-to-core link at the
//     current switch positions. The NI itself is charged zero cycles — its
//     injection link costs only its pipeline stages — matching the analytic
//     zero-load model. No intentional modeling gap remains; contention,
//     serialisation (packets longer than one flit) and arbitration delays
//     appear only under load, which is the simulator's purpose.
//   - A design point whose channel dependency graph is acyclic
//     (internal/route.DeadlockFree, the static check of Algorithm 3) never
//     trips the simulator's runtime deadlock watchdog; hand-built cyclic
//     route sets do.
//
// SimStats is deterministic — same topology, config and seed give
// byte-identical statistics — and is excluded from Result JSON the way
// Elapsed and Cache are, so serialised results stay byte-identical with and
// without simulation.
//
// Because WithSimulation runs once per valid design point, the execution
// core is built for sweep throughput: packets live in an index-based arena
// with a free list, VC buffers are fixed-capacity ring buffers carved from
// one block, routing uses dense per-switch tables with the output port
// cached once per hop, and a cycle costs in proportion to the output ports
// with work: it walks a bitset of the ports that carry a packet or have a
// requesting head flit, and each port arbitrates over its own request set,
// a bitset of the VCs whose head flit requests it, rather than over every
// candidate of its switch (idle NIs are skipped, and a drained network
// fast-forwards to the next injector event). A steady-state cycle
// performs no heap allocation, and SimConfig.StatsLevel (SimStatsSummary)
// skips the per-link/per-switch tables a sweep discards. The
// pre-optimization engine is kept only in the simulator's tests, as an
// equivalence oracle: the production core is verified byte-identical to it
// by equivalence tests over deadlock fixtures and a hub switch with 108
// candidates and by the FuzzSimDeterminism harness, and over the golden
// corpus by digests the reference wrote.
// `bash perf/run.sh --workload sim` times the simulator; BENCH_PR4.json is
// frozen history that nothing regenerates.
// DesignPoint.SimElapsed reports each point's simulation wall time.
//
// # The fidelity ladder
//
// WithContention() inserts an analytic rung between the exact zero-load
// model and the flit simulator: an M/D/1-style waiting-time estimate
// computed from the committed routes in microseconds per point. Each link's
// offered load is the sum of its flows' bandwidths, its service time
// follows from link width and frequency, and a flow's estimated latency is
// its exact zero-load latency plus the sum of per-hop waiting estimates;
// links at or beyond capacity are counted in ContentionEstimate
// SaturatedLinks and their waits clamped, so the estimate is never NaN or
// Inf. The result is attached to every valid point as
// DesignPoint.Contention, serialised under "contention", and is
// byte-deterministic across serial, parallel, cached, checkpointed and
// sharded runs.
//
// The estimate is trustworthy exactly where its assumptions hold: at low to
// moderate link utilization it tracks the simulator closely (the property
// suite bounds the error at a factor of two below 50% utilization), while
// at saturation it still ranks points usefully but its absolute waits are
// model artifacts — SaturatedLinks and MaxUtilization say which regime a
// point is in.
//
// WithSimBand(frac) builds the ladder's triage step on top: instead of
// simulating every valid point, only the points within the estimated Pareto
// band on (power, estimated latency) are simulated (SimTriage "sim"), the
// rest keep their analytic estimate (SimTriage "skip"). The band respects
// where the estimate can be wrong: a skip requires an outright dominator
// that clears a (1+frac) factor on the exactly-computed power coordinate,
// or a latency win that survives hedging both points' estimated waiting
// components by (1+frac) each way. Triage decisions are order-independent
// and flow through progress events, the server stream and checkpoint
// records; memo keys include the band so triaged and full-sim results never
// alias. With WithSpace the band is cut per exploration cell, which keeps
// checkpointed and sharded cells final and exactly mergeable, and the
// estimated latency doubles as the branch-and-bound witness coordinate so
// pruning stays exact for the triage band. The property suite checks that
// a banded run's Pareto front and best point serialise the same as the
// full-simulation run; BENCH_PR10.json is frozen history of the ladder's
// original speed-up that nothing regenerates.
//
// # Generating and loading custom workloads
//
// Beyond the paper's seven fixed benchmarks (Benchmarks, BenchmarkByName),
// GenerateBenchmark samples whole families of SoC designs from a GenSpec:
// a traffic shape (ShapePipeline, ShapeHotspot, ShapeMultiApp,
// ShapeLayered), core and layer counts, a seed, and optional
// core-size/bandwidth/latency distribution knobs. Every generated design is
// connected and satisfiable (all latency constraints sit above a
// conservative floor), and generation is a pure function of the spec — the
// same GenSpec yields byte-identical designs on every run, so
// (shape, cores, layers, seed) tuples are exact test-case identifiers:
//
//	bench, err := sunfloor3d.GenerateBenchmark(sunfloor3d.GenSpec{
//		Shape: sunfloor3d.ShapeHotspot, Cores: 40, Layers: 3, Seed: 7,
//	})
//	...
//	res, err := sunfloor3d.Synthesize(ctx, bench.Graph3D,
//		sunfloor3d.WithRequireLatencyMet(true))
//
// LoadBenchmark wraps the spec-file parsers (the text formats of
// WriteDesign and cmd/specgen) into the same Benchmark form, and
// ParseGenSpec parses the CLI's -gen string ("shape=hotspot,cores=40,...").
// The property harness in properties_test.go runs the full
// synthesize -> route -> floorplan -> simulate pipeline over dozens of
// generated workloads per shape and asserts the cross-layer invariants
// (latency constraints honored, acyclic channel dependency graphs, no
// simulator deadlocks, zero-load simulation equal to the analytic model,
// serial == parallel, byte-stable JSON) on the whole distribution.
//
// # Exploring large design spaces
//
// WithSpace(Space) runs the N-dimensional explorer: any subset of
// freq_mhz, layer_count, tsv_budget, vcs, link_width_bits and switch_count
// becomes an explicit Axis, and the engine enumerates the cross product in
// a deterministic order. Pruning is exact, never heuristic: within one
// frequency only the first (vcs, link width) cell is evaluated, because
// neither axis affects a result-affecting metric, and a switch count whose
// analytic power floor already exceeds the best valid point at an
// admissible latency floor is cut before its topology is built. Pruned
// points stay in Result.Points as Pruned stubs whose FailReason names the
// rule that cut them, and progress events carry the marker. The guarantee
// — enforced by the facade tests and the property harness — is that a
// pruned run's ParetoFront and Best are byte-identical to an exhaustive
// Space{NoPrune: true} run.
//
// The engine has one sweep driver: a classic sweep is the one-axis
// (frequency) exploration of WithFrequenciesMHz with pruning off. It adds
// two steps over the whole run that an exploration cannot apply: the
// WithSimBand band is cut over all points, and the LP refinement is applied
// to the best point. An exploration cuts the band per cell and never
// refines, so every cell is final when it is checkpointed.
//
// WithCheckpoint(path) makes an exploration resumable: each computed cell
// is appended to a JSON-lines file keyed by the run's cache fingerprint
// (atomic appends; torn trailing lines are ignored; a checkpoint written
// for different inputs is rejected; a record whose points no longer match
// their SHA-256 is dropped and its cell recomputed). WithShard(i, n) makes
// a run own only the cells with cell%n == i; shards share the fingerprint,
// so their checkpoint files merge by plain concatenation and a final run
// with the merged file restores the union. Shard results are partial and
// are never stored in the content-addressed cache. The CLI exposes the
// same surface as -axis name=v1,v2,... (repeatable), -no-prune,
// -checkpoint and -shard i/n; the server accepts the space as
// options.space. Tests check front/best byte-identity between pruned and
// brute-force runs, and that a classic sweep without its whole-run steps
// serialises like its one-axis exploration; `bash perf/run.sh --workload
// signoff` times an exploration; BENCH_PR8.json is frozen history of the
// pruning speed-up that nothing regenerates.
//
// # Synthesis as a service
//
// Every synthesis request has a canonical content address:
// Fingerprint(design, opts...) returns a versioned SHA-256 over the
// communication graph and every result-affecting option. Execution knobs —
// parallelism, progress callbacks, scheduler wiring — are excluded from the
// hash, which is sound because the engine's determinism guarantee makes them
// invisible in the serialised result.
// Result.MarshalStable and ReadResult convert a Result to and from that
// canonical serialisation (the WriteJSON bytes, byte-stable across runs).
// Together they back internal/memo, the content-addressed design-point
// cache: an in-memory LRU over an on-disk store with single-flight
// deduplication, shareable between processes. Each disk entry carries the
// SHA-256 of its value, and an entry that no longer matches it is dropped
// and recomputed. The CLI joins it with
// `sunfloor3d -cache-dir DIR` — a hit skips synthesis entirely and restores
// the result from its bytes (a restored result carries metrics and reports
// but no live Topology).
//
// cmd/sunfloor-server serves the engine over HTTP/JSON (the subsystem is
// internal/server): POST /v1/synthesize validates a request (a design as
// spec text or a generator string plus options), answers cache hits
// immediately, and queues misses on a bounded job queue drained by a worker
// pool; GET /v1/jobs/{id}/stream relays per-design-point progress as NDJSON
// or SSE, and responses are the canonical serialisation — byte-identical to
// a local Synthesize of the same request, whichever tier answered
// (the X-Sunfloor-Cache header says which). `sunfloor3d -server URL`
// submits through a daemon instead of synthesizing locally.
//
// All jobs in a process share one fair-share scheduler rather than spawning
// a worker pool per call: NewScheduler bounds the process-wide number of
// concurrently evaluated design points, WithScheduler attaches a run to it,
// and WithFairShareWeight sets the run's share (stride scheduling: slots are
// granted to the eligible run with the least accumulated pass, so a
// weight-2 run gets twice the slots of a weight-1 run under contention and
// nobody starves). Scheduling never changes results — design points land at
// pre-assigned indices. BenchmarkServerThroughput
// ("go test -bench=ServerThroughput -benchtime=1x") records cold-vs-warm
// request latency and concurrent warm throughput to BENCH_PR6.json.
//
// # Fault-aware synthesis and sparing
//
// WithSparing(process, targetYield) provisions spare TSVs on vertical
// inter-switch links and spare wires on planar ones, sized so the
// fabricated link set reaches the functional-yield target on the given
// manufacturing process (ProcessByName / StandardProcesses); the extra TSV
// count is reported in Metrics.SpareTSVMacros. WithFaultModel(cfg) replays
// deterministic link-fault plans against every valid design point — the
// exhaustive single-fault enumeration on small designs, a
// seed-deterministic failure-probability-weighted random sample otherwise —
// and attaches the verdict to DesignPoint.Survivability (serialised under
// "survivability"). Every plan ends absorbed (a spare masked each fault),
// repaired (stranded flows re-routed over the surviving links by
// internal/route.RepairRoutes, with the repaired route set re-validated
// for connectivity, capacity and channel-dependency-graph acyclicity) or
// certified dead (some flow provably has no surviving path):
//
//	proc, _ := sunfloor3d.ProcessByName("wafer-level-A")
//	res, err := sunfloor3d.Synthesize(ctx, design,
//		sunfloor3d.WithSparing(proc, 0.99),
//		sunfloor3d.WithFaultModel(sunfloor3d.DefaultFaultModelConfig()))
//	...
//	rep := res.Best().Survivability
//	// e.g. rep.Plans=3 (exhaustive), rep.Absorbed=1, rep.Repaired=1,
//	// rep.Dead=1, rep.ReroutedFlows=1, rep.WorstLatencyInflation=1.18:
//	// one fault masked by a spare, one survived by re-routing a single
//	// flow at an 18% zero-load latency cost, one link a single point of
//	// failure. Survived/Plans < 1 with sparing on means the yield target
//	// or the topology needs revisiting.
//
// Combined with WithSimulation, every non-absorbed plan is cross-validated
// in the flit simulator: the fault is injected into the unrepaired topology
// at cfg.FaultCycle (SimDetected counts watchdog flags) and the repaired
// topology must complete a clean run (SimDeadlocks stays 0). A plan that
// leaves a stranded flow's destination switch unreachable over the surviving
// links is certified dead without routing, and a plan that kills the same
// links as an earlier plan of the same replay repeats that plan's outcome.
// The replay is fully deterministic — plans, spare sizing, repairs and
// reports are byte-identical across serial, parallel, cached and uncached
// runs (TestFaultProperties asserts this over generated workloads of every
// shape), and the cache fingerprint covers both options, so fault-aware
// and plain results never alias.
//
// # Determinism contract and static enforcement
//
// Everything above assumes one contract: a Result is a pure function of the
// communication graph and the result-affecting options — byte-identical
// across runs, worker counts, schedulers, caches and hosts. The golden
// corpus, the property harness and the soundness of the content-addressed
// cache all rest on it. internal/determlint enforces the contract at
// compile time: the maprange, floataccum and wallclock analyzers ban
// nondeterministically-ordered map iteration, float accumulation under
// unordered iteration, and wall-clock/global-rand reads in result-affecting
// packages (with written //determlint waivers for provably
// order-independent sites). The cmd/sunfloor-lint multichecker runs these
// three analyzers together with go vet ("go run ./cmd/sunfloor-lint ./..."),
// and CI blocks on it. The cache fingerprint needs no analyzer: it walks the
// graph and the options by reflection and hashes every exported field except
// a short list of execution knobs, each justified in writing, so a new
// option is hashed without any edit to the key. In internal/memo,
// TestKeyCoversEveryLeaf flips every reachable leaf and requires each flip
// to move the key while knob flips do not, and TestExecutionKnobsAreFields
// requires every knob entry to name a real field and carry a justification.
//
// The implementation lives in the internal/ packages:
//
//   - internal/model      — cores, flows and the communication graph
//   - internal/noclib     — switch/link/TSV power, delay, area and yield models
//   - internal/graph      — weighted graphs and balanced min-cut partitioning
//   - internal/partition  — the PG, SPG and LPG partitioning graphs
//   - internal/lp         — simplex LP solver for switch placement, built without maps
//   - internal/topology   — the NoC topology data structure and its evaluation
//   - internal/route      — deadlock-free path computation under 3-D constraints
//   - internal/sim        — deterministic flit-level wormhole traffic simulator
//   - internal/fault      — fault plans, spare sizing and the survivability replay
//   - internal/place      — switch-position LP, its per-run memo, and floorplan insertion
//   - internal/floorplan  — SA sequence-pair floorplanner (Parquet substitute), O(n log n) per move
//   - internal/mesh       — optimized-mesh baseline
//   - internal/synth      — the SunFloor 3D synthesis engine (Phases 1 and 2)
//   - internal/memo       — content-addressed design-point result cache
//   - internal/server     — the synthesis daemon's HTTP/JSON surface
//   - internal/bench      — the paper's benchmark suite, synthesized
//   - internal/workload   — seed-deterministic random SoC benchmark generator
//   - internal/determlint — static analyzers enforcing the determinism contract
//   - internal/experiments — one runner per table/figure of the evaluation
//
// The executables in cmd/ (sunfloor3d, specgen, sunfloor-bench,
// sunfloor-server, sunfloor-lint) and the
// programs in examples/ exercise the flow end to end through the public API;
// bench_test.go exposes every paper experiment as a Go benchmark.
package sunfloor3d
