// Command sunfloor3d is the command-line front end of the SunFloor 3D
// topology synthesis tool. It reads or generates an SoC design, synthesizes
// the most power-efficient application-specific NoC topology meeting the 3-D
// technology constraints, and writes the resulting topology (text and DOT),
// the switch placement and floorplan, and a metrics report.
//
// Usage:
//
//	sunfloor3d -cores design.cores -comm design.comm [flags]
//	sunfloor3d -spec design.cores,design.comm [flags]
//	sunfloor3d -gen shape=hotspot,cores=40,layers=3,seed=7 [flags]
//
// The design comes from exactly one of three sources: the -cores/-comm file
// pair, the -spec shorthand naming both files in one flag, or -gen, which
// synthesizes a random but fully reproducible benchmark from the built-in
// workload generator (shapes: pipeline, hotspot, multiapp, layered; see
// sunfloor3d.GenSpec for all keys). The same -gen string always produces the
// same design, so generated workloads are exact test-case identifiers.
//
// The frequency sweep is given as a comma-separated list (-freqs 400,600,800)
// and evaluated on -jobs parallel workers; -json replaces the text summary on
// stdout with the structured result. Press Ctrl-C to cancel a long sweep.
//
// Repeatable -axis flags switch the run to the N-dimensional design-space
// explorer: -axis freq_mhz=400,600 -axis link_width_bits=16,32,64 sweeps the
// cross product of the axes (valid names: freq_mhz, switch_count, vcs,
// link_width_bits, layer_count, tsv_budget). The explorer prunes provably
// dominated regions before partitioning and routing; the pruning is exact
// (the Pareto front and best point match a -no-prune run byte for byte) and
// every pruning decision is visible under -progress. -checkpoint makes the
// exploration resumable: each finished cell is appended to the file, and
// rerunning the same command picks up where the interrupted run stopped.
// -shard 2/8 evaluates only every 8th cell starting at 2 — run one shard per
// machine with per-shard checkpoint files, concatenate the files, and resume
// from the merged checkpoint to get the exact full result.
//
// With -cache-dir the run consults an on-disk design-point cache keyed by the
// content fingerprint of the design and options (sunfloor3d.Fingerprint): a
// hit restores the canonical serialised result without synthesizing — the
// summary, result.json and report.txt come out as usual, topology artifacts
// are skipped — and a miss synthesizes and stores the result for the next
// run. The directory can be shared with a running sunfloor-server; the CLI
// and the daemon then serve each other's results. -progress reports the hit
// or miss and its provenance.
//
// Every run first fills one request from its flags: the design source (spec
// files are read as text) and every result-affecting option, encoded as
// internal/server's SynthesizeRequest. A local run builds its design and
// engine options from that request and adds the local-only options
// (-checkpoint, -shard, -simulate, -sim-band, -progress). With -server URL
// the CLI posts the same request to a sunfloor-server daemon instead, which
// also checks the option values; under -progress the server's per-point
// progress events are streamed back. The response is the daemon's canonical
// serialised result, byte-identical to a local run of the same request.
//
// With -simulate the flit-level traffic simulator runs on every valid design
// point (profile selected by -sim-profile: uniform, bursty or hotspot, seeded
// by -sim-seed, scaled by -sim-scale, for -sim-cycles injection cycles) and
// the best point's per-flow latency/throughput, link/switch utilization and
// deadlock-watchdog report is written to sim.txt. Under -progress each
// simulated point also reports its simulation wall time.
//
// -contention attaches the analytic M/D/1 contention estimate (per-flow
// waiting time on top of the exact zero-load latency) to every valid design
// point; it costs microseconds per point and is part of the serialised
// result. -sim-band F climbs the fidelity ladder: the estimate triages the
// sweep and only the points within fraction F of the estimated
// power/latency Pareto front are simulated (requires -simulate, implies
// -contention). Under -progress every point reports its triage decision.
//
// -cpuprofile and -memprofile write pprof profiles covering the whole run,
// so synthesis or simulation hot-path regressions can be diagnosed straight
// from the CLI (go tool pprof <file>).
//
// The spec file formats are documented in internal/model (one "core" or
// "flow" line per entity). Use cmd/specgen to emit the paper's benchmark
// suite in this format.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sunfloor3d"
	"sunfloor3d/internal/memo"
	"sunfloor3d/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sunfloor3d:", err)
		os.Exit(1)
	}
}

// run is the whole CLI behind main: flag parsing, building the request,
// synthesis (local, cached or remote), and output writing. It takes its
// arguments and output streams explicitly so the integration tests can drive
// the exact production flow in-process against golden stdout and artifacts.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sunfloor3d", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coreFile = fs.String("cores", "", "core specification file")
		commFile = fs.String("comm", "", "communication specification file")
		specPair = fs.String("spec", "", "core and communication specification files as one 'cores,comm' pair")
		genSpec  = fs.String("gen", "", "generate the design instead of loading it, e.g. shape=hotspot,cores=40,layers=3,seed=7")
		freqs    = fs.String("freqs", "400", "comma-separated NoC operating frequencies to sweep, in MHz")
		jobs     = fs.Int("jobs", 1, "parallel design-point evaluations (1 = serial, -1 = one per CPU)")
		maxILL   = fs.Int("max-ill", 25, "maximum links across adjacent layers (0 = unconstrained)")
		phase    = fs.String("phase", "auto", "connectivity method: auto, phase1 or phase2")
		alpha    = fs.Float64("alpha", 1.0, "bandwidth/latency weight of the partitioning graphs (0..1)")
		outDir   = fs.String("out", "sunfloor3d_out", "output directory")
		powerW   = fs.Float64("power-weight", 1.0, "objective weight on power (mW)")
		latencyW = fs.Float64("latency-weight", 0.5, "objective weight on average latency (cycles)")
		doFloor  = fs.Bool("floorplan", true, "insert the NoC components into the floorplan")
		asJSON   = fs.Bool("json", false, "print the structured result as JSON on stdout instead of the text summary")
		progress = fs.Bool("progress", false, "report each evaluated design point on stderr")

		withFaults  = fs.Bool("faults", false, "replay deterministic link-fault plans against every valid design point and attach the survivability report")
		faultPlans  = fs.Int("fault-plans", 16, "random fault plans per design point (exhaustive single-fault enumeration takes over on small designs)")
		faultsPer   = fs.Int("faults-per-plan", 1, "links failing together in each random fault plan")
		faultSeed   = fs.Int64("fault-seed", 1, "seed of the weighted fault-plan sampling")
		spares      = fs.Bool("spares", false, "provision spare TSVs/wires sized for -yield-target on -process")
		yieldTarget = fs.Float64("yield-target", 0.99, "functional-yield target of -spares, in (0, 1)")
		procName    = fs.String("process", "wafer-level-A", "manufacturing process of -spares: wafer-level-A, wafer-level-B or die-to-wafer")

		contention = fs.Bool("contention", false, "attach the analytic M/D/1 contention estimate to every valid design point")
		simBand    = fs.Float64("sim-band", 0, "fidelity ladder: simulate only the points within this fractional band of the estimated Pareto front (requires -simulate; implies -contention)")

		simulate   = fs.Bool("simulate", false, "run the flit-level traffic simulator on every valid design point")
		simCycles  = fs.Int("sim-cycles", 0, "simulation injection horizon in cycles (0 = default)")
		simProfile = fs.String("sim-profile", "uniform", "traffic profile: uniform, bursty or hotspot")
		simSeed    = fs.Int64("sim-seed", 1, "seed of the randomised injection profiles")
		simScale   = fs.Float64("sim-scale", 1.0, "injection-rate multiplier on every flow bandwidth")

		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")

		cacheDir  = fs.String("cache-dir", "", "on-disk design-point cache directory (shareable with sunfloor-server)")
		serverURL = fs.String("server", "", "submit the request to a sunfloor-server at this base URL instead of synthesizing locally")

		noPrune    = fs.Bool("no-prune", false, "evaluate the -axis space exhaustively instead of pruning dominated regions")
		checkpoint = fs.String("checkpoint", "", "resumable exploration checkpoint file; an interrupted run picks up where it left off (requires -axis)")
		shardSpec  = fs.String("shard", "", "evaluate one shard of the -axis space, e.g. -shard 0/4; merge shards by concatenating their -checkpoint files")
	)
	var axes axisFlags
	fs.Var(&axes, "axis", "explore a design-space axis as name=v1,v2,... (repeatable; names: freq_mhz, switch_count, layer_count, tsv_budget, vcs, link_width_bits)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return err
	}
	if *serverURL != "" && *cacheDir != "" {
		return fmt.Errorf("-server and -cache-dir are mutually exclusive (the daemon owns its own cache)")
	}
	if *simulate && (*serverURL != "" || *cacheDir != "") {
		return fmt.Errorf("-simulate cannot be combined with -server or -cache-dir: simulation statistics are not part of the serialised result")
	}
	if *simBand != 0 && !*simulate {
		return fmt.Errorf("-sim-band requires -simulate (there is no simulation to triage)")
	}
	if *simBand != 0 {
		// The band is cut on the contention estimate, so the ladder always
		// carries the estimator with it.
		*contention = true
	}
	if len(axes) == 0 && (*noPrune || *checkpoint != "" || *shardSpec != "") {
		return fmt.Errorf("-no-prune, -checkpoint and -shard require an exploration space (-axis)")
	}
	if *shardSpec != "" && *cacheDir != "" {
		return fmt.Errorf("-shard and -cache-dir are mutually exclusive: a shard's result is partial and must not poison the cache")
	}
	if *serverURL != "" && (*checkpoint != "" || *shardSpec != "") {
		return fmt.Errorf("-checkpoint and -shard are local-file features and cannot be combined with -server")
	}

	// The profiles cover the whole run — synthesis, per-point simulation and
	// output writing — so hot-path regressions anywhere in the pipeline can
	// be diagnosed straight from the CLI with go tool pprof.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "sunfloor3d: -memprofile:", err)
			}
			f.Close()
		}()
	}

	// One request carries the design and every result-affecting flag: it is
	// posted as-is under -server and run through the same translation
	// locally. Spec files travel as text, so the daemon parses what a local
	// run would.
	sources := 0
	for _, set := range []bool{*coreFile != "" || *commFile != "", *specPair != "", *genSpec != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one design source is required: -cores/-comm, -spec or -gen")
	}
	req := server.SynthesizeRequest{Gen: *genSpec}
	if *specPair != "" {
		parts := strings.Split(*specPair, ",")
		if len(parts) != 2 {
			return fmt.Errorf("-spec wants 'cores,comm', got %q", *specPair)
		}
		*coreFile, *commFile = strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	}
	if *genSpec == "" {
		if *coreFile == "" || *commFile == "" {
			return fmt.Errorf("both a core and a communication specification are required")
		}
		cores, err := os.ReadFile(*coreFile)
		if err != nil {
			return err
		}
		comm, err := os.ReadFile(*commFile)
		if err != nil {
			return err
		}
		req.CoresSpec, req.CommSpec = string(cores), string(comm)
	}
	sweep, err := parseFreqs(*freqs)
	if err != nil {
		return err
	}
	req.Options = &server.RequestOptions{
		FrequenciesMHz: sweep,
		MaxILL:         maxILL,
		Phase:          phase,
		Alpha:          alpha,
		PowerWeight:    powerW,
		LatencyWeight:  latencyW,
		Parallelism:    jobs,
		Contention:     contention,
	}
	if len(axes) > 0 {
		req.Options.Space = &sunfloor3d.Space{Axes: axes, NoPrune: *noPrune}
	}
	if *spares {
		req.Options.Sparing = &server.SparingRequest{Process: *procName, TargetYield: *yieldTarget}
	}
	if *withFaults {
		req.Options.Fault = &server.FaultRequest{Plans: faultPlans, FaultsPerPlan: faultsPer, Seed: faultSeed}
	}

	design, err := req.Design()
	if err != nil {
		return err
	}
	if !*asJSON {
		fmt.Fprintln(stdout, "design:", design.Summary())
	}
	out := output{dir: *outDir, asJSON: *asJSON, floorplan: *doFloor, simulate: *simulate,
		shard: *shardSpec != "", stdout: stdout, stderr: stderr}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *serverURL != "" {
		b, err := runViaServer(ctx, *serverURL, req, *progress, stderr)
		if err != nil {
			return err
		}
		res, err := sunfloor3d.ReadResult(bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("parsing server result: %w", err)
		}
		return writeOutputs(res, b, out)
	}

	opts, err := req.Options.EngineOptions()
	if err != nil {
		return err
	}
	if *checkpoint != "" {
		opts = append(opts, sunfloor3d.WithCheckpoint(*checkpoint))
	}
	if *shardSpec != "" {
		idx, cnt, err := parseShard(*shardSpec)
		if err != nil {
			return err
		}
		opts = append(opts, sunfloor3d.WithShard(idx, cnt))
	}
	if *simulate {
		profile, err := sunfloor3d.ParseSimProfile(*simProfile)
		if err != nil {
			return err
		}
		simCfg := sunfloor3d.DefaultSimConfig()
		simCfg.Profile = profile
		simCfg.Seed = *simSeed
		simCfg.InjectionScale = *simScale
		switch {
		case *simCycles < 0:
			return fmt.Errorf("-sim-cycles must be non-negative (0 = default), got %d", *simCycles)
		case *simCycles > 0:
			simCfg.Cycles = *simCycles
		}
		opts = append(opts, sunfloor3d.WithSimulation(simCfg))
	}
	if *simBand != 0 {
		opts = append(opts, sunfloor3d.WithSimBand(*simBand))
	}
	if *progress {
		opts = append(opts, sunfloor3d.WithProgress(func(ev sunfloor3d.Event) { printProgress(stderr, ev) }))
	}

	var (
		cache *memo.Cache
		key   string
	)
	if *cacheDir != "" {
		cache, err = memo.New(*cacheDir, 0)
		if err != nil {
			return err
		}
		key, err = sunfloor3d.Fingerprint(design, opts...)
		if err != nil {
			return err
		}
		if b, prov, ok := cache.Lookup(key); ok {
			if *progress {
				fmt.Fprintf(stderr, "cache hit (%s) for %s: synthesis skipped\n", prov, key)
			}
			res, err := sunfloor3d.ReadResult(bytes.NewReader(b))
			if err != nil {
				return fmt.Errorf("restoring cached result: %w", err)
			}
			return writeOutputs(res, b, out)
		}
		if *progress {
			fmt.Fprintf(stderr, "cache miss for %s: synthesizing\n", key)
		}
	}

	res, err := sunfloor3d.Synthesize(ctx, design, opts...)
	if err != nil {
		return err
	}
	b, err := res.MarshalStable()
	if err != nil {
		return err
	}
	if cache != nil {
		cache.Put(key, b)
		if *progress {
			fmt.Fprintf(stderr, "result stored under %s\n", key)
		}
	}
	return writeOutputs(res, b, out)
}

// printProgress writes one -progress line for a locally evaluated point.
func printProgress(w io.Writer, ev sunfloor3d.Event) {
	status := "ok"
	if !ev.Point.Valid {
		status = ev.Point.FailReason
	}
	simTime := ""
	if ev.Point.Sim != nil {
		simTime = fmt.Sprintf(" (sim %.2fms)", ev.Point.SimElapsed.Seconds()*1e3)
	}
	triage := ""
	if ev.Point.SimTriage != "" {
		triage = " [triage " + ev.Point.SimTriage + "]"
	}
	fmt.Fprintf(w, "[%d/%d] %d switches @ %.0f MHz (phase %d): %s%s%s\n",
		ev.Done, ev.Total, ev.Point.SwitchCount, ev.Point.FreqMHz, ev.Point.Phase, status, simTime, triage)
}

// output says where and how writeOutputs reports a run.
type output struct {
	dir       string
	asJSON    bool
	floorplan bool // -floorplan: write floorplan.txt
	simulate  bool // -simulate: write sim.txt
	shard     bool // -shard: a result without a valid point is not an error
	stdout    io.Writer
	stderr    io.Writer
}

// writeOutputs writes a result, whichever source produced it (the engine,
// the -cache-dir cache or a sunfloor-server daemon): the stdout summary (or
// resBytes, its canonical serialisation, under -json), result.json (exactly
// resBytes) and the best point's report.txt. Only a live synthesis leaves
// the best point with a topology; when it has one, the topology, DOT,
// floorplan and simulation artifacts are written too.
func writeOutputs(res *sunfloor3d.Result, resBytes []byte, out output) error {
	if out.asJSON {
		if _, err := out.stdout.Write(resBytes); err != nil {
			return err
		}
	} else {
		fmt.Fprint(out.stdout, res.Text())
	}
	best := res.Best()
	if best == nil {
		if out.shard {
			// A shard legitimately may own no valid cell; its deliverable is
			// the checkpoint file, not the topology artifacts.
			fmt.Fprintln(out.stderr, "shard holds no valid point; merge the shard checkpoints and rerun for the full result")
			return nil
		}
		return fmt.Errorf("no valid topology meets the constraints")
	}
	top := best.Topology()
	if top == nil && out.simulate {
		return fmt.Errorf("-simulate needs a live synthesis run; the best point was restored from the checkpoint")
	}
	if err := os.MkdirAll(out.dir, 0o755); err != nil {
		return err
	}
	writeFile := func(name, content string) error {
		return os.WriteFile(filepath.Join(out.dir, name), []byte(content), 0o644)
	}
	if err := writeFile("result.json", string(resBytes)); err != nil {
		return err
	}
	if err := writeFile("report.txt", best.Report()); err != nil {
		return err
	}
	if top == nil {
		// Restored from its serialised form (cache hit, daemon answer or
		// checkpoint record): metrics and JSON survive, the topology does not.
		if !out.asJSON {
			fmt.Fprintln(out.stdout, "topology artifacts skipped (restored result carries no live topology); results written to", out.dir)
		}
		return nil
	}
	if err := writeFile("topology.txt", top.Describe()); err != nil {
		return err
	}
	var dot bytes.Buffer
	if err := top.WriteDOT(&dot); err != nil {
		return err
	}
	if err := writeFile("topology.dot", dot.String()); err != nil {
		return err
	}
	if out.floorplan {
		fp, err := top.Floorplan()
		if err != nil {
			return fmt.Errorf("floorplan insertion: %w", err)
		}
		if err := writeFile("floorplan.txt", fp.Text()); err != nil {
			return err
		}
	}
	if out.simulate {
		if best.Sim == nil {
			return fmt.Errorf("best point carries no simulation statistics")
		}
		if err := writeFile("sim.txt", best.Sim.Report()); err != nil {
			return err
		}
		if !out.asJSON {
			fmt.Fprintf(out.stdout, "simulated %s traffic for %d cycles: %d/%d packets delivered, avg latency %.2f cycles, deadlock=%v\n",
				best.Sim.Profile, best.Sim.Cycles, best.Sim.PacketsDelivered, best.Sim.PacketsInjected,
				best.Sim.AvgLatencyCycles, best.Sim.Deadlock)
		}
	}
	if !out.asJSON {
		fmt.Fprintln(out.stdout, "results written to", out.dir)
	}
	return nil
}

// axisFlags collects repeated -axis flags, each of the form name=v1,v2,...
type axisFlags []sunfloor3d.Axis

func (a *axisFlags) String() string {
	var parts []string
	for _, ax := range *a {
		vals := make([]string, len(ax.Values))
		for i, v := range ax.Values {
			vals[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		parts = append(parts, ax.Name+"="+strings.Join(vals, ","))
	}
	return strings.Join(parts, " ")
}

func (a *axisFlags) Set(s string) error {
	name, list, ok := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return fmt.Errorf("-axis wants name=v1,v2,..., got %q", s)
	}
	// Reject the malformed spellings here, at flag-parse time, so the user
	// sees which -axis argument is wrong instead of a late engine error; the
	// engine re-validates the assembled Space anyway.
	for _, ax := range *a {
		if ax.Name == name {
			return fmt.Errorf("duplicate axis %s", name)
		}
	}
	var vals []float64
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return fmt.Errorf("invalid value %q for axis %s", part, name)
		}
		// ParseFloat happily accepts "NaN" and "Inf", so the positivity
		// check must name them explicitly.
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("axis %s value %q is not a positive number", name, part)
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return fmt.Errorf("axis %s lists no values", name)
	}
	*a = append(*a, sunfloor3d.Axis{Name: name, Values: vals})
	return nil
}

// parseShard parses -shard's "index/count" form.
func parseShard(s string) (index, count int, err error) {
	is, cs, ok := strings.Cut(s, "/")
	if ok {
		index, err = strconv.Atoi(strings.TrimSpace(is))
		if err == nil {
			count, err = strconv.Atoi(strings.TrimSpace(cs))
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-shard wants index/count (e.g. 0/4), got %q", s)
	}
	return index, count, nil
}

// runViaServer submits the request to a sunfloor-server and returns the
// daemon's canonical serialised result. Without -progress it uses the
// synchronous wait form; with -progress it submits asynchronously and relays
// the daemon's NDJSON progress stream to stderr.
func runViaServer(ctx context.Context, baseURL string, req server.SynthesizeRequest, progress bool, stderr io.Writer) ([]byte, error) {
	base := strings.TrimRight(baseURL, "/")
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp *http.Response
	if !progress {
		if resp, err = postJSON(ctx, base+"/v1/synthesize?wait=1", body, 0); err != nil {
			return nil, err
		}
	} else {
		ack, err := postJSON(ctx, base+"/v1/synthesize", body, submitTimeout)
		if err != nil {
			return nil, err
		}
		if ack.StatusCode != http.StatusAccepted {
			defer ack.Body.Close()
			return nil, serverError(ack)
		}
		var view server.JobView
		err = json.NewDecoder(ack.Body).Decode(&view)
		ack.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("parsing job acknowledgement: %w", err)
		}
		fmt.Fprintf(stderr, "job %s submitted (key %s)\n", view.ID, view.Key)
		if err := relayStream(ctx, base+"/v1/jobs/"+view.ID+"/stream", stderr); err != nil {
			return nil, err
		}
		if resp, err = getURL(ctx, base+"/v1/jobs/"+view.ID+"/result", resultTimeout); err != nil {
			return nil, err
		}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, serverError(resp)
	}
	if progress {
		fmt.Fprintf(stderr, "server answered from %s (key %s)\n", resp.Header.Get("X-Sunfloor-Cache"), resp.Header.Get("X-Sunfloor-Key"))
	}
	return io.ReadAll(resp.Body)
}

// relayStream copies the daemon's progress events to stderr in the CLI's
// -progress line format, returning an error when the job failed.
func relayStream(ctx context.Context, url string, stderr io.Writer) error {
	resp, err := getURL(ctx, url, 0)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serverError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev server.ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("bad progress event %q: %w", sc.Text(), err)
		}
		switch ev.Type {
		case "progress":
			status := "ok"
			switch {
			case ev.Pruned:
				status = "pruned"
			case !ev.Valid:
				status = "invalid"
			}
			fmt.Fprintf(stderr, "[%d/%d] %d switches @ %.0f MHz: %s\n",
				ev.Done, ev.Total, ev.SwitchCount, ev.FreqMHz, status)
		case "done":
			if ev.Status == server.StatusFailed {
				return fmt.Errorf("server: %s", ev.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("progress stream ended without a terminal event")
}

// Transient-failure policy of the -server client. Every request runs under
// its own per-attempt timeout (0 = unbounded, reserved for the long-lived
// progress stream and the synchronous wait call, whose durations are the
// synthesis itself); connection-level errors and 5xx responses are retried
// with a deterministic, jitterless exponential backoff — the daemon is
// content-addressed and single-flight, so resubmitting an identical request
// is idempotent. 4xx responses, malformed bodies and context cancellation
// surface immediately.
const (
	serverAttempts     = 4
	serverRetryBackoff = 250 * time.Millisecond
	submitTimeout      = 30 * time.Second
	resultTimeout      = 2 * time.Minute
)

// doServerRequest issues one HTTP exchange against the daemon under the
// client's retry policy. The returned response has a non-5xx status; the
// caller owns its body.
func doServerRequest(ctx context.Context, method, url string, body []byte, timeout time.Duration) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < serverAttempts; attempt++ {
		if attempt > 0 {
			// 250ms, 500ms, 1s — fixed schedule, no jitter: reproducible
			// client behaviour beats thundering-herd protection for a
			// single-user CLI.
			delay := serverRetryBackoff << (attempt - 1)
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		hr, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			hr.Header.Set("Content-Type", "application/json")
		}
		client := &http.Client{Timeout: timeout}
		resp, err := client.Do(hr)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err // connection refused/reset, per-attempt timeout: transient
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr = serverError(resp)
			resp.Body.Close()
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("server: giving up after %d attempts: %w", serverAttempts, lastErr)
}

// postJSON issues a POST with a JSON body under the retry policy.
func postJSON(ctx context.Context, url string, body []byte, timeout time.Duration) (*http.Response, error) {
	return doServerRequest(ctx, http.MethodPost, url, body, timeout)
}

// getURL issues a GET under the retry policy.
func getURL(ctx context.Context, url string, timeout time.Duration) (*http.Response, error) {
	return doServerRequest(ctx, http.MethodGet, url, nil, timeout)
}

// serverError turns a non-success daemon response into an error, surfacing
// the JSON error body when there is one.
func serverError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
}

// parseFreqs parses a comma-separated frequency list like "400,600,800".
func parseFreqs(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid frequency %q in -freqs", part)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-freqs lists no frequencies")
	}
	return out, nil
}
