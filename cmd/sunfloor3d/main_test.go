package main

// Integration tests of the CLI: run() is driven in-process with the exact
// production flag set against golden stdout and golden on-disk artifacts.
// Regenerate the golden files after an intentional output change with:
//
//	go test ./cmd/sunfloor3d -update

import (
	"bytes"
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sunfloor3d"
	"sunfloor3d/internal/server"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// genArg is the workload every CLI test synthesizes: small enough to sweep in
// well under a second, generated so the test needs no fixture files.
const genArg = "shape=hotspot,cores=12,layers=2,seed=5"

// runCLI drives the production run() with the given arguments and returns
// stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String()
}

// checkGolden compares got against the named golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run 'go test ./cmd/sunfloor3d -update'): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from %s.\nIf intentional, regenerate with 'go test ./cmd/sunfloor3d -update'.\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

func TestCLIGenJSON(t *testing.T) {
	out := t.TempDir()
	stdout := runCLI(t, "-gen", genArg, "-json", "-out", out)
	checkGolden(t, "gen_hotspot.json", stdout)

	// The structured result on stdout and the result.json artifact are the
	// same serialisation.
	artifact, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(artifact) {
		t.Error("-json stdout differs from the result.json artifact")
	}
	for _, name := range []string{"topology.txt", "topology.dot", "report.txt", "floorplan.txt"} {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
}

func TestCLIGenText(t *testing.T) {
	out := t.TempDir()
	stdout := runCLI(t, "-gen", genArg, "-out", out)
	// The trailing "results written to <tmpdir>" line is machine-specific;
	// golden-compare everything before it.
	if !strings.Contains(stdout, "results written to "+out) {
		t.Errorf("stdout lacks the results line:\n%s", stdout)
	}
	stable := stdout[:strings.Index(stdout, "results written to")]
	checkGolden(t, "gen_hotspot.txt", stable)

	report, err := os.ReadFile(filepath.Join(out, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "gen_hotspot_report.txt", string(report))
}

func TestCLISpecFilesMatchGen(t *testing.T) {
	// Writing the generated design to spec files and loading it back through
	// -spec must synthesize to the byte-identical structured result.
	spec, err := sunfloor3d.ParseGenSpec(genArg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sunfloor3d.GenerateBenchmark(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	corePath := filepath.Join(dir, "design.cores")
	commPath := filepath.Join(dir, "design.comm")
	cf, err := os.Create(corePath)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := os.Create(commPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sunfloor3d.WriteDesign(cf, mf, b.Graph3D); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	mf.Close()

	fromGen := runCLI(t, "-gen", genArg, "-json", "-out", t.TempDir())
	fromSpec := runCLI(t, "-spec", corePath+","+commPath, "-json", "-out", t.TempDir())
	if fromGen != fromSpec {
		t.Error("-spec synthesis of the exported design differs from -gen")
	}
	fromPair := runCLI(t, "-cores", corePath, "-comm", commPath, "-json", "-out", t.TempDir())
	if fromGen != fromPair {
		t.Error("-cores/-comm synthesis differs from -gen")
	}
}

func TestCLIInputValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string // a part of the error, where it matters
	}{
		{args: []string{}}, // no design source
		{args: []string{"-gen", genArg, "-cores", "x.c"}},                          // two sources
		{args: []string{"-spec", "only-one-file"}},                                 // malformed -spec
		{args: []string{"-gen", "shape=teapot"}},                                   // unknown shape
		{args: []string{"-gen", genArg, "-freqs", "x"}},                            // bad frequency
		{args: []string{"-gen", genArg, "-phase", "bogus"}},                        // bad phase
		{args: []string{"-gen", genArg, "-alpha", "NaN", "-out", t.TempDir()}},     // NaN passes every x < 0 check
		{args: []string{"-cores", "missing.cores", "-comm", "missing.comm"}},       // missing files
		{args: []string{"-gen", genArg, "-server", "http://x", "-cache-dir", "y"}}, // exclusive modes
		{args: []string{"-gen", genArg, "-cache-dir", "y", "-simulate"}},           // sim needs live run
		{args: []string{"-gen", genArg, "-server", "http://x", "-simulate"}},       // sim needs live run
		{args: []string{"-gen", "shape=pipeline,cores=8,layers=2,seed=1", "-axis", "freq_mhz=400,600",
			"-shard", "1/0", "-out", t.TempDir()}}, // shard count below 1
		{args: []string{"-gen", genArg, "-simulate", "-sim-scale", "Inf", "-out", t.TempDir()}}, // +Inf passes every x > 0 check
		// 0 is the default, below is an error.
		{args: []string{"-gen", genArg, "-simulate", "-sim-cycles", "-5", "-out", t.TempDir()}, want: "-sim-cycles"},
		// The simulator's last cycle, -sim-cycles plus the drain cycles,
		// overflows an int64 (where int is 32 bits, the flag does not parse).
		{args: []string{"-gen", genArg, "-simulate", "-sim-cycles", "9223372036854775807", "-out", t.TempDir()}},
		// int(floor*slack*...) is out of range, so the constraints would
		// depend on the platform.
		{args: []string{"-gen", genArg + ",slack=Inf", "-out", t.TempDir()}, want: "LatencySlack"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%v) should fail", tc.args)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): error %q does not name %s", tc.args, err, tc.want)
		}
	}
}

// TestAxisFlagValidation pins the exact flag-parse-time diagnostics of the
// repeatable -axis flag: malformed forms, duplicate names, empty value lists
// and non-positive (including NaN/Inf, which ParseFloat accepts) values must
// all be rejected before the engine ever sees the space.
func TestAxisFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		sets    []string // fed to Set in order; the last one carries the expectation
		wantErr string   // exact error of the last Set; "" means it must succeed
	}{
		{"two distinct axes", []string{"freq_mhz=400,600", "vcs=1,2"}, ""},
		{"missing equals", []string{"freq_mhz"}, `-axis wants name=v1,v2,..., got "freq_mhz"`},
		{"empty name", []string{"=400"}, `-axis wants name=v1,v2,..., got "=400"`},
		{"duplicate name", []string{"freq_mhz=400", "freq_mhz=600"}, "duplicate axis freq_mhz"},
		{"empty value list", []string{"vcs="}, "axis vcs lists no values"},
		{"only separators", []string{"vcs=,,"}, "axis vcs lists no values"},
		{"unparsable value", []string{"vcs=abc"}, `invalid value "abc" for axis vcs`},
		{"zero value", []string{"freq_mhz=0"}, `axis freq_mhz value "0" is not a positive number`},
		{"negative value", []string{"freq_mhz=400,-600"}, `axis freq_mhz value "-600" is not a positive number`},
		{"NaN value", []string{"vcs=NaN"}, `axis vcs value "NaN" is not a positive number`},
		{"positive infinity", []string{"vcs=Inf"}, `axis vcs value "Inf" is not a positive number`},
		{"negative infinity", []string{"vcs=-Inf"}, `axis vcs value "-Inf" is not a positive number`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var a axisFlags
			var err error
			for _, s := range tc.sets {
				if err = a.Set(s); err != nil {
					break
				}
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Set(%q): unexpected error %v", tc.sets, err)
			case tc.wantErr == "" && len(a) != len(tc.sets):
				t.Fatalf("Set(%q) collected %d axes, want %d", tc.sets, len(a), len(tc.sets))
			case tc.wantErr != "" && err == nil:
				t.Fatalf("Set(%q) should fail with %q", tc.sets, tc.wantErr)
			case tc.wantErr != "" && err.Error() != tc.wantErr:
				t.Fatalf("Set(%q) error = %q, want %q", tc.sets, err, tc.wantErr)
			}
		})
	}
}

// runCLIWithStderr drives run() and returns stdout and stderr.
func runCLIWithStderr(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestCLICacheDir: a second run over the same -cache-dir skips synthesis,
// reports its provenance under -progress, and reproduces the structured
// result byte for byte.
func TestCLICacheDir(t *testing.T) {
	cacheDir := t.TempDir()

	coldOut := t.TempDir()
	coldStdout, coldStderr := runCLIWithStderr(t,
		"-gen", genArg, "-json", "-progress", "-cache-dir", cacheDir, "-out", coldOut)
	if !strings.Contains(coldStderr, "cache miss") || !strings.Contains(coldStderr, "result stored") {
		t.Errorf("cold run stderr lacks miss/store provenance:\n%s", coldStderr)
	}
	// The cold run is a live synthesis: all topology artifacts exist.
	if _, err := os.Stat(filepath.Join(coldOut, "topology.txt")); err != nil {
		t.Errorf("cold cached run should write topology artifacts: %v", err)
	}

	warmOut := t.TempDir()
	warmStdout, warmStderr := runCLIWithStderr(t,
		"-gen", genArg, "-json", "-progress", "-cache-dir", cacheDir, "-out", warmOut)
	if !strings.Contains(warmStderr, "cache hit (disk)") {
		t.Errorf("warm run stderr lacks hit provenance:\n%s", warmStderr)
	}
	if warmStdout != coldStdout {
		t.Error("cache-restored stdout differs from the computed run")
	}
	// The warm run restored a serialised result: metrics artifacts only.
	for _, name := range []string{"result.json", "report.txt"} {
		if _, err := os.Stat(filepath.Join(warmOut, name)); err != nil {
			t.Errorf("warm run missing %s: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(warmOut, "topology.txt")); err == nil {
		t.Error("warm run unexpectedly produced a topology artifact")
	}
	cold, err := os.ReadFile(filepath.Join(coldOut, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(filepath.Join(warmOut, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm result.json differs from cold result.json")
	}

	// The reports agree too: restored metrics are the computed metrics.
	coldReport, _ := os.ReadFile(filepath.Join(coldOut, "report.txt"))
	warmReport, _ := os.ReadFile(filepath.Join(warmOut, "report.txt"))
	if !bytes.Equal(coldReport, warmReport) {
		t.Error("warm report.txt differs from cold report.txt")
	}
}

// TestCLICheckpointResume: re-running an exploration over the same
// -checkpoint file restores every computed cell. The restored best point
// carries no live topology (same contract as a cache hit), so the rerun
// writes result.json and report.txt only — and must not crash on the
// missing topology.
func TestCLICheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "explore.ckpt")
	axes := []string{
		"-axis", "freq_mhz=400,600",
		"-axis", "link_width_bits=16,32",
		"-axis", "switch_count=1,2,3,4",
	}

	liveOut := t.TempDir()
	liveArgs := append([]string{"-gen", genArg, "-json", "-checkpoint", ckpt, "-out", liveOut}, axes...)
	liveStdout := runCLI(t, liveArgs...)
	if _, err := os.Stat(filepath.Join(liveOut, "topology.txt")); err != nil {
		t.Errorf("live explorer run should write topology artifacts: %v", err)
	}

	resumedOut := t.TempDir()
	resumedArgs := append([]string{"-gen", genArg, "-json", "-checkpoint", ckpt, "-out", resumedOut}, axes...)
	resumedStdout := runCLI(t, resumedArgs...)
	if resumedStdout != liveStdout {
		t.Error("checkpoint-restored stdout differs from the live run")
	}
	for _, name := range []string{"result.json", "report.txt"} {
		if _, err := os.Stat(filepath.Join(resumedOut, name)); err != nil {
			t.Errorf("resumed run missing %s: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(resumedOut, "topology.txt")); err == nil {
		t.Error("resumed run unexpectedly produced a topology artifact")
	}
	live, err := os.ReadFile(filepath.Join(liveOut, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(filepath.Join(resumedOut, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, resumed) {
		t.Error("resumed result.json differs from the live result.json")
	}
}

// TestServerClientRetryPolicy drives doServerRequest against scripted
// daemons: 5xx and connection failures are retried up to serverAttempts
// times with the fixed backoff schedule, 4xx surfaces immediately without a
// retry, and cancellation interrupts the backoff wait.
func TestServerClientRetryPolicy(t *testing.T) {
	ctx := context.Background()

	t.Run("recovers after transient 5xx", func(t *testing.T) {
		var hits int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if atomic.AddInt32(&hits, 1) <= 2 {
				http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte("ok"))
		}))
		defer ts.Close()
		resp, err := getURL(ctx, ts.URL, time.Second)
		if err != nil {
			t.Fatalf("request failed despite recovery: %v", err)
		}
		resp.Body.Close()
		if got := atomic.LoadInt32(&hits); got != 3 {
			t.Errorf("server hit %d times, want 3 (2 failures + 1 success)", got)
		}
	})

	t.Run("gives up after bounded attempts", func(t *testing.T) {
		var hits int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			atomic.AddInt32(&hits, 1)
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
		}))
		defer ts.Close()
		_, err := getURL(ctx, ts.URL, time.Second)
		if err == nil {
			t.Fatal("permanently failing server did not error")
		}
		if !strings.Contains(err.Error(), "giving up after 4 attempts") {
			t.Errorf("error %q does not report the attempt budget", err)
		}
		if got := atomic.LoadInt32(&hits); got != serverAttempts {
			t.Errorf("server hit %d times, want %d", got, serverAttempts)
		}
	})

	t.Run("4xx surfaces without retry", func(t *testing.T) {
		var hits int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			atomic.AddInt32(&hits, 1)
			http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
		}))
		defer ts.Close()
		resp, err := getURL(ctx, ts.URL, time.Second)
		if err != nil {
			t.Fatalf("4xx must be returned to the caller, got transport error %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
		if got := atomic.LoadInt32(&hits); got != 1 {
			t.Errorf("server hit %d times, want exactly 1 (no retry on 4xx)", got)
		}
	})

	t.Run("cancellation interrupts the backoff", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
		}))
		defer ts.Close()
		cctx, cancel := context.WithCancel(ctx)
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := getURL(cctx, ts.URL, time.Second)
		if err == nil {
			t.Fatal("cancelled request returned no error")
		}
		// The full backoff schedule is 1.75s; cancellation must cut it short.
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("cancellation took %v to surface", elapsed)
		}
	})

	t.Run("connection errors are retried", func(t *testing.T) {
		// A closed listener: every attempt fails at the dial, so the client
		// must walk the whole schedule and report the last dial error.
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		url := ts.URL
		ts.Close()
		_, err := getURL(ctx, url, 200*time.Millisecond)
		if err == nil {
			t.Fatal("unreachable server did not error")
		}
		if !strings.Contains(err.Error(), "giving up after 4 attempts") {
			t.Errorf("error %q does not report the attempt budget", err)
		}
	})
}

// TestCLIServerMode: -server submits to a daemon and writes the same
// structured result as a local run for every flag group the CLI forwards,
// under the key a local -cache-dir run uses; -progress relays the daemon's
// stream.
func TestCLIServerMode(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	// Every flag group the CLI forwards to the daemon, each off its
	// defaults: the server-mode answer must be byte-identical to the local
	// run, and the key the daemon reports must be the key a local
	// -cache-dir run files the result under, so the two share a cache.
	groups := []struct {
		name  string
		flags []string
	}{
		{"defaults", nil},
		{"sweep", []string{"-freqs", "400,700", "-max-ill", "4", "-phase", "phase2", "-alpha", "0.6"}},
		{"objective", []string{"-power-weight", "0.5", "-latency-weight", "2"}},
		{"space", []string{"-axis", "freq_mhz=400,600", "-axis", "switch_count=2,3,4", "-no-prune"}},
		{"sparing", []string{"-spares", "-yield-target", "0.95", "-process", "die-to-wafer"}},
		{"faults", []string{"-faults", "-fault-plans", "4", "-faults-per-plan", "2", "-fault-seed", "7"}},
		{"contention", []string{"-contention"}},
	}
	serverKey := regexp.MustCompile(`server answered from \w+ \(key ([0-9a-f]{64})\)`)
	localKey := regexp.MustCompile(`cache miss for ([0-9a-f]{64}):`)
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			args := func(extra ...string) []string {
				return append(append([]string{"-gen", genArg, "-json", "-out", t.TempDir()}, g.flags...), extra...)
			}
			local := runCLI(t, args()...)
			if remote := runCLI(t, args("-server", ts.URL)...); remote != local {
				t.Error("server-mode stdout differs from local synthesis")
			}
			remote, remoteErr := runCLIWithStderr(t, args("-progress", "-server", ts.URL)...)
			if remote != local {
				t.Error("server-mode -progress stdout differs from local synthesis")
			}
			cached, cachedErr := runCLIWithStderr(t, args("-progress", "-cache-dir", t.TempDir())...)
			if cached != local {
				t.Error("local -cache-dir stdout differs from local synthesis")
			}
			sk, lk := serverKey.FindStringSubmatch(remoteErr), localKey.FindStringSubmatch(cachedErr)
			switch {
			case sk == nil:
				t.Errorf("server-mode -progress reported no key:\n%s", remoteErr)
			case lk == nil:
				t.Errorf("-cache-dir -progress reported no key:\n%s", cachedErr)
			case sk[1] != lk[1]:
				t.Errorf("daemon key %s differs from the local cache key %s", sk[1], lk[1])
			}
		})
	}

	local := runCLI(t, "-gen", genArg, "-json", "-out", t.TempDir())
	remoteOut := t.TempDir()
	runCLI(t, "-gen", genArg, "-json", "-server", ts.URL, "-out", remoteOut)
	if _, err := os.Stat(filepath.Join(remoteOut, "result.json")); err != nil {
		t.Errorf("server mode missing result.json: %v", err)
	}
	if _, err := os.Stat(filepath.Join(remoteOut, "topology.txt")); err == nil {
		t.Error("server mode unexpectedly produced a topology artifact")
	}

	// -progress drives the asynchronous submit + NDJSON stream path. The
	// repeated request hits the daemon's cache, so the stream has only the
	// terminal event and the provenance line names the cache tier.
	_, stderr := runCLIWithStderr(t,
		"-gen", genArg, "-json", "-progress", "-server", ts.URL, "-out", t.TempDir())
	if !strings.Contains(stderr, "job j") || !strings.Contains(stderr, "server answered from memory") {
		t.Errorf("server-mode -progress stderr lacks job/provenance lines:\n%s", stderr)
	}

	// A fresh request through the async path streams real progress events.
	_, stderr2 := runCLIWithStderr(t,
		"-gen", "shape=pipeline,cores=8,layers=2,seed=3", "-json", "-progress", "-server", ts.URL, "-out", t.TempDir())
	if !strings.Contains(stderr2, "[") || !strings.Contains(stderr2, "switches @") {
		t.Errorf("async server run streamed no progress events:\n%s", stderr2)
	}
	if !strings.Contains(stderr2, "server answered from computed") {
		t.Errorf("fresh async run should be computed:\n%s", stderr2)
	}

	// Spec files embed as text and fingerprint like the equivalent -gen run,
	// so the daemon answers both from the same cache entry.
	spec, err := sunfloor3d.ParseGenSpec(genArg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sunfloor3d.GenerateBenchmark(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	corePath := filepath.Join(dir, "design.cores")
	commPath := filepath.Join(dir, "design.comm")
	cf, err := os.Create(corePath)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := os.Create(commPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sunfloor3d.WriteDesign(cf, mf, b.Graph3D); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	mf.Close()
	fromSpec := runCLI(t, "-spec", corePath+","+commPath, "-json", "-server", ts.URL, "-out", t.TempDir())
	if fromSpec != local {
		t.Error("server-mode -spec submission differs from local synthesis")
	}

	// A request the daemon rejects surfaces its JSON error message, on both
	// the synchronous and the asynchronous submission path.
	for _, args := range [][]string{
		{"-gen", genArg, "-alpha", "7.5", "-server", ts.URL, "-out", t.TempDir()},
		{"-gen", genArg, "-alpha", "7.5", "-progress", "-server", ts.URL, "-out", t.TempDir()},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "server:") || !strings.Contains(err.Error(), "alpha") {
			t.Errorf("run(%v) = %v, want a server-side alpha validation error", args, err)
		}
	}
}
