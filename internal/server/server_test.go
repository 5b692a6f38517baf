package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sunfloor3d"
	"sunfloor3d/internal/server"
)

// fastGen is a small workload that synthesizes in well under a second.
const fastGen = "shape=pipeline,cores=8,layers=2,seed=1"

// newTestServer starts a Server with the given config behind httptest.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// submit POSTs a synthesize request and returns the response.
func submit(t *testing.T, ts *httptest.Server, body string, wait bool) *http.Response {
	t.Helper()
	url := ts.URL + "/v1/synthesize"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// directResult runs the same request through the in-process facade and
// returns the canonical serialised Result.
func directResult(t *testing.T, gen string, opts ...sunfloor3d.Option) []byte {
	t.Helper()
	spec, err := sunfloor3d.ParseGenSpec(gen)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sunfloor3d.GenerateBenchmark(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sunfloor3d.Synthesize(context.Background(), b.Graph3D, opts...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerWaitRoundTrip: a synchronous submit returns exactly the bytes a
// direct Synthesize+WriteJSON produces, and resubmitting hits the cache with
// an identical body.
func TestServerWaitRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	body := fmt.Sprintf(`{"gen":%q}`, fastGen)

	resp := submit(t, ts, body, true)
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold submit: status %d: %s", resp.StatusCode, got)
	}
	if prov := resp.Header.Get("X-Sunfloor-Cache"); prov != "computed" {
		t.Fatalf("cold submit provenance = %q, want computed", prov)
	}
	if resp.Header.Get("X-Sunfloor-Key") == "" {
		t.Fatal("no fingerprint header on response")
	}
	want := directResult(t, fastGen)
	if !bytes.Equal(got, want) {
		t.Fatalf("served result differs from direct synthesis:\nserved %d bytes, direct %d bytes", len(got), len(want))
	}

	resp2 := submit(t, ts, body, true)
	got2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if prov := resp2.Header.Get("X-Sunfloor-Cache"); prov != "memory" {
		t.Fatalf("warm submit provenance = %q, want memory", prov)
	}
	if !bytes.Equal(got2, got) {
		t.Fatal("warm body differs from cold body")
	}
}

// TestServerDiskCacheAcrossRestart: a second server on the same cache
// directory answers from disk with identical bytes.
func TestServerDiskCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	body := fmt.Sprintf(`{"gen":%q}`, fastGen)

	_, ts1 := newTestServer(t, server.Config{CacheDir: dir})
	resp := submit(t, ts1, body, true)
	cold, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, cold)
	}

	_, ts2 := newTestServer(t, server.Config{CacheDir: dir})
	resp2 := submit(t, ts2, body, true)
	warm, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if prov := resp2.Header.Get("X-Sunfloor-Cache"); prov != "disk" {
		t.Fatalf("restarted-server provenance = %q, want disk", prov)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("disk-served body differs from computed body")
	}
}

// TestServerAsyncLifecycle drives the asynchronous flow: 202 on submit,
// status polling to done, progress stream ending in a terminal event, and a
// result fetch byte-identical to direct synthesis.
func TestServerAsyncLifecycle(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp := submit(t, ts, fmt.Sprintf(`{"gen":%q}`, fastGen), false)
	ack, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, ack)
	}
	var view server.JobView
	if err := json.Unmarshal(ack, &view); err != nil {
		t.Fatalf("parsing ack %q: %v", ack, err)
	}
	if view.ID == "" || view.Key == "" {
		t.Fatalf("ack missing id/key: %+v", view)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+view.ID {
		t.Fatalf("Location = %q", loc)
	}

	// The stream replays history, so subscribing after completion still
	// yields every event.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v server.JobView
		json.NewDecoder(r.Body).Decode(&v)
		r.Body.Close()
		if v.Status == server.StatusDone {
			break
		}
		if v.Status == server.StatusFailed {
			t.Fatalf("job failed: %+v", v)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not done in time: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}

	sr, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	lines, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	var events []server.ProgressEvent
	for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		var ev server.ProgressEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) < 2 {
		t.Fatalf("stream had %d events, want progress + done", len(events))
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.Status != server.StatusDone {
		t.Fatalf("terminal stream event = %+v", last)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.Type != "progress" || ev.Total == 0 {
			t.Fatalf("non-terminal stream event = %+v", ev)
		}
	}

	rr, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: status %d: %s", rr.StatusCode, got)
	}
	if want := directResult(t, fastGen); !bytes.Equal(got, want) {
		t.Fatal("async result differs from direct synthesis")
	}
}

// TestServerSpecAndGenShareFingerprint: the same design submitted as spec
// text hits the cache entry created by its generator-string submission.
func TestServerSpecAndGenShareFingerprint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	resp := submit(t, ts, fmt.Sprintf(`{"gen":%q}`, fastGen), true)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	key := resp.Header.Get("X-Sunfloor-Key")

	resp2 := submit(t, ts, specBody(t), true)
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if k2 := resp2.Header.Get("X-Sunfloor-Key"); k2 != key {
		t.Fatalf("spec-form fingerprint %s differs from gen-form %s", k2, key)
	}
	if prov := resp2.Header.Get("X-Sunfloor-Cache"); prov != "memory" {
		t.Fatalf("spec-form submission provenance = %q, want memory (same design)", prov)
	}
}

// TestServerOptionsChangeFingerprint: result-affecting options produce a
// different fingerprint and a different computation.
func TestServerOptionsChangeFingerprint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	r1 := submit(t, ts, fmt.Sprintf(`{"gen":%q}`, fastGen), true)
	io.Copy(io.Discard, r1.Body)
	r1.Body.Close()
	r2 := submit(t, ts, fmt.Sprintf(`{"gen":%q,"options":{"frequencies_mhz":[400,800]}}`, fastGen), true)
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r1.Header.Get("X-Sunfloor-Key") == r2.Header.Get("X-Sunfloor-Key") {
		t.Fatal("different frequencies produced the same fingerprint")
	}
	if prov := r2.Header.Get("X-Sunfloor-Cache"); prov != "computed" {
		t.Fatalf("changed-options submission provenance = %q, want computed", prov)
	}

	// Execution-only knobs keep the fingerprint (and hit the cache).
	r3 := submit(t, ts, fmt.Sprintf(`{"gen":%q,"options":{"weight":5,"parallelism":2}}`, fastGen), true)
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	if r3.Header.Get("X-Sunfloor-Key") != r1.Header.Get("X-Sunfloor-Key") {
		t.Fatal("execution knobs changed the fingerprint")
	}
	if prov := r3.Header.Get("X-Sunfloor-Cache"); prov != "memory" {
		t.Fatalf("execution-knob resubmission provenance = %q, want memory", prov)
	}
}

// TestServerConcurrentIdenticalRequests: N clients submitting the same cold
// request get byte-identical bodies from a single synthesis.
func TestServerConcurrentIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 8})
	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/synthesize?wait=1", "application/json",
				strings.NewReader(fmt.Sprintf(`{"gen":%q}`, fastGen)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs from client 0", i)
		}
	}
	if st := s.Cache().Stats(); st.Misses != 1 {
		t.Fatalf("identical concurrent requests caused %d computations, want 1 (%+v)", st.Misses, st)
	}
}

// TestServerValidation: malformed submissions are rejected with 400 and a
// JSON error body.
func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"unknown field", `{"genn":"x"}`},
		{"no design", `{}`},
		{"both forms", fmt.Sprintf(`{"gen":%q,"cores_spec":"x","comm_spec":"y"}`, fastGen)},
		{"half spec pair", `{"cores_spec":"x"}`},
		{"bad gen", `{"gen":"shape=nosuch"}`},
		{"bad phase", fmt.Sprintf(`{"gen":%q,"options":{"phase":"phase9"}}`, fastGen)},
		{"bad switch layer", fmt.Sprintf(`{"gen":%q,"options":{"switch_layer":"median"}}`, fastGen)},
		{"half objective", fmt.Sprintf(`{"gen":%q,"options":{"power_weight":1}}`, fastGen)},
		{"bad option value", fmt.Sprintf(`{"gen":%q,"options":{"alpha":7.5}}`, fastGen)},
		{"unknown sparing process", fmt.Sprintf(`{"gen":%q,"options":{"sparing":{"process":"nope","target_yield":0.99}}}`, fastGen)},
		{"bad sparing target", fmt.Sprintf(`{"gen":%q,"options":{"sparing":{"process":"wafer-level-A","target_yield":2}}}`, fastGen)},
		{"bad fault model", fmt.Sprintf(`{"gen":%q,"options":{"fault":{"plans":0,"exhaustive_max":0}}}`, fastGen)},
		// An integral axis value beyond the int range must be refused here,
		// not become a switch count that panics a worker and the daemon.
		{"switch count beyond int", fmt.Sprintf(`{"gen":%q,"options":{"space":{"axes":[{"name":"switch_count","values":[1e300]}]}}}`, fastGen)},
		// A body is one request: a valid one followed by anything but
		// whitespace is refused, not answered for its first value.
		{"second value", fmt.Sprintf(`{"gen":%q}{"gen":"shape=nosuch"} not json`, fastGen)},
		{"trailing bytes", fmt.Sprintf(`{"gen":%q} x`, fastGen)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := submit(t, ts, tc.body, true)
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", resp.StatusCode, b)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q not of the {error} shape", b)
			}
		})
	}

	// Whitespace after the request is not data.
	for _, trail := range []string{"\n", "   "} {
		body := fmt.Sprintf(`{"gen":%q}`, fastGen) + trail
		resp := submit(t, ts, body, true)
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d (%s), want 200", body, resp.StatusCode, b)
		}
	}

	// Unknown job endpoints.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/stream", "/v1/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServerOversizedBody: a body one byte over the 8 MiB request limit is
// answered 413 with a JSON error body, not a generic 400 parse error.
func TestServerOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	const limit = 8 << 20 // the server's request-body bound
	prefix, suffix := `{"cores_spec":"`, `"}`
	body := prefix + strings.Repeat("x", limit+1-len(prefix)-len(suffix)) + suffix
	resp := submit(t, ts, body, true)
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%.200s), want 413", resp.StatusCode, b)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
		t.Fatalf("error body %q not of the {error} shape", b)
	}
}

// TestServerFaultOptionsRoundTrip: a request with sparing and fault options
// returns exactly the bytes the in-process facade produces for the same
// configuration, survivability reports included.
func TestServerFaultOptionsRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	body := fmt.Sprintf(`{"gen":%q,"options":{"sparing":{"process":"wafer-level-A","target_yield":0.99},"fault":{"plans":4,"seed":7}}}`, fastGen)

	resp := submit(t, ts, body, true)
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	proc, err := sunfloor3d.ProcessByName("wafer-level-A")
	if err != nil {
		t.Fatal(err)
	}
	fc := sunfloor3d.DefaultFaultModelConfig()
	fc.Plans = 4
	fc.Seed = 7
	want := directResult(t, fastGen,
		sunfloor3d.WithSparing(proc, 0.99), sunfloor3d.WithFaultModel(fc))
	if !bytes.Equal(got, want) {
		t.Fatalf("served fault-aware result differs from direct synthesis:\nserved %d bytes, direct %d bytes", len(got), len(want))
	}
	if !bytes.Contains(got, []byte(`"survivability"`)) {
		t.Fatal("served result carries no survivability report")
	}
}

// TestServerContentionOptionRoundTrip: the contention flag reaches the
// engine (the served result carries the estimate), matches a direct run byte
// for byte, and changes the fingerprint relative to an estimate-free run.
func TestServerContentionOptionRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	plain := submit(t, ts, fmt.Sprintf(`{"gen":%q}`, fastGen), true)
	io.Copy(io.Discard, plain.Body)
	plain.Body.Close()

	resp := submit(t, ts, fmt.Sprintf(`{"gen":%q,"options":{"contention":true}}`, fastGen), true)
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if plain.Header.Get("X-Sunfloor-Key") == resp.Header.Get("X-Sunfloor-Key") {
		t.Fatal("contention option did not change the fingerprint")
	}
	if !bytes.Contains(got, []byte(`"contention"`)) {
		t.Fatal("served result carries no contention estimate")
	}
	want := directResult(t, fastGen, sunfloor3d.WithContention())
	if !bytes.Equal(got, want) {
		t.Fatalf("served contention result differs from direct synthesis:\nserved %d bytes, direct %d bytes", len(got), len(want))
	}
}

// TestServerStats: the stats endpoint reports cache activity and scheduler
// shape.
func TestServerStats(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Capacity: 3, QueueDepth: 5})
	resp := submit(t, ts, fmt.Sprintf(`{"gen":%q}`, fastGen), true)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	sr, err := http.Get(ts.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var view server.StatsView
	if err := json.NewDecoder(sr.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Cache.Misses != 1 || view.Cache.Stores != 1 {
		t.Fatalf("cache stats after one cold run: %+v", view.Cache)
	}
	if view.Scheduler.Capacity != 3 {
		t.Fatalf("scheduler capacity = %d, want 3", view.Scheduler.Capacity)
	}
	if view.QueueCap != 5 {
		t.Fatalf("queue cap = %d, want 5", view.QueueCap)
	}
}

// TestServerHealthz: liveness probe answers ok.
func TestServerHealthz(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(b) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, b)
	}
}

// TestServerShutdown: a graceful shutdown finishes queued work, and
// submissions after shutdown are rejected.
func TestServerShutdown(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := submit(t, ts, fmt.Sprintf(`{"gen":%q}`, fastGen), false)
	var view server.JobView
	json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}

	// The accepted job ran to completion before shutdown returned.
	r, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var v server.JobView
	json.NewDecoder(r.Body).Decode(&v)
	r.Body.Close()
	if v.Status != server.StatusDone {
		t.Fatalf("job after graceful shutdown: %+v", v)
	}

	resp2 := submit(t, ts, fmt.Sprintf(`{"gen":%q}`, fastGen), true)
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: status %d, want 503", resp2.StatusCode)
	}
}

// TestServerQueueFull: with one busy worker and a one-deep queue, a
// submission that finds the queue slot taken is rejected with a 503 that
// tells the client when to retry, and registers no job. The test waits on
// job states, not on timing: job A is seen running before job B takes the
// queue slot, and A must still be running after job C's rejection. A round
// in which A finished too soon proves nothing and is retried with new seeds.
func TestServerQueueFull(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1})
	// post submits asynchronously and returns the status code, the
	// Retry-After header and the job view of an accepted submission.
	post := func(gen string) (int, string, server.JobView) {
		t.Helper()
		resp := submit(t, ts, fmt.Sprintf(`{"gen":%q}`, gen), false)
		defer resp.Body.Close()
		var v server.JobView
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, resp.Header.Get("Retry-After"), v
	}
	status := func(id string) server.JobStatus {
		t.Helper()
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var v server.JobView
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		if v.Status == server.StatusFailed {
			t.Fatalf("job %s failed: %+v", id, v)
		}
		return v.Status
	}
	// waitWhile polls job id until its status is not s.
	waitWhile := func(id string, s server.JobStatus) server.JobStatus {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := status(id)
			if st != s {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s after 30s", id, s)
			}
			time.Sleep(time.Millisecond)
		}
	}

	const rounds = 5
	accepted := 0
	proved := false
	for round := 0; round < rounds && !proved; round++ {
		// A is large enough (about 0.2 s) that it rarely finishes before C.
		code, _, a := post(fmt.Sprintf("shape=hotspot,cores=60,layers=3,seed=%d", 100+round))
		if code != http.StatusAccepted {
			t.Fatalf("round %d: job A got status %d, want 202", round, code)
		}
		accepted++
		if waitWhile(a.ID, server.StatusQueued) != server.StatusRunning {
			continue // A finished before it was seen running
		}
		// The worker has taken A off the queue, so B is queued behind it.
		code, _, _ = post(fmt.Sprintf("shape=pipeline,cores=8,layers=2,seed=%d", 200+round))
		if code != http.StatusAccepted {
			t.Fatalf("round %d: job B got status %d, want 202 (queued)", round, code)
		}
		accepted++
		code, retryAfter, _ := post(fmt.Sprintf("shape=pipeline,cores=8,layers=2,seed=%d", 300+round))
		switch code {
		case http.StatusAccepted:
			accepted++ // A finished and the worker took B: the slot was free
			continue
		case http.StatusServiceUnavailable:
			if retryAfter != "1" {
				t.Errorf("queue-full 503 carries Retry-After %q, want \"1\"", retryAfter)
			}
		default:
			t.Fatalf("round %d: job C got status %d, want 503", round, code)
		}
		proved = status(a.ID) == server.StatusRunning
	}
	if !proved {
		t.Fatalf("job A finished before the queue-full check in all %d rounds", rounds)
	}
	// Job IDs are sequential and a rejected submission registers none: the
	// accepted jobs are exactly j1..j<accepted>, and each of them finishes.
	for i := 1; i <= accepted; i++ {
		id := fmt.Sprintf("j%08x", i)
		waitWhile(id, server.StatusQueued)
		if st := waitWhile(id, server.StatusRunning); st != server.StatusDone {
			t.Errorf("job %s is %s, want done", id, st)
		}
	}
	r, err := http.Get(fmt.Sprintf("%s/v1/jobs/j%08x", ts.URL, accepted+1))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("a rejected submission left job j%08x behind (status %d)", accepted+1, r.StatusCode)
	}
}

// runJob submits a gen request asynchronously, polls the job to done and
// returns its ID.
func runJob(t *testing.T, ts *httptest.Server, gen string) string {
	t.Helper()
	resp := submit(t, ts, fmt.Sprintf(`{"gen":%q}`, gen), false)
	ack, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, ack)
	}
	var view server.JobView
	if err := json.Unmarshal(ack, &view); err != nil {
		t.Fatalf("parsing ack %q: %v", ack, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v server.JobView
		json.NewDecoder(r.Body).Decode(&v)
		r.Body.Close()
		if v.Status == server.StatusDone {
			return view.ID
		}
		if v.Status == server.StatusFailed {
			t.Fatalf("job failed: %+v", v)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not done in time: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerStreamAfterEviction: with -retain 1, finishing a second job
// must evict the first terminal job immediately — its stream (and status)
// endpoints 404 without waiting for a third submission to trigger the
// retention sweep.
func TestServerStreamAfterEviction(t *testing.T) {
	_, ts := newTestServer(t, server.Config{RetainJobs: 1})
	first := runJob(t, ts, fastGen)
	second := runJob(t, ts, "shape=pipeline,cores=8,layers=2,seed=2")

	// The second finish overflows the retain=1 backlog and sweeps the first
	// job out. The sweep runs just after the terminal transition the poll
	// observed, so allow a brief convergence window — but no third submit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + first + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream of evicted job %s = %d, want 404", first, r.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The surviving job still streams its full history.
	r, err := http.Get(ts.URL + "/v1/jobs/" + second + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	lines, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stream of retained job %s = %d: %s", second, r.StatusCode, lines)
	}
	if !strings.Contains(string(lines), `"done"`) {
		t.Fatalf("retained job stream missing terminal event: %s", lines)
	}
}

// TestServerWaitRequestsKeepAsyncJobs: ?wait=1 requests register no job, so
// with RetainJobs 1 neither a ?wait=1 cache hit nor a computed ?wait=1
// request evicts a finished async job: its status and result stay
// queryable.
func TestServerWaitRequestsKeepAsyncJobs(t *testing.T) {
	_, ts := newTestServer(t, server.Config{RetainJobs: 1})
	id := runJob(t, ts, fastGen)

	for _, tc := range []struct{ gen, prov string }{
		{fastGen, "memory"},
		{"shape=pipeline,cores=8,layers=2,seed=2", "computed"},
	} {
		resp := submit(t, ts, fmt.Sprintf(`{"gen":%q}`, tc.gen), true)
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sunfloor-Cache") != tc.prov {
			t.Fatalf("?wait=1 submission of %s: status %d, provenance %q, want 200 and %s: %s",
				tc.gen, resp.StatusCode, resp.Header.Get("X-Sunfloor-Cache"), tc.prov, b)
		}
		if loc := resp.Header.Get("Location"); loc != "" {
			t.Fatalf("?wait=1 response names a job: Location %q", loc)
		}
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r.StatusCode, b
	}
	if code, b := get("/v1/jobs/" + id); code != http.StatusOK {
		t.Fatalf("async job %s after two ?wait=1 requests: status %d: %s", id, code, b)
	}
	code, got := get("/v1/jobs/" + id + "/result")
	if code != http.StatusOK {
		t.Fatalf("async job %s's result after two ?wait=1 requests: status %d: %s", id, code, got)
	}
	if !bytes.Equal(got, directResult(t, fastGen)) {
		t.Fatal("async result differs from direct synthesis")
	}
	// Job IDs are sequential: had the ?wait=1 requests registered jobs,
	// they would be the next two.
	for i := 2; i <= 3; i++ {
		if code, _ := get(fmt.Sprintf("/v1/jobs/j%08x", i)); code != http.StatusNotFound {
			t.Fatalf("job j%08x exists (status %d): a ?wait=1 request registered a job", i, code)
		}
	}
}
