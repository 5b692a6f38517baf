package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sunfloor3d"
	"sunfloor3d/internal/memo"
	"sunfloor3d/internal/server"
)

// The serve workload drives the real internal/server handler over loopback
// TCP with closed-loop clients. Its working set (serveDesigns) is far larger
// than the memory tier (serveMemEntries), so memory hits, disk hits and
// computed writes all happen; every pass starts a fresh server on an empty
// cache directory, so passes repeat the same cold and warm mix.
const (
	serveDesigns       = 240
	serveRequests      = 6000
	serveSmokeDesigns  = 16
	serveSmokeRequests = 200
	serveMemEntries    = 32
	// serveClients closed-loop clients share the sequence; the server runs
	// the same number of workers and scheduler slots (the machine's cores).
	serveClients = 2
	// serveZipfS is the skew of design popularity.
	serveZipfS = 1.1
	// serveHostSamples reference-kernel samples before each pass measure
	// the host's speed about as often as the synthesis workloads do.
	serveHostSamples = 12
)

// serveInput is the generated input of the serve workload. Requests carry
// each design as its core and communication specifications, the way a
// client with its own design calls the daemon.
type serveInput struct {
	// gens holds each design's generator string, which labels the design;
	// specs its core and communication specifications; bodies the request
	// bodies carrying them.
	gens   []string
	specs  [][2]string
	bodies [][]byte
	// seq lists the design of every request, in send order.
	seq []int
}

// serveGens returns the generator strings of the first n designs of a seed:
// shapes rotate through all four, and the core count (12-24), the layer count
// (2-3) and the generator seed are drawn from the seed. Design i is the i-th
// most popular.
func serveGens(seed int64, n int) []string {
	shapes := sunfloor3d.WorkloadShapes()
	rng := rand.New(rand.NewSource(seed))
	gens := make([]string, n)
	for i := range gens {
		gens[i] = fmt.Sprintf("shape=%s,cores=%d,layers=%d,seed=%d",
			shapes[i%len(shapes)], 12+rng.Intn(13), 2+rng.Intn(2), rng.Int63n(1<<31))
	}
	return gens
}

// serveSequence draws the designs of n requests over nd designs with Zipf
// popularity: design 0 is the most popular.
func serveSequence(seed int64, nd, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	z := rand.NewZipf(rng, serveZipfS, 1, uint64(nd-1))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq
}

// makeServeInput generates the designs and the request sequence of a seed.
// The smoke input's designs are the first serveSmokeDesigns of the full
// input's.
func makeServeInput(seed int64, smoke bool) (*serveInput, error) {
	nd, nr := serveDesigns, serveRequests
	if smoke {
		nd, nr = serveSmokeDesigns, serveSmokeRequests
	}
	in := &serveInput{gens: serveGens(seed, nd), seq: serveSequence(seed, nd, nr)}
	for _, gen := range in.gens {
		spec, err := sunfloor3d.ParseGenSpec(gen)
		if err != nil {
			return nil, err
		}
		b, err := sunfloor3d.GenerateBenchmark(spec)
		if err != nil {
			return nil, err
		}
		var cores, comm strings.Builder
		if err := sunfloor3d.WriteDesign(&cores, &comm, b.Graph3D); err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.SynthesizeRequest{CoresSpec: cores.String(), CommSpec: comm.String()})
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, [2]string{cores.String(), comm.String()})
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// liveServer is a server.Server behind an http.Server on a loopback port.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	dir    string
}

// startServer starts a server on a fresh cache directory under work.
func startServer(work string) (*liveServer, error) {
	dir, err := os.MkdirTemp(work, "serve-cache-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{CacheDir: dir, MemEntries: serveMemEntries, Capacity: serveClients, Workers: serveClients})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	s := &liveServer{srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String() + "/v1/synthesize?wait=1", dir: dir}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down, waits for it and removes its cache directory.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if e := s.srv.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-s.served; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	if e := os.RemoveAll(s.dir); err == nil {
		err = e
	}
	return err
}

// firstBodies keeps the first response body of every design; every later
// response must repeat it byte for byte, and after timing it is checked
// against a direct Synthesize.
type firstBodies struct {
	mu   sync.Mutex
	body [][]byte
}

func (f *firstBodies) same(d int, b []byte) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.body[d] == nil {
		f.body[d] = b
		return true
	}
	return bytes.Equal(f.body[d], b)
}

// reqResult is one request's outcome.
type reqResult struct {
	ms     float64
	status int
	prov   string // X-Sunfloor-Cache
	err    error
	ok     bool // 200 with the design's bytes
}

// servePass is what one pass over the request sequence measured.
type servePass struct {
	wall            time.Duration
	lat, warm, cold []float64 // ms
	rejected        int
	stats           memo.Stats
	results         []reqResult
}

// pass sends the whole sequence with the given number of closed-loop
// clients. A client stops early once deadline (when set) has passed; the
// pass is then incomplete and nil is returned.
func (s *liveServer) pass(in *serveInput, clients int, deadline time.Time, refs *firstBodies) *servePass {
	client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	results := make([]reqResult, len(in.seq))
	var next atomic.Int64
	var cut atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.seq) {
					return
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					cut.Store(true)
					return
				}
				results[i] = s.request(client, in, i, refs)
			}
		}()
	}
	wg.Wait()
	if cut.Load() {
		return nil
	}
	p := &servePass{wall: time.Since(start), stats: s.srv.Cache().Stats(), results: results}
	for _, r := range results {
		if r.status == http.StatusServiceUnavailable {
			p.rejected++
		}
		if !r.ok {
			continue
		}
		p.lat = append(p.lat, r.ms)
		if r.prov == string(memo.FromMemory) || r.prov == string(memo.FromDisk) {
			p.warm = append(p.warm, r.ms)
		} else {
			p.cold = append(p.cold, r.ms)
		}
	}
	return p
}

// runPass runs one pass on a fresh server and stops the server.
func runPass(work string, in *serveInput, clients int, deadline time.Time, refs *firstBodies) (*servePass, error) {
	s, err := startServer(work)
	if err != nil {
		return nil, err
	}
	p := s.pass(in, clients, deadline, refs)
	if err := s.stop(); err != nil {
		return nil, err
	}
	return p, nil
}

// tally counts a complete pass's requests as attempted, and the wrong ones
// as failed.
func tally(rep *report, in *serveInput, p *servePass) {
	for i, r := range p.results {
		rep.attempted++
		if !r.ok {
			rep.failed++
			rep.problem("request %d (%s): status %d, error %v, or bytes differ from the design's first response", i, in.gens[in.seq[i]], r.status, r.err)
		}
	}
}

// request sends request i and times it up to the last body byte; the byte
// comparison happens after the timer stops.
func (s *liveServer) request(client *http.Client, in *serveInput, i int, refs *firstBodies) reqResult {
	d := in.seq[i]
	t0 := time.Now()
	resp, err := client.Post(s.url, "application/json", bytes.NewReader(in.bodies[d]))
	if err != nil {
		return reqResult{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reqResult{ms: msOf(time.Since(t0)), status: resp.StatusCode, prov: resp.Header.Get("X-Sunfloor-Cache"), err: err}
	r.ok = err == nil && resp.StatusCode == http.StatusOK && refs.same(d, body)
	return r
}

// serveJobs returns the direct-synthesis job of each listed design: the
// request carries no options, so the job runs the engine defaults.
func serveJobs(in *serveInput, designs []int) ([]synthJob, error) {
	var jobs []synthJob
	for _, d := range designs {
		design, err := sunfloor3d.LoadDesign(strings.NewReader(in.specs[d][0]), strings.NewReader(in.specs[d][1]))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, synthJob{label: "serve/" + in.gens[d], design: design, opt: jobOptions{freqs: []float64{400}}})
	}
	return jobs, nil
}

// directResult is the outcome of one untimed, direct synthesis.
type directResult struct {
	stable []byte
	digest callDigest
	points int
	err    error
}

// synthesizeOne runs one job and digests its output.
func synthesizeOne(j synthJob) directResult {
	res, err := sunfloor3d.Synthesize(context.Background(), j.design, j.opt.facade()...)
	if err != nil {
		return directResult{err: err}
	}
	stable, err := res.MarshalStable()
	if err != nil {
		return directResult{err: err}
	}
	d, err := digestOf(res, stable)
	return directResult{stable: stable, digest: d, points: len(res.Points), err: err}
}

// directSynthesize runs the jobs on serveClients goroutines.
func directSynthesize(jobs []synthJob) []directResult {
	out := make([]directResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(jobs); k = int(next.Add(1) - 1) {
				out[k] = synthesizeOne(jobs[k])
			}
		}()
	}
	wg.Wait()
	return out
}

// runServe runs the serve workload.
func runServe(cfg runConfig) (*report, error) {
	type inputs struct {
		in  *serveInput
		chk *checker
	}
	setup, setupS, err := timedSetup(cfg, func() (inputs, error) {
		in, err := makeServeInput(cfg.seed, cfg.smoke)
		if err != nil {
			return inputs{}, err
		}
		s, err := startServer(cfg.workDir())
		if err != nil {
			return inputs{}, err
		}
		if err := s.stop(); err != nil {
			return inputs{}, err
		}
		ref, err := loadDigests(cfg.digestPath())
		if err != nil {
			return inputs{}, err
		}
		return inputs{in, newChecker(ref, cfg.seed)}, nil
	})
	if err != nil {
		return nil, err
	}
	in := setup.in
	rep := &report{workload: "serve"}
	refs := &firstBodies{body: make([][]byte, len(in.gens))}
	var m runMeter
	defer m.stop()
	var passes []*servePass
	deadline := time.Now().Add(cfg.seconds)
	for {
		var dl time.Time
		if len(passes) > 0 {
			if !time.Now().Before(deadline) {
				break
			}
			dl = deadline
		}
		m.sampleHost(serveHostSamples)
		m.startPass()
		p, err := runPass(cfg.workDir(), in, serveClients, dl, refs)
		if err != nil {
			return nil, err
		}
		if p == nil {
			break
		}
		m.endPass()
		tally(rep, in, p)
		passes = append(passes, p)
		if cfg.smoke || cfg.trace {
			break
		}
	}
	var serial *servePass
	if cfg.trace {
		// With one client the server sees the sequence in order, so its
		// cache counts repeat exactly from run to run; two clients
		// interleave it differently every time.
		if serial, err = runPass(cfg.workDir(), in, 1, time.Time{}, refs); err != nil {
			return nil, err
		}
		tally(rep, in, serial)
		passes = append(passes, serial)
	}

	// After timing: every served design's bytes must equal a direct
	// Synthesize of the same design.
	var designs []int
	for d, body := range refs.body {
		if body != nil {
			designs = append(designs, d)
		}
	}
	jobs, err := serveJobs(in, designs)
	if err != nil {
		return nil, err
	}
	requests := make([]int, len(in.gens)) // requests per design over all passes
	for _, d := range in.seq {
		requests[d] += len(passes)
	}
	// A design whose direct output is wrong or differs from what was served
	// fails every request that was served it.
	check := func(label string, d int, stable []byte, err error) {
		switch {
		case err != nil:
			rep.problem("%s: %v", label, err)
		case !bytes.Equal(stable, refs.body[d]):
			rep.problem("%s: served bytes differ from a direct Synthesize", label)
		default:
			return
		}
		rep.failed += requests[d]
	}
	if cfg.trace {
		lt := newLayerTrace()
		lt.serve, lt.serial = passes[0], serial
		for k, j := range jobs {
			stable, err := lt.traceCall(j, setup.chk)
			check(j.label, designs[k], stable, err)
		}
		lt.probeMemo(cfg.workDir(), rep)
		lt.addMetrics(rep)
		return rep, lt.tr.write(spanPath(cfg))
	}

	points := make([]int, len(in.gens))
	for k, r := range directSynthesize(jobs) {
		if r.err == nil {
			points[designs[k]] = r.points
			if msg := setup.chk.check(jobs[k].label, r.digest); msg != "" {
				r.err = errors.New(msg)
			}
		}
		check(jobs[k].label, designs[k], r.stable, r.err)
	}

	var walls, lat []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		lat = append(lat, p.lat...)
	}
	passPoints := 0
	for _, d := range in.seq {
		passPoints += points[d]
	}
	slow := m.slowdown()
	runS := median(walls) / slow
	rep.add("run_s", "s", runS, fmt.Sprintf("median of %d passes of %d requests; %.4g s of wall time", len(passes), len(in.seq), median(walls)))
	rep.add("points_per_s", "1/s", float64(passPoints)/runS, fmt.Sprintf("%d points served per pass", passPoints))
	rep.info("call_p50_ms %.4g: median request latency, n=%d", median(lat)/slow, len(lat))
	m.addCommon(rep, setupS)
	return rep, nil
}
