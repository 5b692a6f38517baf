// Job bookkeeping for sunfloor-server: lifecycle states, progress fan-out
// and the bounded registry of retained jobs.
package server

import (
	"fmt"
	"slices"
	"sync"

	"sunfloor3d/internal/memo"
)

// JobStatus is the lifecycle state of a submitted synthesis job.
type JobStatus string

// Job lifecycle states.
const (
	// StatusQueued: accepted, waiting for a worker.
	StatusQueued JobStatus = "queued"
	// StatusRunning: a worker is synthesizing (or waiting on the in-flight
	// computation of another job with the same fingerprint).
	StatusRunning JobStatus = "running"
	// StatusDone: finished successfully; the result bytes are available.
	StatusDone JobStatus = "done"
	// StatusFailed: synthesis or validation failed; Error is set.
	StatusFailed JobStatus = "failed"
)

// ProgressEvent is one NDJSON line of a job's progress stream.
type ProgressEvent struct {
	// Type is "progress" for per-point events, "done" for the terminal event.
	Type string `json:"type"`
	// Done/Total mirror the engine's progress events ("progress" only).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// FreqMHz/SwitchCount/Valid identify the point that just finished
	// ("progress" only).
	FreqMHz     float64 `json:"freq_mhz,omitempty"`
	SwitchCount int     `json:"switch_count,omitempty"`
	Valid       bool    `json:"valid,omitempty"`
	// Pruned marks explorer stubs that were skipped by exact pruning instead
	// of being evaluated ("progress" only).
	Pruned bool `json:"pruned,omitempty"`
	// SimTriage relays the fidelity-ladder decision for the point: "sim"
	// (simulated, inside the estimated Pareto band) or "skip" (triaged out
	// by the contention estimate); empty when the ladder is off.
	SimTriage string `json:"sim_triage,omitempty"`
	// Status and the optional fields below are set on the terminal event.
	Status JobStatus       `json:"status,omitempty"`
	Cache  memo.Provenance `json:"cache,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// job is one submitted synthesis request. An asynchronous submission's job
// is registered and queryable by its id; a ?wait=1 request's job has no id,
// and only its handler waits on it.
type job struct {
	id  string
	key string // memo fingerprint

	mu     sync.Mutex
	cond   *sync.Cond
	status JobStatus
	events []ProgressEvent // history; terminal event is always last
	result []byte          // canonical serialised Result (done only)
	prov   memo.Provenance
	err    string
}

func newJob(id, key string) *job {
	j := &job{id: id, key: key, status: StatusQueued}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// setRunning transitions the job to running.
func (j *job) setRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.cond.Broadcast()
	j.mu.Unlock()
}

// progress appends a per-point event and wakes streamers.
func (j *job) progress(ev ProgressEvent) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// finish records the terminal state: the result bytes and provenance on
// success, the error string on failure. A registered job finishes only
// through registry.finish.
func (j *job) finish(result []byte, prov memo.Provenance, err error) {
	j.mu.Lock()
	if err != nil {
		j.status = StatusFailed
		j.err = err.Error()
		j.events = append(j.events, ProgressEvent{Type: "done", Status: StatusFailed, Error: j.err})
	} else {
		j.status = StatusDone
		j.result = result
		j.prov = prov
		j.events = append(j.events, ProgressEvent{Type: "done", Status: StatusDone, Cache: prov})
	}
	j.cond.Broadcast()
	j.mu.Unlock()
}

// terminal reports whether the job reached done or failed.
func (j *job) terminal() bool { return j.status == StatusDone || j.status == StatusFailed }

// wait blocks until the job is terminal or abort is closed, and returns the
// final status, result bytes, provenance and error string.
func (j *job) wait(abort <-chan struct{}) (JobStatus, []byte, memo.Provenance, string) {
	// A goroutine pumping the cond on abort lets the cond-based wait honour
	// cancellation without polling.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-abort:
			j.cond.Broadcast()
		case <-stop:
		}
	}()
	j.mu.Lock()
	defer j.mu.Unlock()
	for !j.terminal() {
		select {
		case <-abort:
			return j.status, nil, "", ""
		default:
		}
		j.cond.Wait()
	}
	return j.status, j.result, j.prov, j.err
}

// snapshot returns the job's externally visible state.
func (j *job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.id, Key: j.key, Status: j.status, Error: j.err}
	if j.status == StatusDone {
		v.Cache = j.prov
	}
	for _, ev := range j.events {
		if ev.Type == "progress" {
			v.Done, v.Total = ev.Done, ev.Total
		}
	}
	return v
}

// JobView is the JSON body of a job status response.
type JobView struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	Status JobStatus       `json:"status"`
	Done   int             `json:"done,omitempty"`
	Total  int             `json:"total,omitempty"`
	Cache  memo.Provenance `json:"cache,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// registry holds every live job plus a bounded backlog of terminal ones:
// once more than retain jobs are terminal, the oldest-inserted terminal jobs
// are forgotten (their results stay available through the cache). Every
// terminal transition goes through finish, under the registry's lock, so
// the registry counts its terminal jobs instead of asking every job.
type registry struct {
	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job // insertion order, for retention eviction
	terminal int    // how many of the registered jobs are terminal
	seq      uint64
	retain   int
}

func newRegistry(retain int) *registry {
	if retain <= 0 {
		retain = 256
	}
	return &registry{jobs: make(map[string]*job), retain: retain}
}

// add creates and registers a new job for the given fingerprint.
func (r *registry) add(key string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	j := newJob(fmt.Sprintf("j%08x", r.seq), key)
	r.jobs[j.id] = j
	r.order = append(r.order, j)
	return j
}

// get looks a job up by id.
func (r *registry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// finish records the job's terminal state (see job.finish) and applies the
// retention policy at once, so that an evicted job's endpoints 404 as soon
// as the backlog overflows, not at the next submission. Live jobs are never
// evicted, so a registered job finishes while it is still registered.
func (r *registry) finish(j *job, result []byte, prov memo.Provenance, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j.finish(result, prov, err)
	r.terminal++
	// Drop the oldest-inserted terminal jobs while more than retain are
	// terminal. A job's state turns terminal only here, under r.mu, so the
	// jobs this walk finds terminal are exactly the counted ones.
	for i := 0; r.terminal > r.retain && i < len(r.order); {
		old := r.order[i]
		old.mu.Lock()
		t := old.terminal()
		old.mu.Unlock()
		if !t {
			i++
			continue
		}
		delete(r.jobs, old.id)
		r.order = slices.Delete(r.order, i, i+1)
		r.terminal--
	}
}
