package server

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRegistryRetention registers 10000 jobs at retain 256 and finishes them
// out of insertion order, with up to 64 live at once, besides every
// thousandth job, which stays live to the end so that eviction must pass
// live jobs older than the terminal ones it drops. After every step the
// registry must hold exactly the jobs of a model that, like the registry
// before it counted terminal jobs, rescans every retained job and forgets
// the oldest-inserted terminal ones while more than retain are terminal:
// every live job stays, and the terminal count is exact.
func TestRegistryRetention(t *testing.T) {
	const retain, jobs = 256, 10000
	r := newRegistry(retain)
	var model []*job // retained jobs, insertion order
	modelEvict := func() {
		terminal := 0
		for _, j := range model {
			if j.terminal() {
				terminal++
			}
		}
		model = slices.DeleteFunc(model, func(j *job) bool {
			if j.terminal() && terminal > retain {
				terminal--
				return true
			}
			return false
		})
	}
	check := func(step int) {
		t.Helper()
		if !slices.Equal(r.order, model) {
			t.Fatalf("step %d: the registry retains other jobs than the model (%d and %d)", step, len(r.order), len(model))
		}
		terminal := 0
		for _, j := range model {
			if got, ok := r.get(j.id); !ok || got != j {
				t.Fatalf("step %d: job %s is not registered", step, j.id)
			}
			if j.terminal() {
				terminal++
			}
		}
		if len(r.jobs) != len(model) || r.terminal != terminal {
			t.Fatalf("step %d: %d jobs and %d terminal registered, want %d and %d",
				step, len(r.jobs), r.terminal, len(model), terminal)
		}
	}

	rng := rand.New(rand.NewSource(1))
	var live, pinned []*job
	finishOne := func(step int) {
		i := rng.Intn(len(live))
		j := live[i]
		live = slices.Delete(live, i, i+1)
		if rng.Intn(2) == 0 {
			j.setRunning()
		}
		r.finish(j, nil, "", nil)
		modelEvict()
		check(step)
	}
	for step := 0; step < jobs; step++ {
		j := r.add("k")
		if step%1000 == 0 {
			pinned = append(pinned, j)
		} else {
			live = append(live, j)
		}
		model = append(model, j)
		check(step)
		for len(live) > 0 && (len(live) > 64 || rng.Intn(3) > 0) {
			finishOne(step)
		}
	}
	live = append(live, pinned...)
	for len(live) > 0 {
		finishOne(jobs)
	}
	if len(r.order) != retain {
		t.Fatalf("%d jobs retained after all finished, want %d", len(r.order), retain)
	}
}
