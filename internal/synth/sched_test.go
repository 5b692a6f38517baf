package synth

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerCapacityBound: no more slots are ever held than the capacity.
func TestSchedulerCapacityBound(t *testing.T) {
	s := NewScheduler(3)
	c := s.register(1, 0)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := c.acquire(ctx); err != nil {
			t.Fatal(err)
		}
	}
	extra := make(chan error, 1)
	go func() { extra <- c.acquire(ctx) }()
	waitFor(t, "fourth acquire to queue", func() bool { return s.Stats().Waiting == 1 })
	if got := s.Stats().Running; got != 3 {
		t.Fatalf("running = %d, want 3", got)
	}
	c.release()
	if err := <-extra; err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Running; got != 3 {
		t.Fatalf("running after handoff = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		c.release()
	}
	c.close()
	if st := s.Stats(); st.Running != 0 || st.Clients != 0 || st.Waiting != 0 {
		t.Fatalf("scheduler not drained: %+v", st)
	}
}

// TestSchedulerPerRunLimit: a run's private Parallelism cap holds even when
// the shared scheduler has free capacity.
func TestSchedulerPerRunLimit(t *testing.T) {
	s := NewScheduler(4)
	c := s.register(1, 1)
	ctx := context.Background()
	if err := c.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	second := make(chan error, 1)
	go func() { second <- c.acquire(ctx) }()
	waitFor(t, "second acquire to queue", func() bool { return s.Stats().Waiting == 1 })
	if got := s.Stats().Running; got != 1 {
		t.Fatalf("running = %d, want 1 (per-run limit)", got)
	}
	c.release()
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	c.release()
	c.close()
}

// TestSchedulerFairShare backs up two equal-weight runs behind a capacity-1
// scheduler and checks that grants alternate instead of draining the older
// run first; then repeats with a 2:1 weight ratio and checks the grant mix.
func TestSchedulerFairShare(t *testing.T) {
	run := func(t *testing.T, weightA, weightB, grantsEach int) (gotA, gotB int, order []string) {
		s := NewScheduler(1)
		a := s.register(weightA, 0)
		b := s.register(weightB, 0)
		ctx := context.Background()

		type grant struct {
			name    string
			release chan struct{}
		}
		grants := make(chan grant, 2*grantsEach)
		var wg sync.WaitGroup
		spawn := func(c *schedClient, name string, n int) {
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := c.acquire(ctx); err != nil {
						t.Error(err)
						return
					}
					rel := make(chan struct{})
					grants <- grant{name, rel}
					<-rel
					c.release()
				}()
			}
		}
		spawn(a, "a", grantsEach)
		spawn(b, "b", grantsEach)
		// Exactly one waiter is granted immediately (capacity 1); wait until
		// every other worker is queued so the stride order is fully formed.
		waitFor(t, "all workers queued", func() bool { return s.Stats().Waiting == 2*grantsEach-1 })

		counts := map[string]int{}
		for i := 0; i < 2*grantsEach; i++ {
			g := <-grants
			counts[g.name]++
			order = append(order, g.name)
			close(g.release)
		}
		wg.Wait()
		a.close()
		b.close()
		return counts["a"], counts["b"], order
	}

	t.Run("equal weights alternate", func(t *testing.T) {
		_, _, order := run(t, 1, 1, 8)
		// Ignore the racy first grant; afterwards no run may be served three
		// times in a row while the other is backlogged.
		for i := 3; i < len(order); i++ {
			if order[i] == order[i-1] && order[i] == order[i-2] {
				t.Fatalf("run %q served 3 consecutive slots under contention: %v", order[i], order)
			}
		}
	})

	t.Run("weight 2 gets double share", func(t *testing.T) {
		// With weights 2:1, after 9 contended grants the weight-2 run must
		// have received roughly twice the slots of the weight-1 run.
		_, _, order := run(t, 2, 1, 12)
		nA := 0
		for _, g := range order[:9] {
			if g == "a" {
				nA++
			}
		}
		if nA < 5 || nA > 7 {
			t.Fatalf("weight-2 run got %d of the first 9 grants, want ~6: %v", nA, order)
		}
	})
}

// TestSchedulerWaiterCancel: a waiter that gives up returns the context
// error, leaks no slot, and later grants proceed.
func TestSchedulerWaiterCancel(t *testing.T) {
	s := NewScheduler(1)
	c := s.register(1, 0)
	if err := c.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- c.acquire(ctx) }()
	waitFor(t, "waiter to queue", func() bool { return s.Stats().Waiting == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire returned %v", err)
	}
	c.release()
	if st := s.Stats(); st.Running != 0 || st.Waiting != 0 {
		t.Fatalf("slot leaked after waiter cancel: %+v", st)
	}
	// The scheduler still works.
	if err := c.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.release()
	c.close()
}

// TestSynthesizeSharedScheduler: concurrent runs multiplexed over one shared
// scheduler finish, stay within its capacity, and leave it empty.
func TestSynthesizeSharedScheduler(t *testing.T) {
	g := smallDesign(t)
	s := NewScheduler(2)

	ref, err := Synthesize(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	const runs = 4
	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := DefaultOptions()
			opt.Scheduler = s
			opt.Weight = 1 + i%2
			opt.Parallelism = -1
			results[i], errs[i] = SynthesizeContext(context.Background(), g, opt, ExplorationHooks{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if len(results[i].Points) != len(ref.Points) {
			t.Fatalf("run %d explored %d points, reference %d", i, len(results[i].Points), len(ref.Points))
		}
		for j := range ref.Points {
			if results[i].Points[j].FailReason != ref.Points[j].FailReason ||
				results[i].Points[j].Valid != ref.Points[j].Valid ||
				results[i].Points[j].Metrics.Power.TotalMW() != ref.Points[j].Metrics.Power.TotalMW() {
				t.Fatalf("run %d point %d diverged from serial reference", i, j)
			}
		}
	}
	if st := s.Stats(); st.Clients != 0 || st.Running != 0 || st.Waiting != 0 {
		t.Fatalf("scheduler not empty after runs: %+v", st)
	}
}

// TestSynthesizeCancelDrainsWorkers cancels a parallel sweep mid-flight and
// asserts (goleak-style) that SynthesizeContext returns only after every
// worker goroutine has drained: the goroutine count settles back to the
// baseline and the shared scheduler holds no slots or clients.
func TestSynthesizeCancelDrainsWorkers(t *testing.T) {
	g := smallDesign(t)
	s := NewScheduler(4)
	baseline := runtime.NumGoroutine()

	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		opt := DefaultOptions()
		opt.FrequenciesMHz = []float64{400, 500, 600, 700, 800}
		opt.Scheduler = s
		opt.Parallelism = -1
		started := make(chan struct{})
		var once sync.Once
		// The callback parks the sweep until the cancellation arrives, so the
		// cancel is guaranteed to land while workers are in flight.
		opt.Progress = func(Event) {
			once.Do(func() { close(started) })
			<-ctx.Done()
		}
		done := make(chan error, 1)
		go func() {
			_, err := SynthesizeContext(ctx, g, opt, ExplorationHooks{})
			done <- err
		}()
		<-started // at least one point evaluated: workers are in flight
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: cancelled run returned %v", round, err)
		}
		if st := s.Stats(); st.Clients != 0 || st.Running != 0 || st.Waiting != 0 {
			t.Fatalf("round %d: scheduler still occupied after cancel: %+v", round, st)
		}
	}

	// Goroutine accounting: everything spawned by the cancelled runs must be
	// gone. Allow a settling window for the final workers to exit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancelled runs: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSchedulerDefaultCapacity: non-positive capacity sizes to the CPU count.
func TestSchedulerDefaultCapacity(t *testing.T) {
	if got := NewScheduler(0).Capacity(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default capacity = %d, want GOMAXPROCS", got)
	}
	if got := NewScheduler(7).Capacity(); got != 7 {
		t.Fatalf("capacity = %d, want 7", got)
	}
}
