package memo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheLookupPutTiers(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", c.Dir(), dir)
	}
	if _, _, ok := c.Lookup("k1"); ok {
		t.Fatal("lookup hit on empty cache")
	}
	c.Put("k1", []byte(`{"v":1}`))
	b, prov, ok := c.Lookup("k1")
	if !ok || prov != FromMemory || string(b) != `{"v":1}` {
		t.Fatalf("memory hit = (%q, %v, %v)", b, prov, ok)
	}

	// A fresh cache on the same directory simulates another process: the
	// memory tier is cold, the disk tier answers, and the entry is promoted.
	c2, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, prov, ok = c2.Lookup("k1")
	if !ok || prov != FromDisk || string(b) != `{"v":1}` {
		t.Fatalf("disk hit = (%q, %v, %v)", b, prov, ok)
	}
	if _, prov, _ = c2.Lookup("k1"); prov != FromMemory {
		t.Fatalf("promoted entry served from %v, want memory", prov)
	}

	st := c2.Stats()
	if st.MemHits != 1 || st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 mem hit, 1 disk hit", st)
	}
}

func TestCacheMemoryLRUEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", []byte(`1`))
	c.Put("b", []byte(`2`))
	c.Put("c", []byte(`3`)) // evicts "a" from memory
	if st := c.Stats(); st.MemEntries != 2 {
		t.Fatalf("mem entries = %d, want 2", st.MemEntries)
	}
	// "a" fell out of memory but the disk tier still has it.
	if _, prov, ok := c.Lookup("a"); !ok || prov != FromDisk {
		t.Fatalf("evicted entry lookup = (%v, %v), want disk hit", prov, ok)
	}
}

func TestCacheMemoryOnly(t *testing.T) {
	c, err := New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", []byte(`{}`))
	if _, prov, ok := c.Lookup("k"); !ok || prov != FromMemory {
		t.Fatalf("memory-only lookup = (%v, %v)", prov, ok)
	}
	if st := c.Stats(); st.DiskErrors != 0 {
		t.Fatalf("memory-only cache recorded disk errors: %+v", st)
	}
}

// TestCacheSingleFlight checks the headline dedup property: 100 concurrent
// identical requests cost exactly one computation; 99 callers share it.
func TestCacheSingleFlight(t *testing.T) {
	c, err := New(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 100
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func() ([]byte, error) {
		computes.Add(1)
		<-release // hold the flight open until every caller has joined
		return []byte(`{"v":42}`), nil
	}

	var wg sync.WaitGroup
	provs := make([]Provenance, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, provs[i], errs[i] = c.GetOrCompute(context.Background(), "k", compute)
		}(i)
	}
	// Wait until the other 99 callers are blocked on the flight, then let
	// the leader finish.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Shared != callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d callers joined the flight", c.Stats().Shared)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computations for %d identical requests, want 1", got, callers)
	}
	nComputed, nShared := 0, 0
	for i := range provs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		switch provs[i] {
		case Computed:
			nComputed++
		case Shared:
			nShared++
		default:
			t.Fatalf("caller %d: unexpected provenance %v", i, provs[i])
		}
	}
	if nComputed != 1 || nShared != callers-1 {
		t.Fatalf("provenances: %d computed, %d shared", nComputed, nShared)
	}
}

// TestCacheSingleFlightWaiterCancel: a waiter that gives up gets its context
// error; the computation keeps running for everyone else.
func TestCacheSingleFlightWaiterCancel(t *testing.T) {
	c, err := New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			<-release
			return []byte(`{}`), nil
		})
		leaderDone <- err
	}()
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx, "k", func() ([]byte, error) {
			t.Error("waiter must not compute")
			return nil, nil
		})
		waiterDone <- err
	}()
	for c.Stats().Shared == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after waiter cancel: %v", err)
	}
}

// TestCacheFailedComputeNotCached: a failed computation is shared with
// current waiters but never stored, so the next caller retries.
func TestCacheFailedComputeNotCached(t *testing.T) {
	c, err := New(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	b, prov, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		return []byte(`{}`), nil
	})
	if err != nil || prov != Computed || string(b) != `{}` {
		t.Fatalf("retry = (%q, %v, %v), want fresh computation", b, prov, err)
	}
}

// TestCacheCorruptDiskEntry: garbage on disk is dropped and recomputed, not
// crashed on and not returned.
func TestCacheCorruptDiskEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("deadbeef", []byte(`{"good":true}`))

	// Corrupt the entry behind the cache's back, then start a fresh cache so
	// the memory tier cannot mask the damage.
	path := filepath.Join(dir, "de", "deadbeef.json")
	if err := os.WriteFile(path, []byte("{\"truncated\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c2.Lookup("deadbeef"); ok {
		t.Fatal("corrupt entry was returned")
	}
	if st := c2.Stats(); st.CorruptDropped != 1 {
		t.Fatalf("corrupt entries dropped = %d, want 1", st.CorruptDropped)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not removed: %v", err)
	}

	b, prov, err := c2.GetOrCompute(context.Background(), "deadbeef", func() ([]byte, error) {
		return []byte(`{"recomputed":true}`), nil
	})
	if err != nil || prov != Computed || string(b) != `{"recomputed":true}` {
		t.Fatalf("recompute after corruption = (%q, %v, %v)", b, prov, err)
	}
}

// TestCacheDigestMismatch: a disk entry is its value's digest line followed
// by the value, and a value edited so that it stays valid JSON — one digit of
// a number flipped — no longer matches its digest, so it is dropped and
// recomputed instead of served.
func TestCacheDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	val := []byte(`{"points":[{"power_mw":12.5}],"best_index":0}`)
	c.Put("deadbeef", val)

	path := filepath.Join(dir, "de", "deadbeef.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(val)
	if want := "sha256:" + hex.EncodeToString(sum[:]) + "\n" + string(val); string(b) != want {
		t.Fatalf("disk entry = %q, want %q", b, want)
	}
	flipped := bytes.Replace(b, []byte("12.5"), []byte("13.5"), 1)
	if !json.Valid(flipped[bytes.IndexByte(flipped, '\n')+1:]) {
		t.Fatal("the flipped value should still be valid JSON")
	}
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, ok := c2.Lookup("deadbeef"); ok {
		t.Fatalf("entry with a flipped digit was served: %s", got)
	}
	if st := c2.Stats(); st.CorruptDropped != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt drop and 1 miss", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not removed: %v", err)
	}
	got, prov, err := c2.GetOrCompute(context.Background(), "deadbeef", func() ([]byte, error) {
		return val, nil
	})
	if err != nil || prov != Computed || !bytes.Equal(got, val) {
		t.Fatalf("recompute after digest mismatch = (%q, %v, %v)", got, prov, err)
	}
}

// TestCachePanickingComputeReleasesFlight: a compute that panics must not
// leak its flight entry — waiters unblock with an error and the key stays
// usable for the next caller.
func TestCachePanickingComputeReleasesFlight(t *testing.T) {
	c, err := New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			<-release
			panic("compute exploded")
		})
	}()
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}

	// A waiter joins the doomed flight before the panic fires.
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			t.Error("waiter must not compute while the flight is open")
			return nil, nil
		})
		waiterDone <- err
	}()
	for c.Stats().Shared == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	if r := <-leaderPanicked; r == nil {
		t.Fatal("panic did not propagate to the leader's caller")
	}
	select {
	case err := <-waiterDone:
		if err == nil {
			t.Fatal("waiter of a panicked flight returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked: panicked flight leaked")
	}

	// The key must be fully usable again.
	b, prov, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		return []byte(`{"ok":true}`), nil
	})
	if err != nil || prov != Computed || string(b) != `{"ok":true}` {
		t.Fatalf("key unusable after panicked flight: (%q, %v, %v)", b, prov, err)
	}
}

// TestCacheReturnedSlicesIsolated: mutating a slice returned by any read
// path — or one previously handed to Put — must not corrupt later hits.
func TestCacheReturnedSlicesIsolated(t *testing.T) {
	c, err := New(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"v":1}`
	stored := []byte(want)
	c.Put("k", stored)
	stored[0] = 'X' // caller scribbles on the slice it stored

	got, prov, ok := c.Lookup("k")
	if !ok || prov != FromMemory || string(got) != want {
		t.Fatalf("after store-side mutation: (%q, %v, %v), want %q", got, prov, ok, want)
	}
	got[0] = 'Y' // caller scribbles on the slice it was handed
	if got2, _, ok := c.Lookup("k"); !ok || string(got2) != want {
		t.Fatalf("after hit-side mutation: %q, want %q", got2, want)
	}
	if got3, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		t.Error("hit must not compute")
		return nil, nil
	}); err != nil || string(got3) != want {
		t.Fatalf("GetOrCompute after mutations: (%q, %v), want %q", got3, err, want)
	}
}

// TestCacheStaleTempSweep: New removes temp files orphaned by a crashed
// diskPut, but keeps a concurrent writer's fresh temp file and every real
// entry.
func TestCacheStaleTempSweep(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("deadbeef", []byte(`{"v":1}`))

	fan := filepath.Join(dir, "de")
	stale := filepath.Join(fan, ".deadbeef.tmp123456")
	fresh := filepath.Join(fan, ".cafef00d.tmp654321")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := New(dir, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the sweep: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file was swept: %v", err)
	}
	if _, err := os.Stat(filepath.Join(fan, "deadbeef.json")); err != nil {
		t.Fatalf("real entry was swept: %v", err)
	}
}

// TestCacheConcurrentDistinctKeys hammers the cache with distinct keys to
// exercise LRU eviction and disk writes under the race detector.
func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c, err := New(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%02d", i%16)
			val := []byte(fmt.Sprintf(`{"i":%d}`, i%16))
			got, _, err := c.GetOrCompute(context.Background(), key, func() ([]byte, error) {
				return val, nil
			})
			if err != nil {
				t.Error(err)
			}
			if string(got) != string(val) {
				t.Errorf("key %s: got %s want %s", key, got, val)
			}
		}(i)
	}
	wg.Wait()
}
