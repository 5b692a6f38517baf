package memo

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Provenance says where a cached result came from.
type Provenance string

const (
	// FromMemory means the in-memory LRU tier answered the lookup.
	FromMemory Provenance = "memory"
	// FromDisk means the on-disk store answered the lookup (the entry is
	// promoted into the memory tier on the way out).
	FromDisk Provenance = "disk"
	// Computed means no tier had the entry and this caller ran the synthesis.
	Computed Provenance = "computed"
	// Shared means another in-flight computation of the same key was joined:
	// N concurrent identical requests cost one synthesis.
	Shared Provenance = "shared"
)

// Stats counts cache activity since construction. All counters are
// monotonically increasing.
type Stats struct {
	// MemHits and DiskHits count lookups answered by each tier.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	// Misses counts lookups no tier could answer.
	Misses uint64 `json:"misses"`
	// Shared counts callers that joined another caller's in-flight
	// computation instead of starting their own.
	Shared uint64 `json:"shared"`
	// Stores counts successful writes of a computed entry.
	Stores uint64 `json:"stores"`
	// CorruptDropped counts on-disk entries discarded because their value
	// did not match the digest stored with it (truncated write, bit rot,
	// external tampering). A dropped entry is recomputed, never returned.
	CorruptDropped uint64 `json:"corrupt_dropped"`
	// DiskErrors counts disk reads/writes that failed with an I/O error.
	// Disk trouble degrades the cache to memory-only behaviour per request;
	// it never fails the request itself.
	DiskErrors uint64 `json:"disk_errors"`
	// MemEntries is the current number of entries in the memory tier.
	MemEntries int `json:"mem_entries"`
}

// DefaultMemEntries is the memory-tier capacity used when the caller passes
// a non-positive limit to New.
const DefaultMemEntries = 256

// Cache is the two-tier result store: a bounded in-memory LRU in front of an
// optional on-disk directory of JSON files, with single-flight deduplication
// of concurrent computations for the same key. All methods are safe for
// concurrent use.
//
// The disk layout is dir/<k0k1>/<key>.json — two hex characters of fan-out,
// then one file per key. Its first line is "sha256:" and the hex SHA-256 of
// the value; exactly the serialised Result bytes follow, so
// `tail -n +2 <key>.json` prints the result. A read re-hashes the value, and
// an entry whose digest does not match — a torn external write, a flipped
// bit, even one that leaves valid JSON — is deleted and recomputed. Writes
// go through a temp file and an atomic rename, so a crash mid-write leaves
// at worst a stale temp file, never a truncated entry. Processes can share a
// directory: the CLI's -cache-dir and a sunfloor-server pointed at the same
// path serve each other's results.
type Cache struct {
	dir        string
	memEntries int

	mu      sync.Mutex
	lru     *list.List // most recent at front; values are *memEntry
	mem     map[string]*list.Element
	flights map[string]*flight
	stats   Stats
}

type memEntry struct {
	key string
	val []byte
}

// flight is one in-progress computation other callers of the same key join.
type flight struct {
	done chan struct{} // closed when val/err are final
	val  []byte
	err  error
}

// staleTempAge is how old an orphaned diskPut temp file must be before New
// sweeps it. A live temp file belonging to a concurrent writer is at most a
// few seconds old; anything this stale is the residue of a crash between
// CreateTemp and Rename.
const staleTempAge = time.Hour

// New opens a cache. dir is the on-disk store root ("" disables the disk
// tier); it is created if missing, and temp files orphaned by a crashed
// writer (older than staleTempAge) are swept. memEntries bounds the memory
// tier (<= 0 selects DefaultMemEntries).
func New(dir string, memEntries int) (*Cache, error) {
	if memEntries <= 0 {
		memEntries = DefaultMemEntries
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("memo: creating cache dir: %w", err)
		}
		sweepStaleTemps(dir)
	}
	return &Cache{
		dir:        dir,
		memEntries: memEntries,
		lru:        list.New(),
		mem:        make(map[string]*list.Element),
		flights:    make(map[string]*flight),
	}, nil
}

// sweepStaleTemps removes diskPut temp files left behind by a crashed
// writer. Real entries are <hexkey>.json and never start with a dot, so
// anything dot-prefixed with ".tmp" in its name inside a fan-out directory is
// a write-in-progress; the age gate keeps a concurrent writer's live temp
// file safe. Sweep failures are ignored — a leftover temp file is garbage,
// not a correctness problem.
func sweepStaleTemps(dir string) {
	now := time.Now() //determlint:wallclock age-gating orphaned temp files only; file removal never affects cache content or results
	fans, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(dir, fan.Name()))
		if err != nil {
			continue
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasPrefix(name, ".") || !strings.Contains(name, ".tmp") {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			if now.Sub(info.ModTime()) >= staleTempAge {
				os.Remove(filepath.Join(dir, fan.Name(), name))
			}
		}
	}
}

// Dir returns the on-disk store root ("" when the disk tier is disabled).
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.MemEntries = c.lru.Len()
	return s
}

// Lookup returns the cached bytes for key from either tier, without
// computing anything. A disk hit is promoted into the memory tier.
func (c *Cache) Lookup(key string) ([]byte, Provenance, bool) {
	b, prov, ok := c.Peek(key)
	if !ok {
		c.mu.Lock()
		c.stats.Misses++
		c.mu.Unlock()
	}
	return b, prov, ok
}

// Peek is Lookup without miss accounting: hits count as hits, but a miss
// leaves the counters untouched. Use it for an opportunistic check that a
// GetOrCompute will follow on a miss, so the miss is not counted twice.
func (c *Cache) Peek(key string) ([]byte, Provenance, bool) {
	c.mu.Lock()
	if b, ok := c.memGetLocked(key); ok {
		c.stats.MemHits++
		c.mu.Unlock()
		return b, FromMemory, true
	}
	c.mu.Unlock()

	if b, ok := c.diskGet(key); ok {
		c.mu.Lock()
		c.stats.DiskHits++
		c.memPutLocked(key, b)
		c.mu.Unlock()
		return b, FromDisk, true
	}
	return nil, "", false
}

// Put stores computed bytes for key in both tiers. Disk write failures are
// counted and swallowed: the entry still lands in the memory tier.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	c.memPutLocked(key, val)
	c.stats.Stores++
	c.mu.Unlock()
	c.diskPut(key, val)
}

// GetOrCompute returns the cached bytes for key, computing and storing them
// with compute on a miss. Concurrent calls for the same key are
// single-flighted: one caller computes, the others block and share its
// outcome (Provenance Shared). The context only bounds this caller's wait —
// a joined computation keeps running for the benefit of the other waiters
// when one of them gives up.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, Provenance, error) {
	for {
		// Fast path: either tier already has it.
		c.mu.Lock()
		if b, ok := c.memGetLocked(key); ok {
			c.stats.MemHits++
			c.mu.Unlock()
			return b, FromMemory, nil
		}
		if f, ok := c.flights[key]; ok {
			c.stats.Shared++
			c.mu.Unlock()
			select {
			case <-f.done:
				if f.err != nil {
					return nil, Shared, f.err
				}
				// Every waiter gets its own copy: f.val is shared by all
				// joiners and may also be the leader's return value.
				return clone(f.val), Shared, nil
			case <-ctx.Done():
				return nil, Shared, ctx.Err()
			}
		}
		c.mu.Unlock()

		if b, ok := c.diskGet(key); ok {
			c.mu.Lock()
			c.stats.DiskHits++
			c.memPutLocked(key, b)
			c.mu.Unlock()
			return b, FromDisk, nil
		}

		// Miss: become the flight leader, unless someone beat us to it
		// between the unlock and here — then loop and join their flight.
		c.mu.Lock()
		if _, ok := c.flights[key]; ok {
			c.mu.Unlock()
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.stats.Misses++
		c.mu.Unlock()

		// The flight must be cleaned up even when compute panics — otherwise
		// the entry leaks and every future caller of the key blocks forever
		// on a done channel that never closes. The cleanup is deferred, the
		// panic itself propagates to this caller, and waiters observe an
		// error instead of the leader's result.
		func() {
			completed := false
			defer func() {
				if !completed && f.err == nil {
					f.err = fmt.Errorf("memo: computing entry for key %s panicked", key)
				}
				c.mu.Lock()
				delete(c.flights, key)
				c.mu.Unlock()
				close(f.done)
			}()
			f.val, f.err = compute()
			completed = true
			if f.err == nil {
				c.Put(key, f.val)
			}
		}()
		if f.err != nil {
			return nil, Computed, f.err
		}
		return f.val, Computed, nil
	}
}

// clone copies cached bytes so the memory tier and its callers never share a
// backing array: a caller mutating a returned slice (or a slice it previously
// stored) must not corrupt later hits the way it would with aliasing, which
// the disk tier never suffered from.
func clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// memGetLocked returns a copy of the memory-tier entry and marks it most
// recently used.
func (c *Cache) memGetLocked(key string) ([]byte, bool) {
	el, ok := c.mem[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return clone(el.Value.(*memEntry).val), true
}

// memPutLocked inserts or refreshes a memory-tier entry (storing its own
// copy of val), evicting from the LRU tail past capacity.
func (c *Cache) memPutLocked(key string, val []byte) {
	if el, ok := c.mem[key]; ok {
		el.Value.(*memEntry).val = clone(val)
		c.lru.MoveToFront(el)
		return
	}
	c.mem[key] = c.lru.PushFront(&memEntry{key: key, val: clone(val)})
	for c.lru.Len() > c.memEntries {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.mem, tail.Value.(*memEntry).key)
	}
}

// entryPath maps a key to its on-disk location.
func (c *Cache) entryPath(key string) string {
	fan := "xx"
	if len(key) >= 2 {
		fan = key[:2]
	}
	return filepath.Join(c.dir, fan, key+".json")
}

// digestPrefix starts the first line of every disk entry; the hex SHA-256 of
// the value completes the line.
const digestPrefix = "sha256:"

// diskGet reads an entry from the disk tier, dropping it as corrupt when the
// value does not match its digest line (a torn external write, truncation or
// bit rot must lead to recomputation, never to a crash or a bad result).
func (c *Cache) diskGet(key string) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		if !os.IsNotExist(err) {
			c.mu.Lock()
			c.stats.DiskErrors++
			c.mu.Unlock()
		}
		return nil, false
	}
	line, val, _ := bytes.Cut(b, []byte{'\n'})
	sum := sha256.Sum256(val)
	if string(line) != digestPrefix+hex.EncodeToString(sum[:]) {
		os.Remove(c.entryPath(key))
		c.mu.Lock()
		c.stats.CorruptDropped++
		c.mu.Unlock()
		return nil, false
	}
	return val, true
}

// diskPut writes an entry to the disk tier atomically (temp file + rename):
// the digest line, then the value.
func (c *Cache) diskPut(key string, val []byte) {
	if c.dir == "" {
		return
	}
	path := c.entryPath(key)
	fail := func() {
		c.mu.Lock()
		c.stats.DiskErrors++
		c.mu.Unlock()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fail()
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp*")
	if err != nil {
		fail()
		return
	}
	sum := sha256.Sum256(val)
	_, err = tmp.WriteString(digestPrefix + hex.EncodeToString(sum[:]) + "\n")
	if err == nil {
		_, err = tmp.Write(val)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		fail()
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		fail()
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		fail()
		return
	}
}
