package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sunfloor3d"
	"sunfloor3d/internal/server"
)

// answer is a ?wait=1 submission's response.
type answer struct {
	status    int
	body      []byte
	key, prov string
}

// post submits body with ?wait=1.
func post(t *testing.T, ts *httptest.Server, body string) answer {
	t.Helper()
	resp := submit(t, ts, body, true)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{resp.StatusCode, b, resp.Header.Get("X-Sunfloor-Key"), resp.Header.Get("X-Sunfloor-Cache")}
}

// indexStats reads the request index's counters from the stats endpoint.
func indexStats(t *testing.T, ts *httptest.Server) server.IndexStats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view server.StatsView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view.Index
}

// TestRequestIndexRepeatedBody: a repeated body, in either design form, is an
// index hit answered from memory with the first answer's key and bytes, which
// are those of a direct Synthesize.
func TestRequestIndexRepeatedBody(t *testing.T) {
	want := directResult(t, fastGen)
	for _, tc := range []struct{ name, body string }{
		{"spec", specBody(t)},
		{"gen", fmt.Sprintf(`{"gen":%q}`, fastGen)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, server.Config{})
			first := post(t, ts, tc.body)
			if first.status != http.StatusOK || first.prov != "computed" {
				t.Fatalf("first submission: status %d, provenance %q: %s", first.status, first.prov, first.body)
			}
			if st := indexStats(t, ts); st != (server.IndexStats{Entries: 1}) {
				t.Fatalf("index after the first submission: %+v, want one entry and no hit", st)
			}
			again := post(t, ts, tc.body)
			if again.status != http.StatusOK || again.prov != "memory" || again.key != first.key {
				t.Fatalf("repeated submission: status %d, provenance %q, key %s (first %s)", again.status, again.prov, again.key, first.key)
			}
			if st := indexStats(t, ts); st != (server.IndexStats{Entries: 1, Hits: 1}) {
				t.Fatalf("index after the repeat: %+v, want one entry and one hit", st)
			}
			if !bytes.Equal(first.body, want) || !bytes.Equal(again.body, want) {
				t.Fatal("served bytes differ from a direct Synthesize")
			}
		})
	}
}

// TestRequestIndexNewSpelling: the same request with other whitespace is not
// an index hit, but the full path gives it the same key and bytes.
func TestRequestIndexNewSpelling(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	body := specBody(t)
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(body), "", "  "); err != nil {
		t.Fatal(err)
	}
	first := post(t, ts, body)
	again := post(t, ts, indented.String())
	if again.status != http.StatusOK || again.prov != "memory" || again.key != first.key {
		t.Fatalf("respelled submission: status %d, provenance %q, key %s (first %s)", again.status, again.prov, again.key, first.key)
	}
	if !bytes.Equal(again.body, first.body) {
		t.Fatal("respelled submission's bytes differ from the first answer")
	}
	if st := indexStats(t, ts); st != (server.IndexStats{Entries: 2}) {
		t.Fatalf("index after two spellings: %+v, want two entries and no hit", st)
	}
}

// TestRequestIndexSkipsRejectedBodies: a body the full path rejects is a 400
// every time and never enters the index.
func TestRequestIndexSkipsRejectedBodies(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for _, body := range []string{
		`{"cores_spec":"x","comm_spec":"y"}`,
		fmt.Sprintf(`{"gen":%q,"options":{"nosuch":1}}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"phase":"phase9"}}`, fastGen),
	} {
		for i := 0; i < 2; i++ {
			if a := post(t, ts, body); a.status != http.StatusBadRequest {
				t.Fatalf("submission %d of %s: status %d (%s), want 400", i, body, a.status, a.body)
			}
		}
	}
	if st := indexStats(t, ts); st != (server.IndexStats{}) {
		t.Fatalf("index after rejected bodies: %+v, want it empty", st)
	}
}

// TestRequestIndexEvictedEntry: an index hit whose result has left the cache
// takes the full path and is computed again, to the same bytes.
func TestRequestIndexEvictedEntry(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MemEntries: 1})
	a := fmt.Sprintf(`{"gen":%q}`, fastGen)
	b := `{"gen":"shape=pipeline,cores=8,layers=2,seed=2"}`
	first := post(t, ts, a)
	post(t, ts, b) // evicts a's result from the one-entry memory tier
	again := post(t, ts, a)
	if again.status != http.StatusOK || again.prov != "computed" || again.key != first.key {
		t.Fatalf("evicted body's resubmission: status %d, provenance %q, key %s (first %s)", again.status, again.prov, again.key, first.key)
	}
	if !bytes.Equal(again.body, first.body) {
		t.Fatal("recomputed bytes differ from the first answer")
	}
	if st := indexStats(t, ts); st != (server.IndexStats{Entries: 2, Hits: 1}) {
		t.Fatalf("index after A, B, A: %+v, want two entries and one hit", st)
	}
}

// TestRequestIndexReset: past its bound the index is reset, and every body,
// the forgotten ones included, is still answered with the same key and bytes.
func TestRequestIndexReset(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	spec := specBody(t)
	// serve posts the i-th spelling of the same request, with i leading
	// spaces, straight to the handler.
	serve := func(i int) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		body := strings.Repeat(" ", i) + spec
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/synthesize?wait=1", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("spelling %d: status %d: %s", i, rec.Code, rec.Body)
		}
		return rec
	}
	first := serve(0)
	key := first.Header().Get("X-Sunfloor-Key")
	const extra = 3
	for i := 1; i < server.MaxIndexEntries+extra; i++ {
		rec := serve(i)
		if rec.Header().Get("X-Sunfloor-Key") != key || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("spelling %d: key or bytes differ from the first answer", i)
		}
	}
	if st := indexStats(t, ts); st != (server.IndexStats{Entries: extra}) {
		t.Fatalf("index after %d spellings: %+v, want %d entries (reset once) and no hit", server.MaxIndexEntries+extra, st, extra)
	}
	// The first spelling was forgotten at the reset: it takes the full path
	// once more, then it is a hit again.
	for hits := uint64(0); hits < 2; hits++ {
		rec := serve(0)
		if rec.Header().Get("X-Sunfloor-Key") != key || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
			t.Fatal("the forgotten spelling's key or bytes differ from the first answer")
		}
		if st := indexStats(t, ts); st.Hits != hits {
			t.Fatalf("index hits %d after the forgotten spelling, want %d", st.Hits, hits)
		}
	}
}

// TestRequestIndexConcurrent: concurrent handlers share the index. Eight
// clients post a mix of three bodies, two of them spellings of one design;
// every answer is a direct Synthesize's bytes, and each client's repeat of a
// body is an index hit.
func TestRequestIndexConcurrent(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Workers: 4})
	const other = "shape=pipeline,cores=8,layers=2,seed=2"
	bodies := []string{
		fmt.Sprintf(`{"gen":%q}`, fastGen),
		specBody(t),
		fmt.Sprintf(`{"gen":%q,"options":{"frequencies_mhz":[400,800]}}`, other),
	}
	plain := directResult(t, fastGen)
	want := [][]byte{plain, plain, directResult(t, other, sunfloor3d.WithFrequenciesMHz(400, 800))}
	const clients, perClient = 8, 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				k := (c + i) % len(bodies)
				resp, err := http.Post(ts.URL+"/v1/synthesize?wait=1", "application/json", strings.NewReader(bodies[k]))
				if err != nil {
					t.Error(err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d, body %d: status %d, error %v: %s", c, k, resp.StatusCode, err, b)
					return
				}
				if !bytes.Equal(b, want[k]) {
					t.Errorf("client %d, body %d: served bytes differ from a direct Synthesize", c, k)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	// A client's first post of a body may miss the index; its later posts
	// of it come after its first answer, and so after the body was indexed.
	st := indexStats(t, ts)
	if minHits := uint64(clients*perClient - clients*len(bodies)); st.Entries != len(bodies) || st.Hits < minHits {
		t.Fatalf("index after the concurrent run: %+v, want %d entries and at least %d hits", st, len(bodies), minHits)
	}
}
