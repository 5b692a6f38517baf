package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by the
// benchmark's own code around calls into each layer's public functions; the
// engine itself is not instrumented.
type span struct {
	ID int `json:"id"`
	// Parent is the span that caused this one (0 for a root span).
	Parent int `json:"parent"`
	// Trace is the ID of the call the span belongs to, shared by every span
	// of that call.
	Trace string `json:"trace"`
	// Name is "<layer>.<function>", for example "route.ComputePaths".
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(trace string, parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) { t.spans[id-1].End = t.now() }

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(trace string, parent int, name string, fn func()) time.Duration {
	id := t.begin(trace, parent, name)
	fn()
	t.end(id)
	s := t.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, for every span (indexed like spans), its duration minus
// the union of its children's intervals. Children may overlap each other;
// each child interval is clipped to its parent's, so a child recorded after
// its parent ended subtracts nothing.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// nameTotal is the count, summed self time and summed duration of the spans
// sharing one name.
type nameTotal struct {
	count     int
	self, dur int64
}

// totalsByName aggregates spans by name.
func totalsByName(spans []span) map[string]nameTotal {
	self := selfTimes(spans)
	out := make(map[string]nameTotal)
	for i, s := range spans {
		t := out[s.Name]
		t.count++
		t.self += self[i]
		t.dur += s.End - s.Start
		out[s.Name] = t
	}
	return out
}
