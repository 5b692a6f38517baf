package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// runRecord is one run in a set of runs: the line a multi-run prints per
// workload and seed, and the input of -compare.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// readRecords reads a set of run records (JSON lines), keeping untraced runs.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// verdict judges set B against set A for one metric. A metric whose spread
// (in either set) is wider than its bound is unresolved, unless every run of
// B beats every run of A; otherwise B is worse when its median is worse than
// A's by more than the bound, better when it improves on A's by more than A's
// own spread, and unchanged in between.
func verdict(better string, bound float64, a, b []float64) string {
	ma, mb := median(a), median(b)
	rel := (mb - ma) / ma
	if better == "higher" {
		rel = -rel
	}
	if max(spread(a), spread(b)) > bound {
		aa, bb := sortedCopy(a), sortedCopy(b)
		if (better == "lower" && bb[len(bb)-1] < aa[0]) || (better == "higher" && bb[0] > aa[len(aa)-1]) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case rel > bound:
		return "worse"
	case -rel > spread(a):
		return "better"
	default:
		return "unchanged"
	}
}

// compareSets prints, for every workload and end-to-end metric, each set's
// median and quartiles, their ratio and the verdict. It reports whether any
// metric got worse.
func compareSets(spec *benchSpec, a, b []runRecord, w io.Writer) (worse bool) {
	values := func(rs []runRecord, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-8s %-14s %-6s %8s %32s %32s %8s  %s\n", "workload", "metric", "unit", "bound", "A median [q1, q3] n", "B median [q1, q3] n", "B/A", "verdict")
	for _, wl := range workloadNames {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl, m.Name), values(b, wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			cell := func(v []float64) string {
				q1, q2, q3 := quartiles(v)
				return fmt.Sprintf("%.4g [%.4g, %.4g] %d", q2, q1, q3, len(v))
			}
			v := verdict(m.Better, m.Bound, va, vb)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-8s %-14s %-6s %8.2f %32s %32s %8.3f  %s\n", wl, m.Name, m.Unit, m.Bound, cell(va), cell(vb), median(vb)/median(va), v)
		}
	}
	return worse
}
