package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	// note is printed beside the value in the human-readable lines, for
	// example the sample count behind a median.
	note string
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	attempted int
	failed    int
	// problems says why outputs were wrong or calls failed; any entry makes
	// the run incorrect.
	problems []string
	// infos are printed before the metrics but are not part of the result.
	infos   []string
	metrics []metric
}

func (r *report) info(format string, args ...any) {
	r.infos = append(r.infos, fmt.Sprintf(format, args...))
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// result is the JSON object a run prints as the last line of its output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) result() result {
	out := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN; the run is already marked incorrect
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}

// write prints one line per problem, information and metric, then the result
// object as the last line.
func (r *report) write(w io.Writer) error {
	for _, p := range r.problems {
		fmt.Fprintf(w, "%s: FAIL %s\n", r.workload, p)
	}
	for _, s := range r.infos {
		fmt.Fprintf(w, "%s: %s\n", r.workload, s)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %-30s %14.6g %-6s %s\n", r.workload, m.name, m.value, m.unit, m.note)
	}
	b, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
