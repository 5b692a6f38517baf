// Package experiments contains one runner per table and figure of the
// paper's evaluation section (Section VIII). Every runner regenerates the
// corresponding data series — the same rows the paper plots or tabulates —
// on the synthetic benchmark suite, using the full synthesis, placement,
// mesh-mapping and floorplanning machinery of this repository. The cmd/
// sunfloor-bench tool prints them, and the package's tests check each series
// against the trend the paper reports.
package experiments

import (
	"fmt"
	"strings"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/noclib"
	"sunfloor3d/internal/partition"
	"sunfloor3d/internal/synth"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives every randomised generator so runs are reproducible.
	Seed int64
	// FreqMHz is the NoC operating frequency used by all experiments.
	FreqMHz float64
	// MaxILL is the inter-layer link constraint used unless an experiment
	// sweeps it.
	MaxILL int
	// Quick trades thoroughness for speed (used by unit tests): smaller
	// switch-count ranges and lighter floorplanning.
	Quick bool
	// Jobs bounds how many design points each synthesis run evaluates
	// concurrently (0 or 1 = serial, negative = one worker per CPU).
	Jobs int
}

// DefaultConfig matches the experimental setup of the paper: 400 MHz NoC,
// 32-bit links, max_ill = 25.
func DefaultConfig() Config {
	return Config{Seed: 1, FreqMHz: 400, MaxILL: 25}
}

// synthOptions builds the synthesis options corresponding to the config.
func (c Config) synthOptions() synth.Options {
	opt := synth.DefaultOptions()
	opt.Lib = noclib.DefaultLibrary()
	opt.FrequenciesMHz = []float64{c.FreqMHz}
	opt.MaxILL = c.MaxILL
	opt.Partition = partition.DefaultParams()
	opt.Parallelism = c.Jobs
	return opt
}

// benchmarks returns the full suite for this config's seed.
func (c Config) benchmarks() []bench.Benchmark {
	return bench.All(c.Seed)
}

// FormatTable renders a simple aligned text table: header plus rows.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d0(v int) string     { return fmt.Sprintf("%d", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.0f%%", v*100)
}
