package synth

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sunfloor3d/internal/bench"
)

// TestDiscardedAttemptsStopAtFirstFailure sweeps the input of the golden
// case d65_pipe_fallback_900 (D_65_pipe at seed 1, 900 MHz, default
// options), whose Algorithm 1 leaves switch counts unmet and so builds theta
// retries and Phase-2 fallback steps. Those attempts are retained only when
// valid, so each one that failed in routing must have stopped at its first
// unroutable flow: FailedFlows 1 and a FailReason that claims no total. The
// theta-0 attempts route every flow, so some of them report more. The
// retained points must serialise to the golden file's bytes, as the facade
// writes them.
func TestDiscardedAttemptsStopAtFirstFailure(t *testing.T) {
	opt := DefaultOptions()
	opt.FrequenciesMHz = []float64{900}
	var attempts []Point
	opt.Progress = func(ev Event) { attempts = append(attempts, ev.Point.Point) }
	res, err := Synthesize(bench.D65Pipe(1).Graph3D, opt)
	if err != nil {
		t.Fatal(err)
	}

	stopped, fullCounts := 0, 0
	for _, p := range attempts {
		if p.Route.FailedFlows == 0 {
			continue // routed every flow, or failed before routing
		}
		if p.Theta == 0 && p.Phase == 1 {
			if p.Route.FailedFlows > 1 {
				fullCounts++
			}
			continue
		}
		stopped++
		if p.Route.FailedFlows != 1 || strings.Contains(p.FailReason, "flows could not be routed") {
			t.Errorf("%d switches, phase %d, theta %g: %d failed flows (%q), want the one it stopped at",
				p.SwitchCount, p.Phase, p.Theta, p.Route.FailedFlows, p.FailReason)
		}
	}
	if stopped == 0 || fullCounts == 0 {
		t.Fatalf("%d stopped retries and %d theta-0 attempts with more than one failed flow, want both > 0", stopped, fullCounts)
	}

	out := struct {
		Points    []Point `json:"points"`
		BestIndex int     `json:"best_index"`
	}{BestIndex: -1}
	for i := range res.Points {
		out.Points = append(out.Points, res.Points[i].Point)
		if res.Best == &res.Points[i] {
			out.BestIndex = i
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "d65_pipe_fallback_900.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("retained points differ from the golden file (%d bytes, want %d)", buf.Len(), len(want))
	}
}
