package sunfloor3d

// Failure-path tests of the checkpoint file: an append that cannot be
// persisted must fail the exploration immediately rather than let the run
// finish against a silently stale checkpoint, and no file content may make
// the loader panic.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sunfloor3d/internal/synth"
)

// failingWriter fails every write with a fixed error.
type failingWriter struct{ err error }

func (w failingWriter) Write(p []byte) (int, error) { return 0, w.err }

func TestCheckpointAppendSurfacesWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck, err := openCheckpoint(path, "fp-test", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.close()

	// A healthy writer persists the cell and reports no error.
	if err := ck.append(0, []synth.DesignPoint{{Point: synth.Point{SwitchCount: 2, Valid: true}}}); err != nil {
		t.Fatalf("append to healthy writer: %v", err)
	}

	// A failing writer surfaces the error to the caller on the spot.
	sinkErr := errors.New("sink full")
	ck.w = failingWriter{err: sinkErr}
	err = ck.append(1, []synth.DesignPoint{{Point: synth.Point{SwitchCount: 3}}})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("append error = %v, want wrapped %v", err, sinkErr)
	}
	if !strings.Contains(err.Error(), "cell 1") {
		t.Errorf("append error %q does not name the failed cell", err)
	}

	// The healthy write made it to disk; the failed one did not.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimRight(string(data), "\n"), "\n") + 1
	if lines != 1 {
		t.Errorf("checkpoint holds %d lines, want exactly the one healthy append", lines)
	}
	if !strings.Contains(string(data), `"cell":0`) {
		t.Errorf("checkpoint %q does not hold cell 0", data)
	}
}

// FuzzOpenCheckpoint: whatever a checkpoint file holds, opening it for the
// request that wrote it does not panic, and every point it restores
// serialises again and restores to the same bytes. Every line that parses
// as a record is re-signed first, so mutated points pass the digest check
// and reach the round trip. The corpus is seeded with a real checkpoint and
// with its first record claiming an impossible failed-flow count.
func FuzzOpenCheckpoint(f *testing.F) {
	spec, err := ParseGenSpec("shape=pipeline,cores=8,layers=2,seed=1")
	if err != nil {
		f.Fatal(err)
	}
	b, err := GenerateBenchmark(spec)
	if err != nil {
		f.Fatal(err)
	}
	d := b.Graph3D
	opts := []Option{WithSpace(Space{NoPrune: true, Axes: []Axis{
		{Name: AxisFreqMHz, Values: []float64{400, 600}},
		{Name: AxisSwitchCount, Values: []float64{1, 2, 3}},
	}})}
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	if _, err := Synthesize(context.Background(), d, append(opts, WithCheckpoint(path))...); err != nil {
		f.Fatal(err)
	}
	fp, err := Fingerprint(d, opts...)
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(bytes.Replace(data, []byte(`"route_stats":{`), []byte(`"route_stats":{"failed_flows":4611686018427387904,`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		lines := bytes.Split(data, []byte("\n"))
		for i, line := range lines {
			var rec checkpointRecord
			if json.Unmarshal(line, &rec) != nil {
				continue
			}
			// Marshal compacts the raw points the way the record's own
			// marshalling will, so the sum covers the bytes written.
			points, err := json.Marshal(rec.Points)
			if err != nil {
				continue
			}
			rec.Sum, rec.Points = pointsSum(points), points
			if signed, err := json.Marshal(rec); err == nil {
				lines[i] = signed
			}
		}
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := openCheckpoint(path, fp, len(d.Flows))
		if err != nil {
			return // a record of another request: refused as a whole
		}
		defer ck.close()
		for cell, pts := range ck.cells {
			for _, p := range pts {
				first, err := json.Marshal(p)
				if err != nil {
					t.Fatalf("cell %d: restored point does not serialise: %v", cell, err)
				}
				var q synth.DesignPoint
				if err := json.Unmarshal(first, &q); err != nil {
					t.Fatalf("cell %d: re-serialised point %s does not parse: %v", cell, first, err)
				}
				again, err := json.Marshal(q)
				if err != nil || !bytes.Equal(first, again) {
					t.Fatalf("cell %d: point %s restores as %s (%v)", cell, first, again, err)
				}
			}
		}
	})
}
