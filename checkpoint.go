package sunfloor3d

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"sunfloor3d/internal/synth"
)

// checkpointVersion tags the on-disk checkpoint record format.
const checkpointVersion = 1

// checkpointRecord is one line of a checkpoint file: the complete point list
// of one finished exploration cell, tagged with the request fingerprint so a
// checkpoint can never resume a different request.
type checkpointRecord struct {
	V      int           `json:"v"`
	FP     string        `json:"fp"`
	Cell   int           `json:"cell"`
	Points []DesignPoint `json:"points"`
}

// checkpointFile is the explorer's resumable on-disk state (WithCheckpoint):
// an append-only JSON-lines file of checkpointRecord entries. Each finished
// cell is appended as one line in a single write, so a crash can at worst
// leave one torn trailing line, which the loader skips; everything before it
// is replayed on resume, and the resumed run's first append starts a new
// line so its record is not glued onto the fragment. Records from other
// shards of the same request can be concatenated into the file (plain `cat`)
// and are restored identically, which is what makes shard merges exact.
type checkpointFile struct {
	f *os.File
	// w is the append target: c.f in production, injectable in tests so the
	// failing-writer path can be exercised without filesystem tricks.
	w     io.Writer
	fp    string
	cells map[int][]synth.DesignPoint
	// torn reports that the file does not end in a newline (a record torn
	// by a killed writer), so the next append must start a new line.
	torn bool
}

// openCheckpoint loads (or creates) the checkpoint at path for the request
// with the given fingerprint, whose design has the given number of flows.
// Existing records are validated against the fingerprint: a mismatch is an
// error, because the file demonstrably belongs to a different request.
// Malformed or torn lines are skipped, and so are records with a point that
// claims more failed flows than the design has (or fewer than none); their
// cells are recomputed. The first record of a cell wins (later duplicates —
// e.g. from concatenated shard files that each computed the witness cell —
// are ignored).
func openCheckpoint(path, fingerprint string, flows int) (*checkpointFile, error) {
	ck := &checkpointFile{fp: fingerprint, cells: map[int][]synth.DesignPoint{}}
	if data, err := os.ReadFile(path); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 64<<20)
	records:
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec checkpointRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				continue // torn or corrupt line: recompute that cell
			}
			if rec.V != checkpointVersion {
				continue
			}
			if rec.FP != fingerprint {
				return nil, fmt.Errorf("sunfloor3d: checkpoint %s belongs to request %.12s…, not %.12s…", path, rec.FP, fingerprint)
			}
			if _, ok := ck.cells[rec.Cell]; ok {
				continue
			}
			pts := make([]synth.DesignPoint, len(rec.Points))
			for i, p := range rec.Points {
				if p.Route.FailedFlows < 0 || p.Route.FailedFlows > flows {
					continue records // impossible, so corrupt: recompute that cell
				}
				pts[i] = internalFromPoint(p)
			}
			ck.cells[rec.Cell] = pts
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("sunfloor3d: reading checkpoint %s: %w", path, err)
		}
		ck.torn = len(data) > 0 && data[len(data)-1] != '\n'
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("sunfloor3d: reading checkpoint %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sunfloor3d: opening checkpoint %s: %w", path, err)
	}
	ck.f = f
	ck.w = f
	return ck, nil
}

// restore implements synth.ExplorationHooks.Restore.
func (c *checkpointFile) restore(cell int) ([]synth.DesignPoint, bool) {
	pts, ok := c.cells[cell]
	return pts, ok
}

// append implements synth.ExplorationHooks.Done: it persists one finished
// cell as a single appended line. A write error is returned immediately and
// fails the exploration — continuing past it would finish the sweep against a
// checkpoint that is silently stale, and a later resume would recompute work
// the caller believed was persisted.
func (c *checkpointFile) append(cell int, pts []synth.DesignPoint) error {
	rec := checkpointRecord{V: checkpointVersion, FP: c.fp, Cell: cell, Points: make([]DesignPoint, len(pts))}
	for i, dp := range pts {
		rec.Points[i] = pointFromInternal(dp)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sunfloor3d: encoding checkpoint cell %d: %w", cell, err)
	}
	line := append(data, '\n')
	if c.torn {
		line = append([]byte{'\n'}, line...)
	}
	if _, err := c.w.Write(line); err != nil {
		return fmt.Errorf("sunfloor3d: writing checkpoint cell %d: %w", cell, err)
	}
	c.torn = false
	return nil
}

// close releases the file handle.
func (c *checkpointFile) close() error {
	return c.f.Close()
}
