package determlint

import (
	"testing"

	"sunfloor3d/internal/determlint/analysis/analysistest"
)

// The graph fixture seeds maprange violations, the three accepted shapes
// (sorted keys, keyed scatter, waivers) and the directive-hygiene findings;
// the server fixture re-runs the violating shapes in an allowlisted package
// and must stay silent.
func TestMapRange(t *testing.T) {
	analysistest.Run(t, "testdata", MapRange,
		"sunfloor3d/internal/graph",
		"sunfloor3d/internal/server",
	)
}

// The partition fixture recreates the PR 3 map-order float-summation bug
// (SwapGain) plus the goroutine and sync-callback variants; declarations
// inside the unordered region, integer folds and waived loops stay silent.
func TestFloatAccum(t *testing.T) {
	analysistest.Run(t, "testdata", FloatAccum,
		"sunfloor3d/internal/partition",
		"sunfloor3d/internal/server",
	)
}

// The sim fixture seeds wall-clock reads and global rand draws next to the
// seeded-generator idiom and both waiver placements; the server fixture
// asserts the allowlist.
func TestWallClock(t *testing.T) {
	analysistest.Run(t, "testdata", WallClock,
		"sunfloor3d/internal/sim",
		"sunfloor3d/internal/server",
	)
}

func TestResultAffecting(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"sunfloor3d", true},
		{"sunfloor3d/internal/graph", true},
		{"sunfloor3d/internal/partition", true},
		{"sunfloor3d/internal/memo", true},
		{"sunfloor3d/internal/determlint", false},
		{"sunfloor3d/internal/server", false},
		{"sunfloor3d/internal/bench", true},
		{"sunfloor3d/cmd/sunfloor-server", false},
		{"sunfloor3d/experiments", false},
		{"fmt", false},
	}
	for _, c := range cases {
		if got := ResultAffecting(c.path); got != c.want {
			t.Errorf("ResultAffecting(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
