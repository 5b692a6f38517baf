package sunfloor3d_test

import (
	"testing"

	"sunfloor3d"
)

// TestFingerprintPinned holds the cache key of three fixed requests to
// literals. A key that moves orphans every disk-cache entry and checkpoint
// written under it, yet no other test notices: they compare keys with each
// other, never with a value from an earlier build. A change that means to
// move keys bumps memo.Version and rewrites these literals.
func TestFingerprintPinned(t *testing.T) {
	b, err := sunfloor3d.BenchmarkByName("D_26_media", 1)
	if err != nil {
		t.Fatal(err)
	}
	sim := sunfloor3d.WithSimulation(sunfloor3d.DefaultSimConfig())
	for _, tc := range []struct {
		name string
		opts []sunfloor3d.Option
		want string
	}{
		{"defaults", nil, "da64a835bcd870ddf1f4eec0fc3ae19989b095fca987bde918257c81621cdeac"},
		{"simulation", []sunfloor3d.Option{sim}, "ed618872baecae41f8ff8e548296b6d5bf0cad019fc60d88411148630d522a52"},
		{"fidelity_and_faults", []sunfloor3d.Option{
			sim, sunfloor3d.WithContention(), sunfloor3d.WithSimBand(0.05),
			sunfloor3d.WithFaultModel(sunfloor3d.DefaultFaultModelConfig()),
		}, "aa93b4f35bdde5eaabf89f8c337af9267df0390e250893a2671e2fbe6a08c64b"},
	} {
		got, err := sunfloor3d.Fingerprint(b.Graph3D, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: key %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
