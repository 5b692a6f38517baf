package sunfloor3d

import (
	"sunfloor3d/internal/memo"
)

// Fingerprint returns the canonical, versioned content hash of a synthesis
// request — the design plus the result-affecting options — as a lowercase
// hex string. Two requests receive the same fingerprint exactly when the
// engine is guaranteed to produce byte-identical serialised Results for
// them, which is what makes results safely cacheable and shareable: the
// fingerprint is the key of the design-point cache used by sunfloor-server
// and by the CLI's -cache-dir mode.
//
// Execution knobs that are proven not to change the serialised Result —
// WithParallelism, WithProgress, WithScheduler, WithFairShareWeight — do
// not influence the fingerprint, so a cache filled by a heavily parallel
// server run answers a serial CLI run and vice versa.
// The options are validated the same way NewEngine validates them, and the
// design the same way Engine.Synthesize validates it.
func Fingerprint(d *Design, opts ...Option) (string, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return "", err
	}
	if err := d.Check(); err != nil {
		return "", err
	}
	return memo.Key(d, cfg.opt), nil
}
