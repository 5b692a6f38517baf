package sim

import (
	"math"
	"testing"
)

// TestBurstDrawSaturates: a period whose exponential draw is beyond int64's
// range converts to a platform-dependent value in Go, so draw must return
// maxPeriod for it on every CPU, and leave an in-range draw alone.
func TestBurstDrawSaturates(t *testing.T) {
	b := newBurstInjector(nil, DefaultConfig())
	for _, mean := range []float64{1e300, math.MaxFloat64, math.Inf(1)} {
		if got := b.draw(mean); got != maxPeriod {
			t.Errorf("draw(%g) = %d, want %d", mean, got, maxPeriod)
		}
	}
	for i := 0; i < 100; i++ {
		if got := b.draw(64); got < 1 || got > 64*64 {
			t.Fatalf("draw(64) = %d, want an ordinary period", got)
		}
	}
}
