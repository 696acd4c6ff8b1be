package workload

import (
	"testing"
	"time"
)

// TestRateProfileEdgeCases pins the boundary behavior of the rate
// profiles: non-positive periods degrade to the base rate, and duty
// cycles clamp into [0, 1] instead of producing negative phases.
func TestRateProfileEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		p    RateProfile
		at   time.Duration
		want float64
	}{
		{"square zero period yields base", SquareBurst(5, 50, 0, 0.5), 0, 5},
		{"square zero period yields base late", SquareBurst(5, 50, 0, 0.5), time.Hour, 5},
		{"square negative period yields base", SquareBurst(5, 50, -time.Second, 0.5), 300 * time.Millisecond, 5},
		{"square negative duty clamps to always-base", SquareBurst(5, 50, time.Second, -0.7), 0, 5},
		{"square negative duty clamps mid-period", SquareBurst(5, 50, time.Second, -0.7), 500 * time.Millisecond, 5},
		{"square duty above one clamps to always-peak", SquareBurst(5, 50, time.Second, 1.5), 0, 50},
		{"square duty above one clamps late phase", SquareBurst(5, 50, time.Second, 1.5), 999 * time.Millisecond, 50},
		{"square zero duty never peaks", SquareBurst(5, 50, time.Second, 0), 0, 5},
		{"square full duty always peaks", SquareBurst(5, 50, time.Second, 1), 900 * time.Millisecond, 50},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.p(c.at); got != c.want {
				t.Fatalf("profile(%v) = %v, want %v", c.at, got, c.want)
			}
		})
	}
}

// TestTraceSpecProfileBoundaries pins TraceSpec.Profile's duty-cycle
// boundaries: duty outside (0, 1) collapses to a constant mean-rate
// profile, and a burst factor large enough to drive the computed base
// negative clamps the base at zero rather than going negative.
func TestTraceSpecProfileBoundaries(t *testing.T) {
	base := TraceSpec{MeanFlowRate: 100, BurstFactor: 2, BurstPeriod: time.Second}

	for _, duty := range []float64{0, -0.5, 1, 1.5} {
		spec := base
		spec.BurstDuty = duty
		p := spec.Profile()
		for _, at := range []time.Duration{0, 250 * time.Millisecond, 990 * time.Millisecond} {
			if got := p(at); got != spec.MeanFlowRate {
				t.Fatalf("duty=%v: profile(%v) = %v, want constant %v", duty, at, got, spec.MeanFlowRate)
			}
		}
	}

	// peak = 100·10 = 1000, base = (100 - 1000·0.5)/0.5 = -800 → clamp 0.
	hot := base
	hot.BurstFactor = 10
	hot.BurstDuty = 0.5
	p := hot.Profile()
	if got := p(250 * time.Millisecond); got != 1000 {
		t.Fatalf("peak phase = %v, want 1000", got)
	}
	if got := p(750 * time.Millisecond); got != 0 {
		t.Fatalf("off phase = %v, want clamped 0 (not negative)", got)
	}

	// A zero burst period with an in-range duty still never divides by
	// zero: SquareBurst degrades to base, which the clamp set to
	// (mean - peak·duty)/(1-duty).
	flat := base
	flat.BurstDuty = 0.25
	flat.BurstPeriod = 0
	want := (flat.MeanFlowRate - flat.MeanFlowRate*flat.BurstFactor*0.25) / 0.75
	if got := flat.Profile()(time.Hour); got != want {
		t.Fatalf("zero-period trace profile = %v, want base %v", got, want)
	}
}
