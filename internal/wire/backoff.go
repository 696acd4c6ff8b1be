package wire

import (
	"math/rand"
	"time"
)

// Backoff produces a capped exponential retry schedule with jitter from
// an explicitly seeded RNG, so a given seed always yields the same
// schedule (no global RNG, no hidden entropy). Not
// safe for concurrent use; each retry loop owns one.
type Backoff struct {
	// Base is the first delay envelope; Max caps the envelope.
	Base, Max time.Duration

	rng *rand.Rand
	cur time.Duration
}

// NewBackoff returns a schedule that starts at base, doubles up to max,
// and jitters every delay uniformly within [envelope/2, envelope].
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = time.Millisecond
	}
	if max < base {
		max = base
	}
	return &Backoff{
		Base: base,
		Max:  max,
		rng:  rand.New(rand.NewSource(seed)),
		cur:  base,
	}
}

// Next returns the next delay and advances the schedule.
func (b *Backoff) Next() time.Duration {
	env := b.cur
	if b.cur < b.Max/2 {
		b.cur *= 2
	} else {
		b.cur = b.Max
	}
	half := env / 2
	return half + time.Duration(b.rng.Int63n(int64(env-half)+1))
}

// Reset returns the schedule to its base envelope after a success.
func (b *Backoff) Reset() { b.cur = b.Base }
