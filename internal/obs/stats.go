package obs

import (
	"encoding/json"
	"math"
	"slices"
	"sort"
	"time"
)

// Distribution accumulates duration samples and answers percentile
// queries. The zero value is ready to use. It is not safe for concurrent
// use; a Histogram wraps one behind a lock for live exposition.
//
// Percentile and Max sort lazily and cache the sorted state, so a batch of
// queries after a batch of Adds pays for one sort. Snapshot returns an
// immutable view sharing the sorted backing array (no copy per scrape);
// the next Add after a Snapshot clones the samples so the view stays
// frozen.
type Distribution struct {
	samples []time.Duration
	sum     time.Duration
	sorted  bool
	// shared marks the backing array as referenced by a Snapshot;
	// mutations must copy-on-write.
	shared bool
}

// Add records one sample.
func (d *Distribution) Add(v time.Duration) {
	if d.shared {
		d.samples = append([]time.Duration(nil), d.samples...)
		d.shared = false
	}
	d.samples = append(d.samples, v)
	d.sum += v
	d.sorted = false
}

// Count returns the number of samples.
func (d *Distribution) Count() int { return len(d.samples) }

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank interpolation; it returns 0 for an empty distribution.
func (d *Distribution) Percentile(p float64) time.Duration {
	d.sort()
	return percentileSorted(d.samples, p)
}

// Max returns the largest sample, or 0 if empty.
func (d *Distribution) Max() time.Duration { return d.Percentile(100) }

// Samples returns a copy of the recorded samples in sorted order.
func (d *Distribution) Samples() []time.Duration {
	d.sort()
	return slices.Clone(d.samples)
}

func (d *Distribution) sort() {
	if d.sorted {
		return
	}
	slices.Sort(d.samples) // non-reflective sort: no per-query closure churn
	d.sorted = true
}

// Snapshot returns an immutable sorted view of the current samples. The
// view shares the distribution's backing array — no copy per scrape —
// and stays frozen: the next Add clones the samples before appending.
func (d *Distribution) Snapshot() Snapshot {
	d.sort()
	d.shared = true
	return Snapshot{samples: d.samples[:len(d.samples):len(d.samples)], sum: d.sum}
}

// percentileSorted computes the interpolated percentile of an ascending
// sample slice.
func percentileSorted(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	if p <= 0 {
		return samples[0]
	}
	if p >= 100 {
		return samples[len(samples)-1]
	}
	rank := p / 100 * float64(len(samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return samples[lo]
	}
	frac := rank - float64(lo)
	return samples[lo] + time.Duration(frac*float64(samples[hi]-samples[lo]))
}

// Snapshot is an immutable sorted view of a Distribution, safe to query
// without further synchronization once taken. It is also the stored form
// of a finished run's samples (sweep results cache it as JSON).
type Snapshot struct {
	samples []time.Duration
	sum     time.Duration
}

// Count returns the number of samples in the view.
func (s Snapshot) Count() int { return len(s.samples) }

// Sum returns the sum of the samples in the view.
func (s Snapshot) Sum() time.Duration { return s.sum }

// Percentile returns the p-th percentile with the same nearest-rank
// interpolation as Distribution.Percentile.
func (s Snapshot) Percentile(p float64) time.Duration {
	return percentileSorted(s.samples, p)
}

// FractionBelow returns the fraction of samples strictly below limit.
func (s Snapshot) FractionBelow(limit time.Duration) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	idx := sort.Search(len(s.samples), func(i int) bool { return s.samples[i] >= limit })
	return float64(idx) / float64(len(s.samples))
}

// CDF returns (value, cumulative fraction) pairs at the given number of
// evenly spaced quantiles, suitable for plotting Figs. 4a-4d and 4i.
func (s Snapshot) CDF(points int) []CDFPoint {
	if len(s.samples) == 0 || points < 2 {
		return nil
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		frac := float64(i) / float64(points-1)
		idx := int(frac * float64(len(s.samples)-1))
		out = append(out, CDFPoint{Value: s.samples[idx], Fraction: frac})
	}
	return out
}

// MarshalJSON encodes the samples, sorted, as an array of nanosecond
// counts. Sorting makes the encoding canonical: two runs with the same
// sample multiset encode identically no matter the insertion order, which
// is what lets sweep results be compared byte-for-byte and cached on disk.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	samples := s.samples
	if samples == nil {
		samples = []time.Duration{} // an empty run encodes as [], not null
	}
	return json.Marshal(samples) // virtual ns by contract (canonical, cache-compared)
}

// UnmarshalJSON restores a snapshot serialized by MarshalJSON.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var samples []time.Duration
	if err := json.Unmarshal(data, &samples); err != nil {
		return err
	}
	slices.Sort(samples)
	s.samples, s.sum = samples, 0
	for _, v := range samples {
		s.sum += v
	}
	return nil
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    time.Duration `json:"value"`
	Fraction float64       `json:"fraction"`
}

// RateSeries is a time-binned event counter: each recorded event
// increments the bin its timestamp falls into. It backs the
// throughput-over-time plots (Fig. 4e) and rate measurements (Figs.
// 4f-4h). Single-goroutine, like the simulation that records into it.
type RateSeries struct {
	bin   time.Duration
	bins  []int64
	total int64
}

// NewRateSeries creates a series with the given bin width.
func NewRateSeries(bin time.Duration) *RateSeries {
	if bin <= 0 {
		bin = time.Second
	}
	return &RateSeries{bin: bin}
}

// Record counts one event at virtual time t.
func (s *RateSeries) Record(t time.Duration) {
	idx := int(t / s.bin)
	for len(s.bins) <= idx {
		s.bins = append(s.bins, 0)
	}
	s.bins[idx]++
	s.total++
}

// Total returns the number of recorded events.
func (s *RateSeries) Total() int64 { return s.total }

// Rates returns the per-bin rates (events/second).
func (s *RateSeries) Rates() []float64 {
	out := make([]float64, len(s.bins))
	for i, c := range s.bins {
		out[i] = float64(c) / s.bin.Seconds()
	}
	return out
}

// MeanRate returns the average rate over [from, to).
func (s *RateSeries) MeanRate(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	var count int64
	for i, c := range s.bins {
		start := time.Duration(i) * s.bin
		if start >= from && start < to {
			count += c
		}
	}
	return float64(count) / (to - from).Seconds()
}
