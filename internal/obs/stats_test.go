package obs

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestDistributionPercentiles(t *testing.T) {
	var d Distribution
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{0, time.Millisecond},
		{100, 100 * time.Millisecond},
		{50, 50*time.Millisecond + 500*time.Microsecond},
	}
	for _, tt := range tests {
		if got := d.Percentile(tt.p); got != tt.want {
			t.Errorf("P%.0f = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestDistributionEmpty(t *testing.T) {
	var d Distribution
	if d.Percentile(50) != 0 || d.Max() != 0 || d.Count() != 0 {
		t.Fatal("empty distribution should return zeros")
	}
	if d.Snapshot().CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestDistributionMax(t *testing.T) {
	var d Distribution
	d.Add(20 * time.Millisecond)
	d.Add(30 * time.Millisecond)
	d.Add(10 * time.Millisecond)
	if d.Max() != 30*time.Millisecond {
		t.Errorf("max = %v", d.Max())
	}
}

func TestSnapshotFractionBelow(t *testing.T) {
	var d Distribution
	for i := 0; i < 10; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	snap := d.Snapshot()
	if got := snap.FractionBelow(5 * time.Millisecond); got != 0.5 {
		t.Errorf("FractionBelow(5ms) = %v, want 0.5", got)
	}
	if got := snap.FractionBelow(100 * time.Millisecond); got != 1.0 {
		t.Errorf("FractionBelow(100ms) = %v, want 1", got)
	}
}

func TestSnapshotCDFMonotonic(t *testing.T) {
	var d Distribution
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		d.Add(time.Duration(rng.Intn(1e6)))
	}
	cdf := d.Snapshot().CDF(50)
	if len(cdf) != 50 {
		t.Fatalf("points = %d", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Fraction < cdf[i-1].Fraction {
			t.Fatalf("CDF not monotonic at %d", i)
		}
	}
	if cdf[0].Fraction != 0 || cdf[len(cdf)-1].Fraction != 1 {
		t.Fatal("CDF endpoints wrong")
	}
}

func TestDistributionPercentileMonotonicProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var d Distribution
		for _, v := range raw {
			d.Add(time.Duration(v % 1e9))
		}
		prev := time.Duration(-1)
		for p := 0.0; p <= 100; p += 7 {
			cur := d.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistributionSamplesSorted(t *testing.T) {
	var d Distribution
	d.Add(3)
	d.Add(1)
	d.Add(2)
	s := d.Samples()
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		t.Fatalf("samples not sorted: %v", s)
	}
	// Returned slice must be a copy.
	s[0] = 999
	if d.Percentile(0) == 999 {
		t.Fatal("Samples leaked internal slice")
	}
}

func TestRateSeriesRates(t *testing.T) {
	s := NewRateSeries(time.Second)
	for i := 0; i < 10; i++ {
		s.Record(500 * time.Millisecond) // bin 0
	}
	for i := 0; i < 20; i++ {
		s.Record(1500 * time.Millisecond) // bin 1
	}
	s.Record(3500 * time.Millisecond) // bin 3; bin 2 stays empty
	if s.Total() != 31 {
		t.Fatalf("total = %d", s.Total())
	}
	got := s.Rates()
	want := []float64{10, 20, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("rates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rates = %v, want %v", got, want)
		}
	}
}

func TestRateSeriesMeanRate(t *testing.T) {
	s := NewRateSeries(time.Second)
	for i := 0; i < 100; i++ {
		s.Record(time.Duration(i) * 100 * time.Millisecond) // 10s span
	}
	got := s.MeanRate(0, 10*time.Second)
	if got != 10 {
		t.Fatalf("mean rate = %v, want 10", got)
	}
}

func TestSnapshotFrozenAcrossAdds(t *testing.T) {
	var d Distribution
	d.Add(30 * time.Millisecond)
	d.Add(10 * time.Millisecond)
	d.Add(20 * time.Millisecond)
	snap := d.Snapshot()
	if snap.Count() != 3 || snap.Sum() != 60*time.Millisecond {
		t.Fatalf("snapshot = %d samples / %v sum", snap.Count(), snap.Sum())
	}
	if snap.Percentile(0) != 10*time.Millisecond || snap.Percentile(100) != 30*time.Millisecond {
		t.Fatalf("snapshot min/max = %v/%v", snap.Percentile(0), snap.Percentile(100))
	}
	// Mutating the distribution must not disturb the view (copy-on-write).
	d.Add(5 * time.Millisecond)
	d.Add(40 * time.Millisecond)
	if snap.Count() != 3 || snap.Percentile(0) != 10*time.Millisecond || snap.Percentile(100) != 30*time.Millisecond {
		t.Fatalf("snapshot mutated by later Adds: %d samples, min %v, max %v",
			snap.Count(), snap.Percentile(0), snap.Percentile(100))
	}
	if d.Count() != 5 || d.Percentile(0) != 5*time.Millisecond || d.Max() != 40*time.Millisecond {
		t.Fatalf("distribution lost samples after snapshot: %d / %v / %v",
			d.Count(), d.Percentile(0), d.Max())
	}
	if got, want := snap.Percentile(50), 20*time.Millisecond; got != want {
		t.Fatalf("snapshot p50 = %v, want %v", got, want)
	}
}

func TestSnapshotEmpty(t *testing.T) {
	var d Distribution
	snap := d.Snapshot()
	if snap.Count() != 0 || snap.Sum() != 0 || snap.Percentile(99) != 0 || snap.FractionBelow(time.Second) != 0 {
		t.Fatal("empty snapshot returned nonzero statistics")
	}
}

func TestSnapshotMatchesDistributionQueries(t *testing.T) {
	var d Distribution
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	snap := d.Snapshot()
	for _, p := range []float64{0, 25, 50, 90, 95, 99, 100} {
		if got, want := snap.Percentile(p), d.Percentile(p); got != want {
			t.Fatalf("p%v: snapshot %v != distribution %v", p, got, want)
		}
	}
}

// TestSnapshotJSONRoundTrip pins the cached form: sorted nanoseconds, an
// empty run as [] (not null), and a decode that answers the same queries.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	var empty Distribution
	if b, err := json.Marshal(empty.Snapshot()); err != nil || string(b) != "[]" {
		t.Fatalf("empty snapshot encodes as %s (%v), want []", b, err)
	}
	var d Distribution
	d.Add(3)
	d.Add(1)
	d.Add(2)
	b, err := json.Marshal(d.Snapshot())
	if err != nil || string(b) != "[1,2,3]" {
		t.Fatalf("snapshot encodes as %s (%v), want [1,2,3]", b, err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != 3 || back.Sum() != 6 || back.Percentile(50) != 2 {
		t.Fatalf("decoded snapshot = %d samples / %v sum / p50 %v", back.Count(), back.Sum(), back.Percentile(50))
	}
}

func TestSortCachedAcrossQueryBatch(t *testing.T) {
	var d Distribution
	for i := 0; i < 1000; i++ {
		d.Add(time.Duration(1000-i) * time.Microsecond)
	}
	// A batch of queries after a batch of Adds must not re-sort per call:
	// with the cache each query after the first is O(1).
	allocs := testing.AllocsPerRun(100, func() {
		_ = d.Percentile(50)
		_ = d.Max()
		_ = d.Percentile(0)
	})
	if allocs != 0 {
		t.Fatalf("query batch allocated %v/op after sort cache, want 0", allocs)
	}
}
