package loadgen

import (
	"math"
	"testing"
	"time"
)

func mustSource(t testing.TB, cfg Config) *Source {
	t.Helper()
	s, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSourceDeterministicStream pins the core contract: the same Config
// replays the identical event sequence, and different seeds diverge.
func TestSourceDeterministicStream(t *testing.T) {
	cfg := Config{
		Hosts: 1 << 20, Links: 512, MeanRate: 5000, Seed: 42,
		Churn: ChurnSpec{JoinRate: 200, LeaveRate: 150, FlapRate: 50},
	}
	a, b := mustSource(t, cfg), mustSource(t, cfg)
	for i := 0; i < 20000; i++ {
		if ea, eb := a.Next(), b.Next(); ea != eb {
			t.Fatalf("event %d diverged: %+v vs %+v", i, ea, eb)
		}
	}
	other := cfg
	other.Seed = 43
	c := mustSource(t, other)
	same := 0
	a2 := mustSource(t, cfg)
	for i := 0; i < 1000; i++ {
		if a2.Next() == c.Next() {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("different seeds produced the identical stream")
	}
}

// TestSourceStreamsIndependent pins per-stream seeding: disabling churn
// must not change the flow-arrival subsequence, because each stream owns
// a private RNG.
func TestSourceStreamsIndependent(t *testing.T) {
	base := Config{Hosts: 1 << 20, Links: 512, MeanRate: 5000, Seed: 7}
	churny := base
	churny.Churn = ChurnSpec{JoinRate: 500, LeaveRate: 500, FlapRate: 100}

	flows := func(s *Source, n int) []Event {
		var out []Event
		for len(out) < n {
			if ev := s.Next(); ev.Kind == FlowArrival {
				out = append(out, ev)
			}
		}
		return out
	}
	quiet := flows(mustSource(t, base), 500)
	noisy := flows(mustSource(t, churny), 500)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("flow %d perturbed by churn streams: %+v vs %+v", i, quiet[i], noisy[i])
		}
	}
}

// TestSourceTimeAdvances pins monotone non-decreasing timestamps with
// strictly increasing arrival times.
func TestSourceTimeAdvances(t *testing.T) {
	s := mustSource(t, Config{
		Hosts: 1024, Links: 64, MeanRate: 1e6, Seed: 3,
		Churn: ChurnSpec{JoinRate: 1000, LeaveRate: 1000, FlapRate: 1000},
	})
	var last time.Duration
	for i := 0; i < 50000; i++ {
		ev := s.Next()
		if ev.At < last {
			t.Fatalf("event %d went back in time: %v after %v", i, ev.At, last)
		}
		last = ev.At
	}
}

// TestSourceMemoryFlat pins the zero-allocation pull path: pulling
// events from a 2^24-host source allocates nothing per event — the host
// population never materializes.
func TestSourceMemoryFlat(t *testing.T) {
	s := mustSource(t, Config{
		Hosts: 1 << 24, Links: 4096, MeanRate: 1e5, Seed: 9,
		Churn: ChurnSpec{JoinRate: 100, LeaveRate: 100, FlapRate: 20},
	})
	for i := 0; i < 20000; i++ {
		s.Next()
	}
	avg := testing.AllocsPerRun(5000, func() { s.Next() })
	if avg > 0.01 {
		t.Fatalf("steady-state Next allocates %.3f objects/event; want 0", avg)
	}
}

// TestSourceMemoryIndependentOfHosts pins that the host population only
// bounds the endpoint indices: two sources identical except for a 4096×
// host-count gap emit the same timestamps and kinds, with every index in
// range.
func TestSourceMemoryIndependentOfHosts(t *testing.T) {
	churn := ChurnSpec{JoinRate: 1e3, LeaveRate: 1e3}
	small := mustSource(t, Config{Hosts: 1 << 12, MeanRate: 5e4, Seed: 5, Churn: churn})
	big := mustSource(t, Config{Hosts: 1 << 24, MeanRate: 5e4, Seed: 5, Churn: churn})
	for i := 0; i < 30000; i++ {
		a, b := small.Next(), big.Next()
		if a.At != b.At || a.Kind != b.Kind {
			t.Fatalf("event %d: %v@%v (2^12 hosts) vs %v@%v (2^24 hosts); population leaked into the stream",
				i, a.Kind, a.At, b.Kind, b.At)
		}
		if a.Src < 1 || a.Src > 1<<12 || a.Dst > 1<<12 {
			t.Fatalf("event %d: endpoint out of range: %+v", i, a)
		}
	}
}

// TestSourceChurnStreams pins churn on/off behavior and the flap-index
// bound.
func TestSourceChurnStreams(t *testing.T) {
	quiet := mustSource(t, Config{Hosts: 1 << 16, MeanRate: 1e4, Seed: 19})
	for i := 0; i < 10000; i++ {
		if k := quiet.Next().Kind; k == HostJoin || k == HostLeave || k == LinkFlap {
			t.Fatalf("churn disabled but got %v", k)
		}
	}
	// FlapRate set but zero links: flaps stay disabled.
	noLinks := mustSource(t, Config{Hosts: 1 << 16, MeanRate: 1e4, Seed: 19,
		Churn: ChurnSpec{FlapRate: 1e4}})
	for i := 0; i < 10000; i++ {
		if got := noLinks.Next().Kind; got == LinkFlap {
			t.Fatal("flaps emitted with zero links")
		}
	}
	noisy := mustSource(t, Config{Hosts: 1 << 16, Links: 7, MeanRate: 1e4, Seed: 19,
		Churn: ChurnSpec{JoinRate: 5e3, LeaveRate: 5e3, FlapRate: 5e3}})
	seen := map[EventKind]int{}
	for i := 0; i < 20000; i++ {
		ev := noisy.Next()
		seen[ev.Kind]++
		switch ev.Kind {
		case LinkFlap:
			if ev.Link < 0 || ev.Link >= 7 {
				t.Fatalf("flap link %d out of range", ev.Link)
			}
		case HostJoin, HostLeave:
			if ev.Src < 1 || ev.Src > 1<<16 {
				t.Fatalf("churn host %d out of range", ev.Src)
			}
		}
	}
	for _, k := range []EventKind{FlowArrival, HostJoin, HostLeave, LinkFlap} {
		if seen[k] == 0 {
			t.Fatalf("stream never emitted %v (saw %v)", k, seen)
		}
	}
}

func TestNewSourceValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero hosts":    {MeanRate: 100},
		"one host":      {Hosts: 1, MeanRate: 100},
		"zero rate":     {Hosts: 10},
		"negative rate": {Hosts: 10, MeanRate: -5},
	} {
		if _, err := NewSource(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

// TestParetoSampler pins the interarrival kernel's unit mean: over 10^6
// heavy-tailed gaps the arrivals keep MeanRate within 5 %, and no gap is
// shorter than the Pareto minimum (α−1)/α of a mean gap.
func TestParetoSampler(t *testing.T) {
	const rate, n = 1e4, 1_000_000
	s := mustSource(t, Config{Hosts: 1 << 16, MeanRate: rate, Seed: 31})
	minGap := time.Duration(math.Floor((arrivalAlpha - 1) / arrivalAlpha / rate * float64(time.Second)))
	var last time.Duration
	for i := 0; i < n; i++ {
		ev := s.Next()
		if gap := ev.At - last; gap < minGap {
			t.Fatalf("arrival %d: gap %v below the Pareto minimum %v", i, gap, minGap)
		}
		last = ev.At
	}
	if got := n / last.Seconds(); math.Abs(got-rate) > 0.05*rate {
		t.Fatalf("long-run arrival rate %.0f/s, want %.0f/s ± 5 %%", got, rate)
	}
}

// BenchmarkSourceNext is the generator hot path: events/s of synthesis
// with zero steady-state allocations.
func BenchmarkSourceNext(b *testing.B) {
	s := mustSource(b, Config{
		Hosts: 1 << 24, Links: 4096, MeanRate: 1e6, Seed: 7,
		Churn: ChurnSpec{JoinRate: 1e3, LeaveRate: 1e3, FlapRate: 500},
	})
	for i := 0; i < 10000; i++ {
		s.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}
