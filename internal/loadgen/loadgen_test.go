package loadgen

import (
	"math"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/simnet"
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
		Diurnal: DiurnalSpec{Period: 100 * time.Millisecond, Trough: 0.2},
		Churn:   ChurnSpec{JoinRate: 200, LeaveRate: 150, FlapRate: 50},
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

// TestSourceMemoryFlat is the O(active flows) acceptance test: after
// warmup, pulling events from a 2^24-host source allocates nothing per
// event — the host population never materializes.
func TestSourceMemoryFlat(t *testing.T) {
	s := mustSource(t, Config{
		Hosts: 1 << 24, Links: 4096, MeanRate: 1e5, Seed: 9,
		Churn:     ChurnSpec{JoinRate: 100, LeaveRate: 100, FlapRate: 20},
		MaxActive: 4096,
	})
	for i := 0; i < 20000; i++ {
		s.Next() // warm the heap to steady state
	}
	avg := testing.AllocsPerRun(5000, func() { s.Next() })
	if avg > 0.01 {
		t.Fatalf("steady-state Next allocates %.3f objects/event; want 0", avg)
	}
	if s.Active() > 4096 {
		t.Fatalf("active flows %d exceed MaxActive", s.Active())
	}
}

// TestSourceMemoryIndependentOfHosts pins that host population does not
// change the tracked state: two sources identical except for a 4096×
// host-count gap hold the same active-set size.
func TestSourceMemoryIndependentOfHosts(t *testing.T) {
	small := mustSource(t, Config{Hosts: 1 << 12, MeanRate: 5e4, Seed: 5})
	big := mustSource(t, Config{Hosts: 1 << 24, MeanRate: 5e4, Seed: 5})
	for i := 0; i < 30000; i++ {
		small.Next()
		big.Next()
	}
	// Same seed, same arrival/size streams: identical tracked-flow counts.
	if small.Active() != big.Active() {
		t.Fatalf("active = %d (2^12 hosts) vs %d (2^24 hosts); population leaked into state",
			small.Active(), big.Active())
	}
}

// TestSourceMaxActiveBound pins the overflow contract: arrivals past the
// bound still stream (the trigger path must saturate) but are counted
// untracked and never emit FlowEnd.
func TestSourceMaxActiveBound(t *testing.T) {
	s := mustSource(t, Config{Hosts: 1 << 16, MeanRate: 1e6, Seed: 11, MaxActive: 32})
	var arrivals, ends uint64
	for i := 0; i < 100000; i++ {
		switch s.Next().Kind {
		case FlowArrival:
			arrivals++
		case FlowEnd:
			ends++
		}
	}
	if s.Active() > 32 {
		t.Fatalf("active %d exceeds MaxActive 32", s.Active())
	}
	if s.Untracked() == 0 {
		t.Fatal("1e6 flows/s against MaxActive=32 never overflowed")
	}
	if arrivals != ends+uint64(s.Active())+s.Untracked() {
		t.Fatalf("flow accounting: %d arrivals != %d ends + %d active + %d untracked",
			arrivals, ends, s.Active(), s.Untracked())
	}
}

// TestSourceDiurnalRate pins the diurnal modulation: with a 0.1 trough,
// arrivals in the peak quarter-cycle outnumber the trough quarter by a
// wide margin.
func TestSourceDiurnalRate(t *testing.T) {
	period := 400 * time.Millisecond
	s := mustSource(t, Config{
		Hosts: 1 << 16, MeanRate: 2e4, Seed: 13,
		Diurnal: DiurnalSpec{Period: period, Trough: 0.1},
	})
	peak, trough := 0, 0
	for {
		ev := s.Next()
		if ev.At > period {
			break
		}
		if ev.Kind != FlowArrival {
			continue
		}
		phase := ev.At % period
		switch {
		case phase < period/8 || phase >= period-period/8:
			peak++
		case phase >= 3*period/8 && phase < 5*period/8:
			trough++
		}
	}
	if peak < 3*trough {
		t.Fatalf("diurnal modulation too weak: peak quarter %d vs trough quarter %d arrivals", peak, trough)
	}
}

// TestSourceHeavyTailSizes sanity-checks the lognormal size model: the
// mean far exceeds the median (elephants), and no flow dips below the
// 64-byte frame floor.
func TestSourceHeavyTailSizes(t *testing.T) {
	s := mustSource(t, Config{Hosts: 1 << 16, MeanRate: 1e4, Seed: 17})
	var sizes []float64
	for len(sizes) < 20000 {
		ev := s.Next()
		if ev.Kind != FlowArrival {
			continue
		}
		if ev.Bytes < 64 {
			t.Fatalf("flow below minimum frame: %d bytes", ev.Bytes)
		}
		sizes = append(sizes, float64(ev.Bytes))
	}
	var sum float64
	for _, v := range sizes {
		sum += v
	}
	mean := sum / float64(len(sizes))
	// Median of the defaults is exp(9.2) ≈ 9.9 kB; σ=1.5 puts the mean
	// at exp(9.2 + 1.125) ≈ 3.1× the median. Require a 2× gap.
	if med := (Lognormal{Mu: 9.2, Sigma: 1.5}).Median(); mean < 2*med {
		t.Fatalf("size distribution not heavy-tailed: mean %.0f vs median %.0f", mean, med)
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

// TestSourceMetrics pins the jury_loadgen_* families: per-kind counters
// sum to Generated, the active gauge matches Active, and untracked
// overflow is counted.
func TestSourceMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustSource(t, Config{
		Hosts: 1 << 16, Links: 16, MeanRate: 1e5, Seed: 23, MaxActive: 64,
		Churn:   ChurnSpec{JoinRate: 1e3, LeaveRate: 1e3, FlapRate: 1e3},
		Metrics: reg,
	})
	for i := 0; i < 50000; i++ {
		s.Next()
	}
	var total int64
	for k := range kindNames {
		total += s.events[k].Value()
	}
	if uint64(total) != s.Generated() {
		t.Fatalf("kind counters sum to %d, generated %d", total, s.Generated())
	}
	if got := int(s.activeG.Value()); got != s.Active() {
		t.Fatalf("active gauge %d != Active() %d", got, s.Active())
	}
	if uint64(s.untrackedC.Value()) != s.Untracked() {
		t.Fatalf("untracked counter %d != Untracked() %d", s.untrackedC.Value(), s.Untracked())
	}
}

// TestDriveLazyScheduling pins the lazy-synthesis contract: driving a
// high-rate source through an engine keeps at most one generator event
// pending — the queue never buffers the stream.
func TestDriveLazyScheduling(t *testing.T) {
	eng := simnet.NewEngine(1)
	s := mustSource(t, Config{Hosts: 1 << 20, MeanRate: 1e6, Seed: 29})
	var delivered int
	var maxPending int
	s.Drive(eng, 50*time.Millisecond, func(ev Event) {
		delivered++
		if p := eng.Pending(); p > maxPending {
			maxPending = p
		}
	})
	if err := eng.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered < 10000 {
		t.Fatalf("only %d events delivered at 1e6/s over 50ms", delivered)
	}
	if maxPending > 1 {
		t.Fatalf("engine buffered %d generator events; lazy contract is ≤ 1", maxPending)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events left pending past the horizon", eng.Pending())
	}
	// Event times seen by the engine match the virtual clock exactly.
	eng2 := simnet.NewEngine(1)
	s2 := mustSource(t, Config{Hosts: 1 << 20, MeanRate: 1e6, Seed: 29})
	ok := true
	s2.Drive(eng2, time.Millisecond, func(ev Event) { ok = ok && ev.At == eng2.Now() })
	if err := eng2.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("delivered event timestamps diverge from the engine clock")
	}
}

func TestNewSourceValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero hosts":    {MeanRate: 100},
		"one host":      {Hosts: 1, MeanRate: 100},
		"zero rate":     {Hosts: 10},
		"negative rate": {Hosts: 10, MeanRate: -5},
		"alpha at one":  {Hosts: 10, MeanRate: 100, ArrivalAlpha: 1},
	} {
		if _, err := NewSource(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

func TestDiurnalFactor(t *testing.T) {
	d := DiurnalSpec{Period: time.Hour, Trough: 0.25}
	if f := d.Factor(0); math.Abs(f-1) > 1e-9 {
		t.Fatalf("peak factor = %v, want 1", f)
	}
	if f := d.Factor(30 * time.Minute); math.Abs(f-0.25) > 1e-9 {
		t.Fatalf("trough factor = %v, want 0.25", f)
	}
	if f := (DiurnalSpec{}).Factor(17 * time.Minute); f != 1 {
		t.Fatalf("disabled diurnal factor = %v, want 1", f)
	}
	// Out-of-range troughs clamp.
	if f := (DiurnalSpec{Period: time.Hour, Trough: -3}).Factor(30 * time.Minute); f != 0 {
		t.Fatalf("negative trough clamps to 0, got %v", f)
	}
	if f := (DiurnalSpec{Period: time.Hour, Trough: 9}).Factor(30 * time.Minute); math.Abs(f-1) > 1e-9 {
		t.Fatalf("trough > 1 clamps to 1, got %v", f)
	}
}

func TestParetoSampler(t *testing.T) {
	p := UnitPareto(1.5)
	if got := p.Mean(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("UnitPareto mean = %v, want 1", got)
	}
	if m := (Pareto{Alpha: 0.9, Min: 1}).Mean(); !math.IsInf(m, 1) {
		t.Fatalf("α ≤ 1 mean = %v, want +Inf", m)
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
