package loadgen

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/sweep"
)

// TestCampaignFatTree8Deterministic is the acceptance determinism test:
// the same campaign on FatTree(8) produces bit-identical PointResults —
// stream digests included — at sweep parallelism 1 and 8. Run under
// -race in CI.
func TestCampaignFatTree8Deterministic(t *testing.T) {
	run := func(parallel int) []PointOutcome {
		out, err := RunCampaign(context.Background(), CampaignConfig{
			K:           8,
			Rates:       []float64{2000, 8000},
			Shards:      []int{1, 4},
			Window:      40 * time.Millisecond,
			DropRate:    0.05,
			Churn:       ChurnSpec{JoinRate: 100, LeaveRate: 80, FlapRate: 40},
			Diurnal:     DiurnalSpec{Period: 20 * time.Millisecond, Trough: 0.3},
			RootSeed:    99,
			Parallelism: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(8)
	if len(seq) != 4 || len(par) != 4 {
		t.Fatalf("campaign returned %d/%d points, want 4", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Point != par[i].Point || seq[i].Seed != par[i].Seed {
			t.Fatalf("point %d identity diverged: %+v vs %+v", i, seq[i].Point, par[i].Point)
		}
		if !reflect.DeepEqual(seq[i].Result, par[i].Result) {
			t.Fatalf("point %d result diverged between parallelism 1 and 8:\n%+v\n%+v",
				i, seq[i].Result, par[i].Result)
		}
	}
	// A point's identity, and so its seed, carries the window in virtual
	// ns under its own key.
	if key, err := sweep.PointKey(seq[0].Point); err != nil || key != `{"rate":2000,"shards":1,"window_ns":40000000}` {
		t.Fatalf("point key = %s, %v", key, err)
	}
	// Same rate at different shard widths must see the identical event
	// stream: the plane width cannot reach back into generation.
	if seq[0].Result.Digest != seq[1].Result.Digest {
		t.Fatalf("shard width changed the event stream: %x vs %x",
			seq[0].Result.Digest, seq[1].Result.Digest)
	}
	for i, o := range seq {
		r := o.Result
		if r.Triggers == 0 || r.Decided == 0 {
			t.Fatalf("point %d decided nothing: %+v", i, r)
		}
		if r.Decided < r.Triggers*9/10 {
			t.Fatalf("point %d decided %d of %d triggers", i, r.Decided, r.Triggers)
		}
		if r.Faults == 0 {
			t.Fatalf("point %d: 5%% primary drop produced no omission alarms", i)
		}
		if r.FPRate <= 0 || r.FPRate > 0.2 {
			t.Fatalf("point %d FP rate %v outside (0, 0.2]", i, r.FPRate)
		}
		if r.P95 <= 0 {
			t.Fatalf("point %d p95 detection = %v", i, r.P95)
		}
	}
	// Wider planes divide the bottleneck: partition_x at 4 shards must
	// beat 1 shard for the same rate.
	if seq[1].Result.PartitionX <= seq[0].Result.PartitionX {
		t.Fatalf("partition_x did not improve with shards: %v (1) vs %v (4)",
			seq[0].Result.PartitionX, seq[1].Result.PartitionX)
	}
}

// TestCampaignOversubscribedHosts runs the virtual-population path: 2^24
// hosts on a 128-port FatTree(8), indices wrapping onto physical edge
// ports, without materializing anything.
func TestCampaignOversubscribedHosts(t *testing.T) {
	out, err := RunCampaign(context.Background(), CampaignConfig{
		K:        8,
		Hosts:    1 << 24,
		Rates:    []float64{5000},
		Shards:   []int{2},
		Window:   20 * time.Millisecond,
		RootSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := out[0].Result
	if r.Triggers == 0 || r.Decided != r.Triggers {
		t.Fatalf("oversubscribed point: %+v", r)
	}
	if r.Faults != 0 {
		t.Fatalf("clean campaign raised %d alarms", r.Faults)
	}
}

// TestCampaignSmoke1kSwitches is the ≥1k-switch acceptance smoke:
// FatTree(30) is 1125 switches / 3375 hosts; one brief point must
// stream, validate and decide.
func TestCampaignSmoke1kSwitches(t *testing.T) {
	out, err := RunCampaign(context.Background(), CampaignConfig{
		K:        30,
		Rates:    []float64{4000},
		Shards:   []int{4},
		Window:   10 * time.Millisecond,
		RootSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := out[0].Result
	if r.Triggers == 0 || r.Decided == 0 {
		t.Fatalf("1k-switch smoke decided nothing: %+v", r)
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := RunCampaign(context.Background(), CampaignConfig{K: 8}); err == nil {
		t.Fatal("empty rate/shard lists accepted")
	}
	if _, err := RunCampaign(context.Background(), CampaignConfig{
		K: 7, Rates: []float64{100}, Shards: []int{1},
	}); err == nil {
		t.Fatal("odd fat-tree arity accepted")
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

// TestCampaignSeriesTelemetry asserts the campaign time series samples
// the validator aggregates at Sync barriers: rows at every SeriesEvery
// boundary, monotone aggregate columns, and deterministic validator
// aggregates across sweep parallelism (per-shard queue hwm is a
// wall-clock diagnostic and is excluded from the determinism check).
func TestCampaignSeriesTelemetry(t *testing.T) {
	collect := func(parallel int) map[CampaignPoint]*obs.Series {
		var mu sync.Mutex
		got := map[CampaignPoint]*obs.Series{}
		_, err := RunCampaign(context.Background(), CampaignConfig{
			K:           8,
			Rates:       []float64{2000},
			Shards:      []int{2},
			Window:      40 * time.Millisecond,
			DropRate:    0.05,
			RootSeed:    99,
			Parallelism: parallel,
			SeriesEvery: 10 * time.Millisecond,
			OnSeries: func(pt CampaignPoint, seed int64, s *obs.Series) {
				mu.Lock()
				got[pt] = s
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	series := collect(1)
	if len(series) != 1 {
		t.Fatalf("OnSeries fired for %d points, want 1", len(series))
	}
	var s *obs.Series
	for _, v := range series {
		s = v
	}
	// 40ms window at 10ms cadence: samples at 10, 20, 30, 40.
	if s.Len() != 4 {
		t.Fatalf("series has %d rows, want 4", s.Len())
	}
	cols := s.Columns()
	idx := map[string]int{}
	for i, c := range cols {
		idx[c] = i
	}
	for _, want := range []string{"events", "triggers", "decided", "valid", "pending",
		"shard0_decided", "shard1_decided", "shard0_queue_hwm"} {
		if _, ok := idx[want]; !ok {
			t.Fatalf("series columns %v missing %q", cols, want)
		}
	}
	rows := s.Rows()
	for i, row := range rows {
		if want := int64(10*time.Millisecond) * int64(i+1); row.AtNS != want {
			t.Fatalf("row %d sampled at %d, want %d", i, row.AtNS, want)
		}
		if i > 0 && row.V[idx["decided"]] < rows[i-1].V[idx["decided"]] {
			t.Fatalf("decided column not monotone at row %d", i)
		}
	}
	last := rows[len(rows)-1]
	if last.V[idx["decided"]] == 0 || last.V[idx["events"]] == 0 {
		t.Fatalf("final sample is empty: %v", last.V)
	}
	if last.V[idx["shard0_decided"]]+last.V[idx["shard1_decided"]] != last.V[idx["decided"]] {
		t.Fatalf("per-shard decided does not sum to aggregate: %v", last.V)
	}

	// Validator-aggregate columns are deterministic across parallelism.
	par := collect(8)
	var p *obs.Series
	for _, v := range par {
		p = v
	}
	deterministic := []string{"events", "triggers", "decided", "valid", "faults",
		"timeouts", "pending", "shard0_decided", "shard1_decided"}
	if p.Len() != s.Len() {
		t.Fatalf("row counts diverge across parallelism: %d vs %d", p.Len(), s.Len())
	}
	for i := range rows {
		for _, c := range deterministic {
			if a, b := rows[i].V[idx[c]], p.Rows()[i].V[idx[c]]; a != b {
				t.Fatalf("column %q diverges across parallelism at row %d: %v vs %v", c, i, a, b)
			}
		}
	}
}

// TestCampaignFlightDump asserts the campaign's per-point flight hook
// fires when the drop-injected workload raises alarms.
func TestCampaignFlightDump(t *testing.T) {
	var (
		mu    sync.Mutex
		dumps int
		last  []obs.Event
	)
	_, err := RunCampaign(context.Background(), CampaignConfig{
		K:          8,
		Rates:      []float64{2000},
		Shards:     []int{2},
		Window:     40 * time.Millisecond,
		DropRate:   0.05,
		RootSeed:   99,
		FlightRing: 256,
		OnFlightDump: func(pt CampaignPoint, reason string, events []obs.Event) {
			mu.Lock()
			dumps++
			last = events
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if dumps == 0 {
		t.Fatal("5% drop raised alarms but no flight dump fired")
	}
	if len(last) == 0 {
		t.Fatal("flight dump carried no events")
	}
	shards := map[int]bool{}
	for _, e := range last {
		shards[e.Shard] = true
	}
	if len(shards) < 2 {
		t.Fatalf("merged dump covers %d shards, want 2", len(shards))
	}
}
