package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %v, want -1", got)
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	const workers = 8
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
			g.Add(1)
		}()
	}
	wg.Wait()
	if got := g.Value(); got != workers {
		t.Fatalf("gauge = %v, want %d (concurrent Add lost updates)", got, workers)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("jury_test_total", "help")
	b := r.Counter("jury_test_total", "help")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	l1 := r.Counter("jury_labeled_total", "help", L("dpid", "of:0001"))
	l2 := r.Counter("jury_labeled_total", "help", L("dpid", "of:0002"))
	if l1 == l2 {
		t.Fatal("distinct label sets share a counter")
	}
	// Label order must not matter.
	x := r.Counter("jury_two_labels_total", "h", L("a", "1"), L("b", "2"))
	y := r.Counter("jury_two_labels_total", "h", L("b", "2"), L("a", "1"))
	if x != y {
		t.Fatal("label order changed child identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("jury_kind_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("jury_kind_total", "help")
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("jury_validator_decided_total", "Triggers decided.").Add(7)
	r.Counter("jury_replicator_replicated_bytes_total", "Bytes replicated.",
		L("dpid", "of:0002")).Add(128)
	r.Counter("jury_replicator_replicated_bytes_total", "Bytes replicated.",
		L("dpid", "of:0001")).Add(64)
	r.Gauge("jury_cluster_members_alive", "Members alive.").Set(3)
	r.GaugeFunc("jury_validator_pending", "Triggers awaiting decision.",
		func() float64 { return 2 })
	h := r.Histogram("jury_validator_detection_seconds", "Detection time.")
	for _, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond,
		30 * time.Millisecond, 40 * time.Millisecond} {
		h.Observe(d)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP jury_cluster_members_alive Members alive.
# TYPE jury_cluster_members_alive gauge
jury_cluster_members_alive 3
# HELP jury_replicator_replicated_bytes_total Bytes replicated.
# TYPE jury_replicator_replicated_bytes_total counter
jury_replicator_replicated_bytes_total{dpid="of:0001"} 64
jury_replicator_replicated_bytes_total{dpid="of:0002"} 128
# HELP jury_validator_decided_total Triggers decided.
# TYPE jury_validator_decided_total counter
jury_validator_decided_total 7
# HELP jury_validator_detection_seconds Detection time.
# TYPE jury_validator_detection_seconds summary
jury_validator_detection_seconds{quantile="0.5"} 0.025
jury_validator_detection_seconds{quantile="0.9"} 0.037
jury_validator_detection_seconds{quantile="0.95"} 0.038499999
jury_validator_detection_seconds{quantile="0.99"} 0.039699999
jury_validator_detection_seconds_sum 0.1
jury_validator_detection_seconds_count 4
# HELP jury_validator_pending Triggers awaiting decision.
# TYPE jury_validator_pending gauge
jury_validator_pending 2
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, dpid := range []string{"of:0003", "of:0001", "of:0002"} {
		r.Counter("jury_triggers_total", "Triggers.", L("dpid", dpid)).Inc()
	}
	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two scrapes of the same state rendered differently")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("jury_escape_total", "", L("v", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `jury_escape_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped label missing:\n%s", b.String())
	}
}

// TestHistogramSharedAcrossRegistrants asserts a histogram owns its
// samples and that every registrant of one name gets the same instance —
// the plane's workers observe into one summary this way.
func TestHistogramSharedAcrossRegistrants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("jury_shared_seconds", "")
	if r.Histogram("jury_shared_seconds", "") != h {
		t.Fatal("second registration returned a different histogram")
	}
	h.Observe(time.Second)
	h.Observe(3 * time.Second)
	snap := h.Snapshot()
	if snap.Count() != 2 || snap.Sum() != 4*time.Second {
		t.Fatalf("snapshot = %d samples / %v sum", snap.Count(), snap.Sum())
	}
	if h.Count() != 2 || h.Percentile(100) != 3*time.Second {
		t.Fatalf("histogram = %d samples / max %v", h.Count(), h.Percentile(100))
	}
}

// TestGaugeHighWatermark asserts the gauge retains its maximum ever
// value across Set/Add movements in both directions.
func TestGaugeHighWatermark(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("jury_shard_queue_depth", `shard="0"`)
	if g.HighWatermark() != 0 {
		t.Fatalf("fresh hwm = %v, want 0", g.HighWatermark())
	}
	g.Set(3)
	g.Set(9)
	g.Set(2)
	if g.HighWatermark() != 9 {
		t.Fatalf("hwm after sets = %v, want 9", g.HighWatermark())
	}
	g.Add(10) // 2 + 10 = 12
	g.Add(-5)
	if g.Value() != 7 || g.HighWatermark() != 12 {
		t.Fatalf("value = %v hwm = %v, want 7/12", g.Value(), g.HighWatermark())
	}
}
