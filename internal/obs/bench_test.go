package obs

import (
	"fmt"
	"io"
	"testing"
	"time"
)

// BenchmarkTracerDisabledCalls is the zero-cost claim for the nil tracer:
// every instrumentation call must collapse to a nil check.
func BenchmarkTracerDisabledCalls(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.StartTrigger("τ", "packet-in")
		tr.StartSpan("τ", "exec", "C1")
		tr.EndSpan("τ", "exec", "C1", "")
		tr.EndTrigger("τ", "valid", "none")
	}
}

// BenchmarkTracerSpanPair measures one open/close child-span cycle on an
// enabled tracer.
func BenchmarkTracerSpanPair(b *testing.B) {
	clock := &fakeClock{}
	tr := NewTracer(clock.Now)
	tr.MaxSpans = 1024 // bound memory; drops are cheaper than growth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.StartSpan("τ", "exec", "C1")
		clock.advance(time.Microsecond)
		tr.EndSpan("τ", "exec", "C1", "")
	}
}

// BenchmarkTracerTriggerLifecycle measures a full root open→verdict cycle.
func BenchmarkTracerTriggerLifecycle(b *testing.B) {
	clock := &fakeClock{}
	tr := NewTracer(clock.Now)
	tr.MaxSpans = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.StartTrigger("τ", "packet-in")
		clock.advance(time.Microsecond)
		tr.EndTrigger("τ", "valid", "none")
	}
}

// BenchmarkCounterInc measures the registry counter hot path shared by
// the validator and replicator.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("jury_bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkWritePrometheus measures one /metrics scrape over a registry
// sized like a mid-size deployment (24 labeled replicator children plus
// the validator family).
func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 1; i <= 24; i++ {
		r.Counter("jury_replicator_replicated_bytes_total", "Bytes replicated.",
			L("dpid", fmt.Sprintf("of:%04x", i))).Add(int64(i) * 1000)
	}
	r.Counter("jury_validator_decided_total", "Triggers decided.").Add(12345)
	h := r.Histogram("jury_validator_detection_seconds", "Detection time.")
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteJSONL measures trace export throughput over 1k spans.
func BenchmarkWriteJSONL(b *testing.B) {
	clock := &fakeClock{}
	tr := NewTracer(clock.Now)
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("τ%d", i)
		tr.StartTrigger(id, "packet-in")
		clock.advance(time.Microsecond)
		tr.EndTrigger(id, "valid", "none")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecorderDisabled is the zero-cost claim for the nil recorder:
// Record must collapse to a nil check.
func BenchmarkRecorderDisabled(b *testing.B) {
	var rec *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Record(Event{AtNS: int64(i), Kind: EvResponse})
	}
}

// BenchmarkRecorderRecord measures the always-on flight-recorder append:
// one mutex round trip and an in-place ring assignment, zero allocations.
func BenchmarkRecorderRecord(b *testing.B) {
	rec := NewRecorder(DefaultFlightRing)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(Event{AtNS: int64(i), Kind: EvResponse, Trigger: "τ"})
	}
	if rec.Total() != uint64(b.N) {
		b.Fatalf("recorded %d of %d events", rec.Total(), b.N)
	}
}

// BenchmarkRecorderSnapshot measures one dump-path copy of a full
// default-size ring.
func BenchmarkRecorderSnapshot(b *testing.B) {
	rec := NewRecorder(DefaultFlightRing)
	for i := 0; i < DefaultFlightRing*2; i++ {
		rec.Record(Event{AtNS: int64(i), Kind: EvResponse})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(rec.Snapshot()); got != DefaultFlightRing {
			b.Fatalf("snapshot = %d events", got)
		}
	}
}
