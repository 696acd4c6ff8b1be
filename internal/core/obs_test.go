package core

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// TestSubmitDisabledTracerZeroAlloc is the tentpole's hot-path guarantee:
// with tracing disabled (nil tracer), the steady-state Submit path — a
// response landing on an already-decided trigger, the most frequent case
// at high rates — performs zero allocations, so instrumentation costs
// nothing when off.
func TestSubmitDisabledTracerZeroAlloc(t *testing.T) {
	_, v := newValidator(t, 2)
	if v.Config().Tracer != nil {
		t.Fatal("validator unexpectedly has a tracer")
	}
	// Decide a trigger early via full agreement.
	v.Submit(cacheResp(1, 1, "τ", "k", "up", 7))
	v.Submit(execResp(2, 1, "τ", "k", "up", 7))
	v.Submit(execResp(3, 1, "τ", "k", "up", 7))
	if v.Decided() != 1 {
		t.Fatalf("decided = %d, want 1", v.Decided())
	}
	late := doneResp(2, 1, "τ", 7)
	allocs := testing.AllocsPerRun(1000, func() { v.Submit(late) })
	if allocs != 0 {
		t.Fatalf("disabled-tracer Submit allocated %v/op, want 0", allocs)
	}
	if v.lateResponses.Value() < 1000 {
		t.Fatalf("late responses = %d, loop did not hit the steady path", v.lateResponses.Value())
	}
}

// TestValidatorMetricsExposed asserts the migrated counters land in the
// registry under their Prometheus names and stay consistent with the
// accessor methods.
func TestValidatorMetricsExposed(t *testing.T) {
	eng := simnet.NewEngine(1)
	members := cluster.NewMembership(cluster.AnyControllerOneMaster,
		[]store.NodeID{1, 2, 3}, []topo.DPID{1, 2})
	reg := obs.NewRegistry()
	v := NewValidator(eng, members, ValidatorConfig{K: 2, Timeout: 100 * time.Millisecond, Metrics: reg})
	if v.Metrics() != reg {
		t.Fatal("validator did not adopt the injected registry")
	}
	v.Submit(cacheResp(1, 1, "τ", "k", "up", 7))
	v.Submit(execResp(2, 1, "τ", "k", "up", 7))
	v.Submit(execResp(3, 1, "τ", "k", "up", 7))
	if got := reg.Counter("jury_validator_decided_total", "").Value(); got != v.Decided() || got != 1 {
		t.Fatalf("registry decided = %d, accessor = %d, want 1", got, v.Decided())
	}
	if got := reg.Counter("jury_validator_valid_total", "").Value(); got != v.Valid() || got != 1 {
		t.Fatalf("registry valid = %d, accessor = %d, want 1", got, v.Valid())
	}
}

// TestValidatorTracedTrigger asserts the validate span and the root close
// with the verdict.
func TestValidatorTracedTrigger(t *testing.T) {
	eng := simnet.NewEngine(1)
	members := cluster.NewMembership(cluster.AnyControllerOneMaster,
		[]store.NodeID{1, 2, 3}, []topo.DPID{1, 2})
	tr := obs.NewTracer(eng.Now)
	v := NewValidator(eng, members, ValidatorConfig{K: 2, Timeout: 100 * time.Millisecond, Tracer: tr})
	v.Submit(cacheResp(1, 1, "τ9", "k", "up", 7))
	v.Submit(execResp(2, 1, "τ9", "k", "up", 7))
	v.Submit(execResp(3, 1, "τ9", "k", "up", 7))
	if tr.CompletedTriggers() != 1 {
		t.Fatalf("completed triggers = %d, want 1", tr.CompletedTriggers())
	}
	var sawRoot, sawValidate bool
	for _, s := range tr.Spans() {
		switch {
		case s.Name == "trigger" && s.Trigger == "τ9":
			sawRoot = true
			if s.Verdict != "valid" || s.Fault != "none" {
				t.Fatalf("root verdict/fault = %q/%q", s.Verdict, s.Fault)
			}
		case s.Name == "validate" && s.Node == "validator":
			sawValidate = true
		}
	}
	if !sawRoot || !sawValidate {
		t.Fatalf("trace missing spans: root=%v validate=%v", sawRoot, sawValidate)
	}
}

// benchSubmit drives one full trigger lifecycle (three responses → early
// decision) per iteration against a validator with the given tracer.
func benchSubmit(b *testing.B, tr *obs.Tracer) {
	eng := simnet.NewEngine(1)
	var ids []store.NodeID
	for i := 1; i <= 3; i++ {
		ids = append(ids, store.NodeID(i))
	}
	members := cluster.NewMembership(cluster.AnyControllerOneMaster, ids, []topo.DPID{1, 2})
	v := NewValidator(eng, members, ValidatorConfig{K: 2, Timeout: 100 * time.Millisecond, Tracer: tr})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("τ%d", i)
		v.Submit(cacheResp(1, 1, id, "k", "up", 7))
		v.Submit(execResp(2, 1, id, "k", "up", 7))
		v.Submit(execResp(3, 1, id, "k", "up", 7))
	}
	if int(v.Decided()) != b.N {
		b.Fatalf("decided %d of %d triggers", v.Decided(), b.N)
	}
}

// BenchmarkValidatorSubmitNoTracer is the obs-overhead baseline: the full
// validation path with tracing disabled.
func BenchmarkValidatorSubmitNoTracer(b *testing.B) {
	benchSubmit(b, nil)
}

// BenchmarkValidatorSubmitTraced measures the same path with an enabled
// tracer recording a root + validate span per trigger.
func BenchmarkValidatorSubmitTraced(b *testing.B) {
	eng := simnet.NewEngine(1)
	benchSubmit(b, obs.NewTracer(eng.Now))
}

// newRecordedValidator builds a validator with a live flight recorder.
func newRecordedValidator(t *testing.T, k, ring int) (*simnet.Engine, *Validator, *obs.Recorder) {
	t.Helper()
	eng := simnet.NewEngine(1)
	var ids []store.NodeID
	for i := 1; i <= k+1; i++ {
		ids = append(ids, store.NodeID(i))
	}
	members := cluster.NewMembership(cluster.AnyControllerOneMaster, ids, []topo.DPID{1, 2})
	rec := obs.NewRecorder(ring)
	v := NewValidator(eng, members, ValidatorConfig{K: k, Timeout: 100 * time.Millisecond, Recorder: rec})
	return eng, v, rec
}

// TestSubmitRecorderBoundedAlloc is the flight recorder's hot-path
// guarantee: with an always-on recorder, the steady-state Submit path (a
// late response on a decided trigger) still performs zero allocations —
// recording is an in-place ring assignment.
func TestSubmitRecorderBoundedAlloc(t *testing.T) {
	_, v, rec := newRecordedValidator(t, 2, 64)
	v.Submit(cacheResp(1, 1, "τ", "k", "up", 7))
	v.Submit(execResp(2, 1, "τ", "k", "up", 7))
	v.Submit(execResp(3, 1, "τ", "k", "up", 7))
	if v.Decided() != 1 {
		t.Fatalf("decided = %d, want 1", v.Decided())
	}
	late := doneResp(2, 1, "τ", 7)
	allocs := testing.AllocsPerRun(1000, func() { v.Submit(late) })
	if allocs != 0 {
		t.Fatalf("recorded Submit allocated %v/op, want 0", allocs)
	}
	if v.lateResponses.Value() < 1000 {
		t.Fatalf("late responses = %d, loop did not hit the steady path", v.lateResponses.Value())
	}
	if rec.Total() < 1000 {
		t.Fatalf("recorder total = %d, late responses were not recorded", rec.Total())
	}
}

// TestValidatorRecorderLifecycle asserts a full trigger lifecycle lands
// every event kind in the ring, in trigger-lifecycle order.
func TestValidatorRecorderLifecycle(t *testing.T) {
	_, v, rec := newRecordedValidator(t, 2, 64)
	v.Submit(cacheResp(1, 1, "τ1", "k", "up", 7))
	v.Submit(execResp(2, 1, "τ1", "k", "up", 7))
	v.Submit(execResp(3, 1, "τ1", "k", "up", 7))
	if v.Decided() != 1 {
		t.Fatalf("decided = %d, want 1", v.Decided())
	}
	events := rec.Snapshot()
	kinds := make(map[obs.EventKind]int)
	for _, e := range events {
		kinds[e.Kind]++
		if e.Trigger != "τ1" && e.Kind != obs.EvPsi {
			t.Fatalf("event %v carries trigger %q, want τ1", e.Kind, e.Trigger)
		}
	}
	if kinds[obs.EvSubmit] != 1 {
		t.Fatalf("submit events = %d, want 1", kinds[obs.EvSubmit])
	}
	if kinds[obs.EvResponse] < 2 {
		t.Fatalf("response events = %d, want >= 2", kinds[obs.EvResponse])
	}
	if kinds[obs.EvVerdict] != 1 {
		t.Fatalf("verdict events = %d, want 1", kinds[obs.EvVerdict])
	}
	var verdict *obs.Event
	for i := range events {
		if events[i].Kind == obs.EvVerdict {
			verdict = &events[i]
		}
	}
	if verdict.Verdict != "valid" || verdict.Fault != "none" {
		t.Fatalf("verdict event = %q/%q, want valid/none", verdict.Verdict, verdict.Fault)
	}
}

// TestValidatorRecorderTimeout asserts the deadline path records EvTimer
// before the forced verdict.
func TestValidatorRecorderTimeout(t *testing.T) {
	eng, v, rec := newRecordedValidator(t, 2, 64)
	v.Submit(cacheResp(1, 1, "τt", "k", "up", 7))
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if v.Timeouts() != 1 {
		t.Fatalf("timeouts = %d, want 1", v.Timeouts())
	}
	var sawTimer, sawVerdict bool
	for _, e := range rec.Snapshot() {
		switch e.Kind {
		case obs.EvTimer:
			sawTimer = true
			if sawVerdict {
				t.Fatal("timer recorded after verdict")
			}
		case obs.EvVerdict:
			sawVerdict = true
		}
	}
	if !sawTimer || !sawVerdict {
		t.Fatalf("timeout lifecycle missing events: timer=%v verdict=%v", sawTimer, sawVerdict)
	}
}

// BenchmarkValidatorSubmitRecorded measures the full validation path with
// an always-on flight recorder, against the NoTracer baseline.
func BenchmarkValidatorSubmitRecorded(b *testing.B) {
	eng := simnet.NewEngine(1)
	var ids []store.NodeID
	for i := 1; i <= 3; i++ {
		ids = append(ids, store.NodeID(i))
	}
	members := cluster.NewMembership(cluster.AnyControllerOneMaster, ids, []topo.DPID{1, 2})
	rec := obs.NewRecorder(obs.DefaultFlightRing)
	v := NewValidator(eng, members, ValidatorConfig{K: 2, Timeout: 100 * time.Millisecond, Recorder: rec})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("τ%d", i)
		v.Submit(cacheResp(1, 1, id, "k", "up", 7))
		v.Submit(execResp(2, 1, id, "k", "up", 7))
		v.Submit(execResp(3, 1, id, "k", "up", 7))
	}
	if int(v.Decided()) != b.N {
		b.Fatalf("decided %d of %d triggers", v.Decided(), b.N)
	}
}

// benignTrigger renders the responses of one benign trigger the way the
// end-to-end bench's workloads do: the primary's cache write (plus its
// FLOW_MOD on flow workloads) and k replicated executions reporting the
// same write. flow7 is n=7 on FlowsDB, light3 n=3 on HostDB.
func benignTrigger(n int, flow bool) []Response {
	base := Response{
		Primary: 1,
		Cache:   store.HostDB, Op: store.OpCreate, Key: "00:00:00:00:00:01",
		Value:       `{"mac":"00:00:00:00:00:01","ip":"10.0.0.1","dpid":1,"port":1}`,
		StateDigest: 9,
	}
	var rs []Response
	if flow {
		rule := ruleFor(1, "", 0)
		base.Cache, base.Key, base.Value = store.FlowsDB, rule.Key(), rule.Encode()
		rs = append(rs, netResp(1, 1, "", rule))
	}
	own := base
	own.Controller, own.Kind = 1, CacheUpdate
	rs = append([]Response{own}, rs...)
	for c := 2; c <= n; c++ {
		r := base
		r.Controller, r.Kind, r.Tainted = store.NodeID(c), SecondaryExec, true
		rs = append(rs, r)
	}
	return rs
}

// TestTriggerAllocBudget is the regression CI fails on: one benign n=7
// FlowsDB trigger through the whole core — 8 Submits, the early decision
// and the grace-window expiry, tracer and recorder off — stays within 60
// allocations (the map-based path that re-derived every comparison form
// per evaluate took 315).
func TestTriggerAllocBudget(t *testing.T) {
	eng, v := propValidator(6)
	rs := benignTrigger(7, true)
	ids := make([]trigger.ID, 300)
	for i := range ids {
		ids[i] = trigger.ID(fmt.Sprintf("τ%d", i))
	}
	seq := 0
	allocs := testing.AllocsPerRun(200, func() {
		for _, r := range rs {
			r.Trigger = ids[seq]
			v.Submit(r)
		}
		seq++
		if err := eng.Run(eng.Now() + 2*time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if int(v.Decided()) != seq || v.Faults() != 0 || v.Timeouts() != 0 || v.Pending() != 0 {
		t.Fatalf("decided %d of %d, %d faults, %d timeouts, %d pending", v.Decided(), seq, v.Faults(), v.Timeouts(), v.Pending())
	}
	if allocs > 60 {
		t.Fatalf("benign flow7 trigger allocated %.0f/op in the core, budget 60", allocs)
	}
	t.Logf("benign flow7 trigger: %.0f allocs in the core", allocs)
}

func benchTrigger(b *testing.B, n int, flow bool) {
	eng, v := propValidator(n - 1)
	rs := benignTrigger(n, flow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := trigger.ID("τ" + strconv.Itoa(i))
		for _, r := range rs {
			r.Trigger = id
			v.Submit(r)
		}
		if i%64 == 63 { // let grace windows close, as a live stream does
			_ = eng.Run(eng.Now() + 2*time.Second)
		}
	}
	if int(v.Decided()) != b.N || v.Faults() != 0 {
		b.Fatalf("decided %d of %d triggers, %d faults", v.Decided(), b.N, v.Faults())
	}
}

// BenchmarkValidatorTriggerFlow7 is one benign trigger of the bench's
// flow7 workloads (n=7, FlowsDB + FLOW_MOD, 8 responses) through the core.
func BenchmarkValidatorTriggerFlow7(b *testing.B) { benchTrigger(b, 7, true) }

// BenchmarkValidatorTriggerLight3 is one benign trigger of the bench's
// light3 workloads (n=3, HostDB, 3 responses).
func BenchmarkValidatorTriggerLight3(b *testing.B) { benchTrigger(b, 3, false) }
