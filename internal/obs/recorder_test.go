package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestRecorderRingWrap asserts the ring retains exactly the newest
// capacity events, oldest-first, once writes exceed capacity.
func TestRecorderRingWrap(t *testing.T) {
	rec := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		rec.Record(Event{AtNS: int64(i), Kind: EvResponse})
	}
	if rec.Total() != 10 {
		t.Fatalf("total = %d, want 10", rec.Total())
	}
	events := rec.Snapshot()
	if len(events) != 4 {
		t.Fatalf("snapshot retains %d events, want 4", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(7 + i)
		if e.Seq != wantSeq || e.AtNS != int64(wantSeq) {
			t.Fatalf("event[%d] = seq %d at %d, want seq %d", i, e.Seq, e.AtNS, wantSeq)
		}
	}
}

// TestRecorderPartialRing asserts a snapshot before the first wrap returns
// only the recorded prefix.
func TestRecorderPartialRing(t *testing.T) {
	rec := NewRecorder(8)
	rec.Record(Event{AtNS: 1, Kind: EvSubmit})
	rec.Record(Event{AtNS: 2, Kind: EvVerdict})
	events := rec.Snapshot()
	if len(events) != 2 {
		t.Fatalf("snapshot retains %d events, want 2", len(events))
	}
	if events[0].Kind != EvSubmit || events[1].Kind != EvVerdict {
		t.Fatalf("snapshot order = %v, %v", events[0].Kind, events[1].Kind)
	}
}

// TestRecorderNilSafe asserts the disabled (nil) recorder is inert on
// every method.
func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	if rec.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	rec.Record(Event{Kind: EvSubmit})
	rec.SetShard(3)
	rec.SetOrigin("x")
	if rec.Total() != 0 || rec.Cap() != 0 || rec.Snapshot() != nil {
		t.Fatal("nil recorder retained state")
	}
}

// TestRecorderConcurrentAppend hammers one recorder from many goroutines
// while snapshots run — the race detector is the assertion; the counts
// are the sanity check.
func TestRecorderConcurrentAppend(t *testing.T) {
	rec := NewRecorder(64)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec.Record(Event{AtNS: int64(i), Kind: EvResponse, Ctrl: int64(w)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = rec.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if rec.Total() != writers*perWriter {
		t.Fatalf("total = %d, want %d", rec.Total(), writers*perWriter)
	}
	if got := len(rec.Snapshot()); got != 64 {
		t.Fatalf("snapshot retains %d events, want 64", got)
	}
}

// TestLockDisciplineRecorder runs every Recorder method in its own
// goroutine, beside a witness that holds mu and rewrites the ring header
// (nothing else writes it after construction, so a Cap that dropped its
// lock would otherwise race with nobody). Under -race, any method that
// touches a guarded field without mu races with a writer.
func TestLockDisciplineRecorder(t *testing.T) {
	rec := NewRecorder(16)
	stop := make(chan struct{})
	witnessed := make(chan struct{})
	go func() {
		defer close(witnessed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec.mu.Lock()
			ring := rec.ring
			rec.ring = ring
			rec.mu.Unlock()
		}
	}()
	var wg sync.WaitGroup
	for _, f := range []func(i int){
		func(i int) { rec.Record(Event{AtNS: int64(i), Kind: EvResponse}) },
		func(i int) { rec.SetShard(i) },
		func(i int) { rec.SetOrigin("jury") },
		func(int) { _ = rec.Total() },
		func(int) { _ = rec.Cap() },
		func(int) { _ = rec.Snapshot() },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f(i)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-witnessed
	if rec.Total() != 500 || rec.Cap() != 16 {
		t.Fatalf("total = %d, cap = %d; want 500, 16", rec.Total(), rec.Cap())
	}
}

// TestMergeEventsDeterministic asserts the merged dump order is a pure
// function of the event set: virtual time, origin, shard, then append
// order — regardless of snapshot arrival order.
func TestMergeEventsDeterministic(t *testing.T) {
	shard0 := []Event{
		{Seq: 1, AtNS: 10, Shard: 0, Kind: EvSubmit},
		{Seq: 2, AtNS: 30, Shard: 0, Kind: EvVerdict},
	}
	shard1 := []Event{
		{Seq: 1, AtNS: 10, Shard: 1, Kind: EvSubmit},
		{Seq: 2, AtNS: 20, Shard: 1, Kind: EvVerdict},
	}
	ab := MergeEvents(shard0, shard1)
	ba := MergeEvents(shard1, shard0)
	if len(ab) != 4 || len(ba) != 4 {
		t.Fatalf("merged lengths = %d, %d, want 4", len(ab), len(ba))
	}
	for i := range ab {
		if ab[i] != ba[i] {
			t.Fatalf("merge order depends on snapshot order at index %d: %+v vs %+v", i, ab[i], ba[i])
		}
	}
	wantShards := []int{0, 1, 1, 0}
	for i, e := range ab {
		if e.Shard != wantShards[i] {
			t.Fatalf("merged[%d].Shard = %d, want %d", i, e.Shard, wantShards[i])
		}
	}
}

// TestWriteEventsJSONLRoundTrip asserts dump lines parse back to the
// events that produced them, including the named kind encoding.
func TestWriteEventsJSONLRoundTrip(t *testing.T) {
	rec := NewRecorder(8)
	rec.SetShard(2)
	rec.SetOrigin("juryd")
	rec.Record(Event{AtNS: 5, Kind: EvSubmit, Trigger: "τ", Arg: 100})
	rec.Record(Event{AtNS: 9, Kind: EvVerdict, Trigger: "τ", Verdict: "valid", Fault: "none"})
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"kind":"submit"`) || !strings.Contains(lines[1], `"kind":"verdict"`) {
		t.Fatalf("dump kinds not name-encoded:\n%s", buf.String())
	}
	if !strings.Contains(lines[0], `"origin":"juryd"`) || !strings.Contains(lines[0], `"shard":2`) {
		t.Fatalf("dump missing origin/shard stamps:\n%s", lines[0])
	}
	var e Event
	if err := e.Kind.UnmarshalJSON([]byte(`"verdict"`)); err != nil || e.Kind != EvVerdict {
		t.Fatalf("kind round-trip = %v, %v", e.Kind, err)
	}
	if err := e.Kind.UnmarshalJSON([]byte(`"nonsense"`)); err == nil {
		t.Fatal("unknown kind name silently accepted")
	}
}
