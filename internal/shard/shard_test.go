package shard

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

func members3() *cluster.Membership {
	return cluster.NewMembership(cluster.AnyControllerOneMaster,
		[]store.NodeID{1, 2, 3}, []topo.DPID{1, 2})
}

func cacheAt(ctrl, primary store.NodeID, trig, key, value string, digest uint64, at time.Duration) core.Response {
	return core.Response{
		Controller:  ctrl,
		Primary:     primary,
		Trigger:     trigger.ID(trig),
		Kind:        core.CacheUpdate,
		Cache:       store.LinksDB,
		Op:          store.OpCreate,
		Key:         key,
		Value:       value,
		StateDigest: digest,
		At:          at,
	}
}

func execAt(ctrl, primary store.NodeID, trig, key, value string, digest uint64, at time.Duration) core.Response {
	r := cacheAt(ctrl, primary, trig, key, value, digest, at)
	r.Kind = core.SecondaryExec
	r.Tainted = true
	return r
}

func doneAt(ctrl, primary store.NodeID, trig string, digest uint64, at time.Duration) core.Response {
	return core.Response{
		Controller:  ctrl,
		Primary:     primary,
		Trigger:     trigger.ID(trig),
		Kind:        core.ExecDone,
		Tainted:     true,
		StateDigest: digest,
		At:          at,
	}
}

func TestShardForTriggerStableAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		counts := make([]int, n)
		for i := 0; i < 1000; i++ {
			id := trigger.ID(fmt.Sprintf("τ%d", i))
			s := ShardForTrigger(id, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardForTrigger(%q, %d) = %d out of range", id, n, s)
			}
			if again := ShardForTrigger(id, n); again != s {
				t.Fatalf("assignment not stable: %d then %d", s, again)
			}
			counts[s]++
		}
		// FNV over distinct IDs must actually spread load: no shard may
		// end up empty at any width.
		for s, c := range counts {
			if c == 0 {
				t.Fatalf("n=%d: shard %d received no triggers", n, s)
			}
		}
	}
}

// mixedWorkload returns the test corpus in global submission order: 240
// triggers spaced 1ms apart mixing early-valid consensus, omission faults,
// same-state value conflicts and no-op agreement, each response stamped
// with its virtual submission time.
func mixedWorkload() []core.Response {
	var out []core.Response
	for i := 0; i < 240; i++ {
		trig := fmt.Sprintf("τ%03d", i)
		at := time.Duration(i) * time.Millisecond
		switch i % 4 {
		case 0: // full agreement, early valid decision
			out = append(out,
				cacheAt(1, 1, trig, "k", "up", 7, at),
				execAt(2, 1, trig, "k", "up", 7, at+time.Millisecond),
				execAt(3, 1, trig, "k", "up", 7, at+2*time.Millisecond))
		case 1: // secondaries act, primary silent: omission at timeout
			out = append(out,
				execAt(2, 1, trig, "k", "up", 9, at),
				execAt(3, 1, trig, "k", "up", 9, at+time.Millisecond))
		case 2: // same-state conflict quorum: value fault
			out = append(out,
				cacheAt(1, 1, trig, "k", "up", 7, at),
				execAt(2, 1, trig, "k", "down", 7, at+time.Millisecond),
				execAt(3, 1, trig, "k", "down", 7, at+2*time.Millisecond))
		default: // side-effect-free replicated executions: no-op consensus
			out = append(out,
				doneAt(2, 1, trig, 7, at),
				doneAt(3, 1, trig, 7, at+time.Millisecond))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// runPlane pushes the workload through a fresh plane of the given width in
// deterministic mode and returns every decision keyed by trigger.
func runPlane(t *testing.T, shards int, load []core.Response) (map[trigger.ID]core.Result, *Plane) {
	t.Helper()
	results := make(map[trigger.ID]core.Result)
	p, err := New(Config{
		Shards:            shards,
		Validator:         core.ValidatorConfig{K: 2, Timeout: 50 * time.Millisecond},
		Members:           members3(),
		TimeFromResponses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetOnResult(func(r core.Result) {
		if prev, dup := results[r.Trigger]; dup {
			t.Errorf("trigger %s decided twice: %+v then %+v", r.Trigger, prev, r)
		}
		results[r.Trigger] = r
	}, nil)
	for _, r := range load {
		p.Submit(r)
	}
	p.Close()
	return results, p
}

// TestPlaneWidthInvariance is the parallel-plane determinism contract: for
// a fixed input stream, every trigger's verdict, fault class, decision time
// and evidence — and the merged alarm list — must be identical at any
// shard count. Wall-clock worker interleaving must be invisible in output,
// and the per-shard decision counts must sum to the plane's total.
func TestPlaneWidthInvariance(t *testing.T) {
	load := mixedWorkload()
	ref, pref := runPlane(t, 1, load)
	if len(ref) != 240 {
		t.Fatalf("reference plane decided %d triggers, want 240", len(ref))
	}
	if pref.Stats().Faults == 0 {
		t.Fatal("workload raised no alarms — too benign to prove invariance")
	}
	checkShardDecidedSum(t, pref)
	for _, shards := range []int{2, 8} {
		got, p := runPlane(t, shards, load)
		checkShardDecidedSum(t, p)
		if !reflect.DeepEqual(ref, got) {
			for id, r := range ref {
				if !reflect.DeepEqual(r, got[id]) {
					t.Fatalf("shards=%d: trigger %s diverges:\n  1 shard: %+v\n  %d shards: %+v",
						shards, id, r, shards, got[id])
				}
			}
			t.Fatalf("shards=%d: decision set diverges (%d vs %d triggers)", shards, len(got), len(ref))
		}
		if st, want := p.Stats(), pref.Stats(); st != want {
			t.Fatalf("shards=%d: aggregate counters diverge: %+v, want %+v", shards, st, want)
		}
		if !reflect.DeepEqual(pref.Alarms(), p.Alarms()) {
			t.Fatalf("shards=%d: merged alarm list diverges", shards)
		}
	}
}

// checkShardDecidedSum asserts Σ ShardDecided(i) = Stats().Decided: every
// decision is counted by exactly one shard.
func checkShardDecidedSum(t *testing.T, p *Plane) {
	t.Helper()
	var sum int64
	for i := 0; i < p.Shards(); i++ {
		sum += p.ShardDecided(i)
	}
	if got := p.Stats().Decided; sum != got {
		t.Fatalf("shards=%d: Σ ShardDecided = %d, Stats().Decided = %d", p.Shards(), sum, got)
	}
}

// TestPlaneAccessorsSafeUnderLoad races the stats side against a live
// dispatch side: every accessor and the Prometheus scrape must be callable
// from arbitrary goroutines while workers decide. The suite runs under
// -race in CI, so any unsynchronized read fails here.
func TestPlaneAccessorsSafeUnderLoad(t *testing.T) {
	p, err := New(Config{
		Shards:            4,
		Validator:         core.ValidatorConfig{K: 2, Timeout: 5 * time.Millisecond},
		Members:           members3(),
		TimeFromResponses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = p.Stats()
				_ = p.Alarms()
				for s := 0; s < p.Shards(); s++ {
					_ = p.ShardDecided(s)
				}
				if err := p.Metrics().WritePrometheus(io.Discard); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 1500; i++ {
		trig := fmt.Sprintf("τ%d", i)
		at := time.Duration(i) * 100 * time.Microsecond
		p.Submit(execAt(2, 1, trig, "k", "up", 9, at))
		p.Submit(execAt(3, 1, trig, "k", "up", 9, at+50*time.Microsecond))
	}
	p.Close()
	close(stop)
	wg.Wait()
	if p.Stats().Faults == 0 {
		t.Fatal("omission workload raised no alarms")
	}
	if got := p.Stats().Decided; got != 1500 {
		t.Fatalf("Stats().Decided = %d, want 1500", got)
	}
	if got := p.Stats().Pending; got != 0 {
		t.Fatalf("Stats().Pending = %d after close, want 0", got)
	}
}

// TestPlaneOverflowBackpressure pins the full-queue contract: a Submit
// into a full shard queue stalls the dispatcher and increments the
// overflow counter, and the response still lands — backpressure, never
// loss.
func TestPlaneOverflowBackpressure(t *testing.T) {
	p, err := New(Config{
		Shards:            1,
		QueueDepth:        1,
		Validator:         core.ValidatorConfig{K: 2, Timeout: 10 * time.Millisecond},
		Members:           members3(),
		TimeFromResponses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := p.workers[0]
	gate := make(chan struct{})
	p.enqueue(w, item{kind: itemStall, gate: gate})
	for w.depth.Value() != 0 {
		time.Sleep(100 * time.Microsecond) // wallclock:boundary -- wait for the worker to block on the gate
	}
	p.Submit(execAt(2, 1, "τ", "k", "up", 9, 0)) // fills the depth-1 queue

	// Hand the dispatcher role to a helper goroutine for the blocking
	// submit (dispatch stays serialized: this goroutine is the only
	// dispatcher until done is closed).
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Submit(execAt(3, 1, "τ", "k", "up", 9, time.Millisecond))
	}()
	for w.overflow.Value() == 0 {
		time.Sleep(100 * time.Microsecond) // wallclock:boundary -- test-only spin on a live counter
	}
	close(gate)
	<-done
	// Exactly one stall so far: the second response. (Close's flush below
	// may stall again on the depth-1 queue, so read the counter first.)
	if got := w.overflow.Value(); got != 1 {
		t.Fatalf("overflow counter = %d, want 1", got)
	}
	p.Close()
	if got := p.Stats().Decided; got != 1 {
		t.Fatalf("Stats().Decided = %d, want 1 — the stalled response was lost", got)
	}
	if got := w.enqueued.Value(); got != 4 {
		// stall + 2 responses + the close-path flush
		t.Fatalf("enqueued counter = %d, want 4", got)
	}
}

// TestPlaneStopVsClose pins the two endings: Close drains, so an open
// trigger reaches its (omission) decision; Stop halts the workers where
// they stand, so it stays undecided — and the trace, read after either,
// holds only what was decided.
func TestPlaneStopVsClose(t *testing.T) {
	for _, tc := range []struct {
		name    string
		end     func(*Plane)
		decided int64
	}{
		{"Close", (*Plane).Close, 1},
		{"Stop", (*Plane).Stop, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(Config{
				Shards:            2,
				Validator:         core.ValidatorConfig{K: 2, Timeout: 50 * time.Millisecond},
				Tracing:           true,
				Members:           members3(),
				TimeFromResponses: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			p.Submit(execAt(2, 1, "τ", "k", "up", 9, 0))
			p.Submit(execAt(3, 1, "τ", "k", "up", 9, time.Millisecond))
			p.syncAt(time.Millisecond)
			if got := p.Stats().Pending; got != 1 {
				t.Fatalf("Stats().Pending = %d before the end, want 1", got)
			}
			tc.end(p)
			if got := p.Stats().Decided; got != tc.decided {
				t.Fatalf("Stats().Decided = %d after %s, want %d", got, tc.name, tc.decided)
			}
			if got := p.Stats().Faults; got != tc.decided {
				t.Fatalf("Stats().Faults = %d after %s, want %d", got, tc.name, tc.decided)
			}
			// One root span and one validate span per decided trigger.
			if got := int64(len(p.TraceSpans())); got != 2*tc.decided {
				t.Fatalf("TraceSpans() = %d spans after %s, want %d", got, tc.name, 2*tc.decided)
			}
			tc.end(p) // ending twice is harmless
		})
	}
}

// TestPlaneDispatchAfterStop pins that Stop ends the dispatch side: with
// the workers gone and one-item queues, every later dispatch call returns
// at once instead of blocking on a queue nobody drains, and none of them
// moves the counters.
func TestPlaneDispatchAfterStop(t *testing.T) {
	p, err := New(Config{
		Shards:            2,
		QueueDepth:        1,
		Validator:         core.ValidatorConfig{K: 2, Timeout: 50 * time.Millisecond},
		Tracing:           true,
		Members:           members3(),
		TimeFromResponses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Submit(execAt(2, 1, "τ", "k", "up", 9, 0))
	p.syncAt(time.Millisecond)
	p.Stop()
	before := p.Stats()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Twice: with one-item queues and no workers left, any call that
		// still queued something would block by its second round.
		for i := 0; i < 2; i++ {
			p.Submit(execAt(3, 1, "τ", "k", "up", 9, time.Millisecond))
			p.SubmitBatch([]core.Response{
				execAt(2, 1, "υ", "k", "up", 9, time.Millisecond),
				cacheAt(1, 1, "", "psi", "up", 9, time.Millisecond),
			}, time.Millisecond)
			p.Advance(time.Second)
			p.syncAt(time.Second)
			p.Drain()
			p.TraceSpans()
			p.Close()
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second): //jurylint:allow wallclock -- liveness watchdog for the dispatch side, not a measurement
		t.Fatal("a dispatch call blocked after Stop")
	}
	if got := p.Stats(); got != before {
		t.Fatalf("Stats() moved after Stop: %+v, want %+v", got, before)
	}
}

func TestPlaneConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: 2}); err == nil {
		t.Fatal("New accepted a plane with no membership")
	}
	p, err := New(Config{Members: members3()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.Shards(); got != 1 {
		t.Fatalf("defaulted Shards() = %d, want 1", got)
	}
}

// TestPlaneSyncBarrier asserts syncAt advances every live shard's engine to
// the same virtual instant without overshooting pending timers: a trigger
// whose deadline falls past the barrier must still be undecided after it.
func TestPlaneSyncBarrier(t *testing.T) {
	p, err := New(Config{
		Shards:            4,
		Validator:         core.ValidatorConfig{K: 2, Timeout: 50 * time.Millisecond},
		Members:           members3(),
		TimeFromResponses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One lone response per trigger: each arms a 50ms omission timer.
	for i := 0; i < 8; i++ {
		p.Submit(execAt(2, 1, fmt.Sprintf("τ%d", i), "k", "up", 9, time.Duration(i)*time.Millisecond))
	}
	p.syncAt(20 * time.Millisecond)
	if got := p.Stats().Decided; got != 0 {
		t.Fatalf("sync to 20ms decided %d triggers; barrier overshot the 50ms deadlines", got)
	}
	p.syncAt(100 * time.Millisecond)
	if got := p.Stats().Decided; got != 8 {
		t.Fatalf("sync past deadlines decided %d triggers, want 8", got)
	}
	if got := p.Stats().Timeouts; got != 8 {
		t.Fatalf("timeouts = %d, want 8", got)
	}
	p.Close()
}

// TestPlaneQueueHighWatermark asserts the per-shard depth gauges retain
// their maxima after the queues drain.
func TestPlaneQueueHighWatermark(t *testing.T) {
	load := mixedWorkload()
	_, p := runPlane(t, 2, load)
	var peak int
	for i := 0; i < p.Shards(); i++ {
		if hwm := p.QueueHighWatermark(i); hwm > peak {
			peak = hwm
		}
	}
	if peak == 0 {
		t.Fatal("no shard queue ever held an item under the mixed workload")
	}
}

// TestPlaneBatchPartition pins the hand-off unit: one SubmitBatch call
// costs one queue item per ADDRESSED shard — not one per response, and
// none for a shard the batch does not touch — and decides what the same
// responses submitted one by one decide.
func TestPlaneBatchPartition(t *testing.T) {
	const shards = 4
	load := mixedWorkload()
	ref, _ := runPlane(t, shards, load)

	results := make(map[trigger.ID]core.Result)
	p, err := New(Config{
		Shards:            shards,
		Validator:         core.ValidatorConfig{K: 2, Timeout: 50 * time.Millisecond},
		Members:           members3(),
		TimeFromResponses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetOnResult(func(r core.Result) { results[r.Trigger] = r }, nil)
	items := func() (total int64) {
		for _, w := range p.workers {
			total += w.enqueued.Value()
		}
		return total
	}
	// Tainted responses of one trigger address exactly one shard.
	p.SubmitBatch([]core.Response{
		execAt(2, 1, "solo", "k", "up", 9, 0),
		execAt(3, 1, "solo", "k", "up", 9, 0),
	}, 0)
	if got := items(); got != 1 {
		t.Fatalf("a one-shard batch cost %d queue items, want 1", got)
	}
	p.SubmitBatch(nil, 0)
	if got := items(); got != 1 {
		t.Fatalf("an empty batch cost %d queue items, want none", got-1)
	}
	// The whole mixed workload in one call: every shard is addressed (the
	// untainted responses are broadcast), each exactly once.
	p.SubmitBatch(load, 0)
	if got := items(); got != 1+shards {
		t.Fatalf("a %d-response batch cost %d queue items, want %d", len(load), got-1, shards)
	}
	p.Close()
	delete(results, "solo")
	if !reflect.DeepEqual(ref, results) {
		t.Fatalf("batched submission decided differently: %d vs %d triggers", len(results), len(ref))
	}
}

// TestPlaneQueueDepthCountsBeforeSend pins the gauge fix: the depth is
// bumped before the channel send, so however fast the worker decrements it
// never reads negative, and it returns to zero when the queue is drained.
func TestPlaneQueueDepthCountsBeforeSend(t *testing.T) {
	p, err := New(Config{
		Validator:         core.ValidatorConfig{K: 2, Timeout: 5 * time.Millisecond},
		Members:           members3(),
		TimeFromResponses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := p.workers[0]
	stop := make(chan struct{})
	negative := make(chan float64, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := w.depth.Value(); v < 0 {
				select {
				case negative <- v:
				default:
				}
				return
			}
		}
	}()
	for i := 0; i < 20000; i++ {
		p.Submit(doneAt(2, 1, fmt.Sprintf("τ%d", i), 7, time.Duration(i)*time.Microsecond))
	}
	p.Drain()
	close(stop)
	wg.Wait()
	select {
	case v := <-negative:
		t.Fatalf("queue depth gauge read %v", v)
	default:
	}
	if got := w.depth.Value(); got != 0 {
		t.Fatalf("queue depth = %v after drain, want 0", got)
	}
	if got := p.QueueHighWatermark(0); got < 1 {
		t.Fatalf("high watermark = %d, want at least 1", got)
	}
	p.Close()

	// With the worker parked, the high watermark is exact.
	p, err = New(Config{Validator: core.ValidatorConfig{K: 2}, Members: members3()})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	p.enqueue(p.workers[0], item{kind: itemStall, gate: gate})
	for p.workers[0].depth.Value() != 0 {
		time.Sleep(100 * time.Microsecond) // wallclock:boundary -- wait for the worker to block on the gate
	}
	for i := 0; i < 3; i++ {
		p.Advance(time.Duration(i))
	}
	if got := p.QueueHighWatermark(0); got != 3 {
		t.Fatalf("high watermark = %d with three items parked, want 3", got)
	}
	close(gate)
	p.Close()
}
