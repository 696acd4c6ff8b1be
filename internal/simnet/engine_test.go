package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestEngineOrdersByTime(t *testing.T) {
	eng := NewEngine(1)
	var got []int
	eng.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	eng.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	eng.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	eng := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	eng := NewEngine(1)
	var at time.Duration
	eng.Schedule(42*time.Millisecond, func() { at = eng.Now() })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if at != 42*time.Millisecond {
		t.Fatalf("event time = %v, want 42ms", at)
	}
	if eng.Now() != time.Second {
		t.Fatalf("clock after run = %v, want horizon 1s", eng.Now())
	}
}

func TestEngineNegativeDelayFiresNow(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	eng.Schedule(10*time.Millisecond, func() {
		eng.Schedule(-5*time.Millisecond, func() { fired = true })
	})
	if err := eng.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	ev := eng.Schedule(10*time.Millisecond, func() { fired = true })
	ev.Cancel()
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestEngineHorizonStopsEarly(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	eng.Schedule(2*time.Second, func() { fired = true })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if eng.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", eng.Pending())
	}
	if err := eng.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event not fired after extending horizon")
	}
}

func TestEngineStop(t *testing.T) {
	eng := NewEngine(1)
	count := 0
	for i := 1; i <= 5; i++ {
		eng.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 2 {
				eng.Stop()
			}
		})
	}
	err := eng.Run(time.Second)
	if err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 2 {
		t.Fatalf("processed %d events, want 2", count)
	}
}

func TestEngineMaxEvents(t *testing.T) {
	eng := NewEngine(1)
	eng.MaxEvents = 10
	var tick func()
	tick = func() { eng.Schedule(time.Microsecond, tick) }
	tick()
	if err := eng.Run(time.Hour); err == nil {
		t.Fatal("expected MaxEvents error")
	}
}

func TestEngineRunUntilIdle(t *testing.T) {
	eng := NewEngine(1)
	count := 0
	eng.Schedule(time.Hour, func() { count++ })
	eng.Schedule(time.Minute, func() { count++ })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if eng.Now() != time.Hour {
		t.Fatalf("clock = %v, want 1h", eng.Now())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []time.Duration {
		eng := NewEngine(99)
		var times []time.Duration
		var tick func()
		n := 0
		tick = func() {
			times = append(times, eng.Now())
			n++
			if n < 50 {
				eng.Schedule(time.Duration(eng.Rand().Intn(1000))*time.Microsecond, tick)
			}
		}
		eng.Schedule(0, tick)
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLinkDeliversInOrder(t *testing.T) {
	eng := NewEngine(7)
	var got []int
	link := NewLink(eng, time.Millisecond, 0, func(msg any, _ int) {
		if v, ok := msg.(int); ok {
			got = append(got, v)
		}
	})
	link.Jitter = 500 * time.Microsecond
	for i := 0; i < 100; i++ {
		link.Send(i, 100)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("delivered %d, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestLinkBandwidthSerialization(t *testing.T) {
	eng := NewEngine(1)
	var arrivals []time.Duration
	link := NewLink(eng, 0, 1000 /* 1KB/s */, func(any, int) {
		arrivals = append(arrivals, eng.Now())
	})
	link.Send("a", 500) // 0.5s serialization
	link.Send("b", 500) // queued behind a
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if arrivals[0] != 500*time.Millisecond {
		t.Fatalf("first arrival = %v, want 500ms", arrivals[0])
	}
	if arrivals[1] != time.Second {
		t.Fatalf("second arrival = %v, want 1s", arrivals[1])
	}
}

func TestLinkDownDrops(t *testing.T) {
	eng := NewEngine(1)
	delivered := 0
	link := NewLink(eng, time.Millisecond, 0, func(any, int) { delivered++ })
	link.Send("a", 10)
	link.SetDown(true)
	link.Send("b", 10)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("delivered %d, want 0 (in-flight dropped on down link)", delivered)
	}
	link.SetDown(false)
	link.Send("c", 10)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d after restore, want 1", delivered)
	}
}

func TestLinkCounters(t *testing.T) {
	eng := NewEngine(1)
	link := NewLink(eng, 0, 0, func(any, int) {})
	link.Send("a", 100)
	link.Send("b", 50)
	if link.BytesSent() != 150 {
		t.Fatalf("bytes = %d, want 150", link.BytesSent())
	}
	if link.MessagesSent() != 2 {
		t.Fatalf("messages = %d, want 2", link.MessagesSent())
	}
}

func TestQueueBounds(t *testing.T) {
	q := NewQueue(2)
	if !q.Offer(1) || !q.Offer(2) {
		t.Fatal("offers under capacity rejected")
	}
	if q.Offer(3) {
		t.Fatal("offer over capacity accepted")
	}
	if q.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", q.Drops())
	}
	v, ok := q.Poll()
	if !ok || v != 1 {
		t.Fatalf("poll = %v,%v want 1,true", v, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1", q.Len())
	}
}

func TestQueueUnbounded(t *testing.T) {
	q := NewQueue(0)
	for i := 0; i < 10000; i++ {
		if !q.Offer(i) {
			t.Fatal("unbounded queue rejected offer")
		}
	}
	if q.Len() != 10000 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestServerParallelism(t *testing.T) {
	eng := NewEngine(1)
	srv := NewServer(eng, 2, 0)
	var done []time.Duration
	for i := 0; i < 4; i++ {
		srv.Submit(100*time.Millisecond, func() { done = append(done, eng.Now()) })
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 2 workers: jobs finish at 100,100,200,200ms.
	want := []time.Duration{100 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, 200 * time.Millisecond}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completion %d = %v, want %v (all: %v)", i, done[i], w, done)
		}
	}
	if srv.Completed() != 4 {
		t.Fatalf("completed = %d", srv.Completed())
	}
}

func TestServerQueueRejects(t *testing.T) {
	eng := NewEngine(1)
	srv := NewServer(eng, 1, 1)
	ok1 := srv.Submit(time.Millisecond, nil) // in service
	ok2 := srv.Submit(time.Millisecond, nil) // queued
	ok3 := srv.Submit(time.Millisecond, nil) // rejected
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("submits = %v,%v,%v want true,true,false", ok1, ok2, ok3)
	}
	if srv.Drops() != 1 {
		t.Fatalf("drops = %d", srv.Drops())
	}
}

func TestServerInflation(t *testing.T) {
	eng := NewEngine(1)
	srv := NewServer(eng, 1, 0)
	srv.InflateAt = 1
	srv.InflateSlope = 1.0 // +100% per excess queued job
	var last time.Duration
	for i := 0; i < 4; i++ {
		srv.Submit(10*time.Millisecond, func() { last = eng.Now() })
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Without inflation: 40ms. With backlog-dependent inflation it must
	// take strictly longer.
	if last <= 40*time.Millisecond {
		t.Fatalf("no inflation observed: finished at %v", last)
	}
}

func TestServerSaturated(t *testing.T) {
	eng := NewEngine(1)
	srv := NewServer(eng, 1, 10)
	srv.Submit(time.Second, nil)
	if srv.Saturated() {
		t.Fatal("saturated with empty queue")
	}
	srv.Submit(time.Second, nil)
	if !srv.Saturated() {
		t.Fatal("not saturated with busy worker + backlog")
	}
}

// TestEventHeapPopsInTimeSeqOrder pins the typed heap against the only
// order the engine promises: 10^4 randomly scheduled events — heavy ties,
// cancellations, and callbacks that schedule and cancel further events
// while the heap is mid-run — fire in exactly sort-by-(at, seq) order, and
// an event cancelled while pending never fires.
func TestEventHeapPopsInTimeSeqOrder(t *testing.T) {
	type rec struct {
		ev        *Event
		at        time.Duration
		seq       int
		fired     bool
		cancelled bool
	}
	const total = 10000
	eng := NewEngine(1)
	rng := rand.New(rand.NewSource(7))
	var (
		recs  []*rec
		fired []*rec
	)
	var schedule func()
	cancelOne := func() {
		r := recs[rng.Intn(len(recs))]
		r.ev.Cancel()
		if !r.fired {
			r.cancelled = true
		}
	}
	schedule = func() {
		if len(recs) >= total {
			return
		}
		// 64 distinct instants over 10^4 events: most events tie with many
		// others, so the seq tie-break carries the order.
		at := eng.Now() + time.Duration(rng.Intn(64))*time.Millisecond
		r := &rec{at: at, seq: len(recs)}
		recs = append(recs, r)
		r.ev = eng.At(at, func() {
			r.fired = true
			fired = append(fired, r)
			for n := rng.Intn(3); n > 0; n-- {
				schedule() // re-entrant: pushes while Step is between pop and return
			}
			if rng.Intn(4) == 0 {
				cancelOne()
			}
		})
	}
	for i := 0; i < total/4; i++ {
		schedule()
		if i%5 == 0 {
			cancelOne()
		}
	}
	for len(recs) < total || eng.Pending() > 0 {
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			schedule()
		}
	}
	var want []*rec
	for _, r := range recs {
		if !r.cancelled {
			want = append(want, r)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if len(recs) != total || len(want) == total || len(fired) != len(want) {
		t.Fatalf("scheduled %d, %d never cancelled, %d fired", len(recs), len(want), len(fired))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("pop %d fired (at=%v seq=%d), want (at=%v seq=%d)",
				i, fired[i].at, fired[i].seq, want[i].at, want[i].seq)
		}
	}
}
