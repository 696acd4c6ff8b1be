package simnet

import (
	"slices"
	"testing"
	"time"
)

// TestFIFODeliversInSendOrder sends through a FIFO across ring growth and
// wrap-around, interleaved with plain events due at the same instants,
// and checks every value arrives at its send time + delay, in send order,
// with the plain events keeping their (at, seq) places among them.
func TestFIFODeliversInSendOrder(t *testing.T) {
	eng := NewEngine(1)
	var got, want []int
	f := NewFIFO(eng, 3*time.Millisecond, func(x int) {
		if sent := time.Duration(x/10) * time.Millisecond; eng.Now() != sent+3*time.Millisecond {
			t.Fatalf("value %d delivered at %v, sent at %v", x, eng.Now(), sent)
		}
		got = append(got, x)
	})
	for ms := 0; ms < 40; ms++ {
		// The plain event is scheduled now, the deliveries due with it
		// only when their sends run at ms: it fires first.
		plain := -(10*ms + 9)
		eng.At(time.Duration(ms+3)*time.Millisecond, func() { got = append(got, plain) })
		want = append(want, plain)
		for i := 0; i < ms%7; i++ { // 0 to 6 sends an instant: grows, then wraps
			x := 10*ms + i
			eng.At(time.Duration(ms)*time.Millisecond, func() { f.Send(x) })
			want = append(want, x)
		}
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) || f.n != 0 {
		t.Fatalf("got %v, want %v (%d left queued)", got, want, f.n)
	}
}

// TestJobsDeliverAtTheirOwnDelays checks pooled jobs keep the engine's
// (at, seq) order under varying delays and are reused once fired.
func TestJobsDeliverAtTheirOwnDelays(t *testing.T) {
	eng := NewEngine(1)
	var got []int
	p := NewJobs(eng, func(x int) { got = append(got, x) })
	for i, d := range []int{5, 1, 3, 1, 0} {
		p.Schedule(time.Duration(d)*time.Millisecond, i)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 1, 3, 2, 0}; !slices.Equal(got, want) || len(p.idle) != 5 {
		t.Fatalf("delivered %v, want %v; %d jobs back in the pool, want 5", got, want, len(p.idle))
	}
}

// TestSchedulingAllocatesNothingWarm pins the point of the slab: once the
// slab, the FIFO ring and the job pool have grown, a schedule through any
// of them allocates nothing.
func TestSchedulingAllocatesNothingWarm(t *testing.T) {
	eng := NewEngine(1)
	n := 0
	fn := func() { n++ }
	f := NewFIFO(eng, time.Millisecond, func(int) { n++ })
	p := NewJobs(eng, func(int) { n++ })
	round := func() {
		for i := 0; i < 16; i++ {
			eng.Schedule(time.Duration(i)*time.Microsecond, fn).Cancel()
			eng.Schedule(time.Duration(i)*time.Microsecond, fn)
			f.Send(i)
			p.Schedule(time.Duration(16-i)*time.Microsecond, i)
		}
		if err := eng.Run(eng.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("%v allocations per warm round of 64 schedules, want 0", allocs)
	}
	if n != 52*48 { // AllocsPerRun runs round once more to warm up
		t.Fatalf("%d callbacks ran, want %d", n, 52*48)
	}
}
