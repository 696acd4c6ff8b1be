package simnet

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// scheduler is what the differential driver needs of an engine.
type scheduler interface {
	schedule(d time.Duration, fn func()) // issues the next timer id
	at(t time.Duration, fn func())
	cancel(id int)
	step() bool
	run(horizon time.Duration)
	now() time.Duration
	pending() int
}

// engineSched drives the real engine and counts the stale cancels that
// met a recycled, occupied slot.
type engineSched struct {
	e        *Engine
	timers   []Timer
	recycled int
}

func (s *engineSched) schedule(d time.Duration, fn func()) {
	s.timers = append(s.timers, s.e.Schedule(d, fn))
}
func (s *engineSched) at(t time.Duration, fn func()) { s.timers = append(s.timers, s.e.At(t, fn)) }
func (s *engineSched) cancel(id int) {
	t := s.timers[id]
	if sl := s.e.slots[t.idx]; sl.gen != t.gen && sl.fn != nil {
		s.recycled++
	}
	t.Cancel()
}
func (s *engineSched) step() bool { return s.e.Step() }
func (s *engineSched) run(h time.Duration) {
	if err := s.e.Run(h); err != nil {
		panic(err)
	}
}
func (s *engineSched) now() time.Duration { return s.e.now }
func (s *engineSched) pending() int       { return s.e.Pending() }

// refSched is the trivially correct reference: every event ever
// scheduled in one slice, the queued ones found by a linear scan for the
// least (at, seq), cancellation a dead flag.
type refSched struct {
	t   time.Duration
	evs []*refEvent
	// deadHeads counts Run calls that discarded a cancelled head at or
	// before the horizon and then stopped at a live event beyond it.
	deadHeads int
}

type refEvent struct {
	at           time.Duration
	fn           func()
	queued, dead bool
}

func (r *refSched) schedule(d time.Duration, fn func()) { r.at(r.t+max(d, 0), fn) }
func (r *refSched) at(t time.Duration, fn func()) {
	r.evs = append(r.evs, &refEvent{at: max(t, r.t), fn: fn, queued: true})
}
func (r *refSched) cancel(id int) { r.evs[id].dead = r.evs[id].dead || r.evs[id].queued }

// head returns the queued event with the least (at, seq), or nil; ids
// are seqs, so the first of equal times wins.
func (r *refSched) head() *refEvent {
	var h *refEvent
	for _, ev := range r.evs {
		if ev.queued && (h == nil || ev.at < h.at) {
			h = ev
		}
	}
	return h
}

func (r *refSched) step() bool {
	for h := r.head(); h != nil; h = r.head() {
		h.queued = false
		if !h.dead {
			r.t = h.at
			h.fn()
			return true
		}
	}
	return false
}

func (r *refSched) run(horizon time.Duration) {
	discarded := false
	for h := r.head(); h != nil; h = r.head() {
		if h.dead {
			h.queued, discarded = false, discarded || h.at <= horizon
			continue
		}
		if h.at > horizon {
			if discarded {
				r.deadHeads++
			}
			break
		}
		r.step()
	}
	r.t = max(r.t, horizon)
}

func (r *refSched) now() time.Duration { return r.t }
func (r *refSched) pending() int {
	n := 0
	for _, ev := range r.evs {
		if ev.queued {
			n++
		}
	}
	return n
}

// driveOrder interprets data as operations on s, two bytes each, and
// returns the trace: every firing with its time, every Step result, and
// the clock and queue length after each operation. A timer scheduled
// with a high argument byte, when it fires, cancels an earlier timer
// (fired or not) and schedules a successor; nested is how many such
// callbacks ran.
func driveOrder(data []byte, s scheduler) (trace []string, nested int) {
	issued := 0
	var callback func(id, target int, follow time.Duration) func()
	callback = func(id, target int, follow time.Duration) func() {
		return func() {
			trace = append(trace, fmt.Sprintf("fire %d @%v", id, s.now()))
			if target < 0 {
				return
			}
			nested++
			s.cancel(target)
			s.schedule(follow, callback(issued, -1, 0))
			issued++
		}
	}
	for i := 0; i+1 < len(data) && i < 512; i += 2 {
		op, arg := data[i]%5, data[i+1]
		switch op {
		case 0, 1:
			target, follow := -1, time.Duration(arg%3)*time.Millisecond
			if arg >= 128 {
				target = int(arg) % (issued + 1)
			}
			fn := callback(issued, target, follow)
			if op == 0 {
				s.schedule(time.Duration(int(arg%10)-1)*time.Millisecond, fn)
			} else {
				s.at(s.now()+time.Duration(int(arg%10)-3)*time.Millisecond, fn)
			}
			issued++
		case 2:
			if issued > 0 {
				s.cancel(int(arg) % issued)
			}
		case 3:
			trace = append(trace, fmt.Sprintf("step %v", s.step()))
		case 4:
			s.run(s.now() + time.Duration(arg%6)*time.Millisecond)
		}
		trace = append(trace, fmt.Sprintf("now %v pending %d", s.now(), s.pending()))
	}
	s.run(s.now() + time.Hour)
	trace = append(trace, fmt.Sprintf("end %v pending %d", s.now(), s.pending()))
	return trace, nested
}

// orderSeeds are hand-made interleavings. Op bytes: 0 Schedule, 1 At, 2
// Cancel, 3 Step, 4 Run; arguments ≥ 128 make a callback that cancels
// and reschedules.
var orderSeeds = [][]byte{
	// Fire timer 0, recycle its slot for timer 1, cancel the stale
	// handle 0: timer 1 must still fire.
	{0, 2, 4, 5, 0, 3, 2, 0, 4, 5},
	// A cancelled head at 1 ms in front of a live event at 5 ms, run to
	// 2 ms: the head is discarded, the live event stays queued.
	{0, 2, 0, 6, 2, 0, 4, 2, 4, 5},
	// Callbacks that cancel an earlier timer (fired, pending or
	// recycled) and reschedule, among ties and past-time At calls.
	{0, 131, 0, 132, 1, 130, 0, 1, 3, 0, 0, 200, 2, 1, 4, 3, 0, 255, 1, 0, 3, 0, 4, 5},
}

// FuzzEngineOrder holds the slab engine to the reference under random
// interleavings of Schedule, At, Cancel, Step and Run.
func FuzzEngineOrder(f *testing.F) {
	for _, seed := range orderSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, _ := driveOrder(data, &engineSched{e: NewEngine(1)})
		want, _ := driveOrder(data, &refSched{})
		if !slices.Equal(got, want) {
			t.Fatalf("engine trace\n%v\nreference trace\n%v", got, want)
		}
	})
}

// TestEngineOrderSeedsCoverEdgeCases checks the seeds reach the three
// cases the generation rule and Run's dead-head discard exist for.
func TestEngineOrderSeedsCoverEdgeCases(t *testing.T) {
	eng, ref := &engineSched{e: NewEngine(1)}, &refSched{}
	nested := 0
	for _, seed := range orderSeeds {
		eng.e, eng.timers = NewEngine(1), nil
		ref.t, ref.evs = 0, nil
		driveOrder(seed, eng)
		_, n := driveOrder(seed, ref)
		nested += n
	}
	if eng.recycled == 0 || ref.deadHeads == 0 || nested == 0 {
		t.Fatalf("stale cancels of recycled slots %d, dead heads before a later live event %d, cancel-and-reschedule callbacks %d; want each > 0",
			eng.recycled, ref.deadHeads, nested)
	}
}
