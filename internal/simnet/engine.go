// Package simnet provides a deterministic discrete-event simulation engine
// used as the substrate for the JURY reproduction. All controllers, switches,
// stores and JURY components run as event handlers scheduled on a virtual
// clock, which makes detection-time distributions and throughput curves
// reproducible and fast to regenerate.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// ErrStopped is returned by Run when the engine was stopped explicitly
// before the horizon was reached.
var ErrStopped = errors.New("simnet: engine stopped")

// Timer is the handle on one scheduled callback. The zero Timer is a
// handle on nothing; cancelling it is a no-op.
type Timer struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel prevents a pending callback from firing. Cancelling a timer that
// already fired or was cancelled is a no-op: popping an event bumps its
// slot's generation before the slot is reused, so a stale handle never
// cancels the slot's new occupant.
func (t Timer) Cancel() {
	if t.e != nil && t.e.slots[t.idx].gen == t.gen {
		t.e.slots[t.idx].fn = nil
	}
}

// slot is one event of the engine's slab: the callback, nil once
// cancelled, and the generation a Timer must match to cancel it.
type slot struct {
	fn  func()
	gen uint32
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on one
// goroutine.
type Engine struct {
	now   time.Duration
	seq   uint64
	queue eventQueue
	// slots holds the queued events' callbacks; free lists the popped
	// slots for reuse, so a schedule allocates nothing once the slab has
	// grown to the peak number of queued events.
	slots   []slot
	free    []int32
	rng     *rand.Rand
	stopped bool
	// processed counts events executed, useful for runaway detection.
	processed uint64
	// MaxEvents aborts the run when exceeded (0 = unlimited).
	MaxEvents uint64
}

// NewEngine creates an engine with a deterministic RNG seeded by seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero. The returned Timer may be cancelled.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times in the past fire "now".
func (e *Engine) At(t time.Duration, fn func()) Timer {
	if t < e.now {
		t = e.now
	}
	idx := int32(len(e.slots))
	if n := len(e.free); n > 0 {
		idx, e.free = e.free[n-1], e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
	}
	e.slots[idx].fn = fn
	e.queue.push(event{at: t, seq: e.seq, idx: idx})
	e.seq++
	return Timer{e, idx, e.slots[idx].gen}
}

// pop removes the earliest queued event and frees its slot, returning its
// time and callback (nil if it was cancelled).
func (e *Engine) pop() (time.Duration, func()) {
	ev := e.queue.pop()
	s := &e.slots[ev.idx]
	fn := s.fn
	*s = slot{gen: s.gen + 1}
	e.free = append(e.free, ev.idx)
	return ev.at, fn
}

// Stop halts the run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next pending event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		at, fn := e.pop()
		if fn == nil {
			continue
		}
		e.now = at
		e.processed++
		fn()
		return true
	}
	return false
}

// Run executes events until the horizon is reached, the queue drains, or
// Stop is called. The clock is advanced to horizon when the queue drains
// early so measurements over a fixed window remain well-defined.
func (e *Engine) Run(horizon time.Duration) error {
	e.stopped = false
	for len(e.queue) > 0 {
		if e.stopped {
			return ErrStopped
		}
		if e.MaxEvents > 0 && e.processed >= e.MaxEvents {
			return fmt.Errorf("simnet: exceeded %d events at t=%v", e.MaxEvents, e.now)
		}
		next := e.queue[0]
		if e.slots[next.idx].fn == nil {
			// Discard cancelled events here rather than letting Step skip
			// them: Step would pop past the dead entry and execute the
			// next live event even when it lies beyond the horizon,
			// overshooting the clock (a decided trigger's cancelled timer
			// at t≤horizon must not pull its grace event at t+grace into
			// this run).
			e.pop()
			continue
		}
		if next.at > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
	return nil
}

// RunUntilIdle executes all pending events regardless of time.
func (e *Engine) RunUntilIdle() error {
	e.stopped = false
	for e.Step() {
		if e.stopped {
			return ErrStopped
		}
		if e.MaxEvents > 0 && e.processed >= e.MaxEvents {
			return fmt.Errorf("simnet: exceeded %d events at t=%v", e.MaxEvents, e.now)
		}
	}
	return nil
}

// Pending reports the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return len(e.queue) }

// event is one queue entry: the fire-order key and the slab slot holding
// the callback.
type event struct {
	at  time.Duration
	seq uint64
	idx int32
}

// eventQueue is a binary min-heap ordered by (time, seq). The order is
// strict — seq is unique — so the pop sequence is fully determined by the
// set of scheduled events, whatever the heap's internal layout. The sifts
// are written out over the value entries rather than going through
// container/heap, whose any-boxed Push/Pop and interface-dispatched
// Less/Swap were the engine's largest flat cost.
type eventQueue []event

// before reports whether a fires ahead of b.
func before(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ev and sifts it up to its place.
func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event; the queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	// Sift the former last element down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && before(h[r], h[child]) {
			child = r
		}
		if !before(h[child], last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return top
}
