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

// Event is a scheduled callback. Events with equal times fire in scheduling
// order, which keeps runs deterministic.
type Event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	dead bool
}

// Cancel prevents a pending event from firing. Cancelling an already-fired
// or already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.dead = true
	}
}

// Cancelled reports whether the event has been cancelled.
func (e *Event) Cancelled() bool { return e == nil || e.dead }

// At returns the virtual time the event is scheduled for.
func (e *Event) At() time.Duration { return e.at }

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on one
// goroutine.
type Engine struct {
	now     time.Duration
	seq     uint64
	queue   eventQueue
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
// as zero. The returned Event may be cancelled.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times in the past fire "now".
func (e *Engine) At(t time.Duration, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.queue.push(ev)
	return ev
}

// Stop halts the run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next pending event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.processed++
		ev.fn()
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
		if next.dead {
			// Discard cancelled events here rather than letting Step skip
			// them: Step would pop past the dead entry and execute the
			// next live event even when it lies beyond the horizon,
			// overshooting the clock (a decided trigger's cancelled timer
			// at t≤horizon must not pull its grace event at t+grace into
			// this run).
			e.queue.pop()
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

// eventQueue is a binary min-heap ordered by (time, seq). The order is
// strict — seq is unique — so the pop sequence is fully determined by the
// set of scheduled events, whatever the heap's internal layout. The sifts
// are written out over []*Event rather than going through container/heap,
// whose any-boxed Push/Pop and interface-dispatched Less/Swap were the
// engine's largest flat cost.
type eventQueue []*Event

// before reports whether a fires ahead of b.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ev and sifts it up to its place.
func (q *eventQueue) push(ev *Event) {
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
func (q *eventQueue) pop() *Event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
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
