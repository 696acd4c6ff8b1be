package simnet

import "time"

// FIFO hands typed values to one callback a constant delay after they are
// sent, with no closure per send: every Send schedules the same callback,
// bound once, and each firing delivers the oldest value. Under one delay
// a later send gets a later-or-equal time and a higher seq, so the
// firings come in send order and the head is the value each was
// scheduled for.
type FIFO[T any] struct {
	eng     *Engine
	delay   time.Duration
	deliver func(T)
	fire    func()
	ring    []T // a power of two long once grown
	head, n int
}

// NewFIFO returns a FIFO that delivers to deliver after delay.
func NewFIFO[T any](eng *Engine, delay time.Duration, deliver func(T)) *FIFO[T] {
	f := &FIFO[T]{eng: eng, delay: delay, deliver: deliver}
	f.fire = f.pop
	return f
}

// Send delivers x after the FIFO's delay.
func (f *FIFO[T]) Send(x T) {
	if f.n == len(f.ring) {
		ring := make([]T, max(8, 2*f.n))
		copy(ring[copy(ring, f.ring[f.head:]):], f.ring[:f.head])
		f.ring, f.head = ring, 0
	}
	f.ring[(f.head+f.n)&(len(f.ring)-1)] = x
	f.n++
	f.eng.Schedule(f.delay, f.fire)
}

func (f *FIFO[T]) pop() {
	x := f.ring[f.head]
	f.ring[f.head] = *new(T)
	f.head = (f.head + 1) & (len(f.ring) - 1)
	f.n--
	f.deliver(x)
}

// Jobs hands typed values to one callback after any delay, with no
// closure per schedule: a pooled job carries the value and a callback
// bound once, and returns to the pool as it fires.
type Jobs[T any] struct {
	eng     *Engine
	deliver func(T)
	idle    []*job[T]
}

type job[T any] struct {
	jobs *Jobs[T]
	x    T
	fire func()
}

// NewJobs returns a job pool that delivers to deliver.
func NewJobs[T any](eng *Engine, deliver func(T)) *Jobs[T] {
	return &Jobs[T]{eng: eng, deliver: deliver}
}

// Schedule delivers x after delay.
func (p *Jobs[T]) Schedule(delay time.Duration, x T) {
	var j *job[T]
	if n := len(p.idle); n > 0 {
		j, p.idle = p.idle[n-1], p.idle[:n-1]
	} else {
		j = &job[T]{jobs: p}
		j.fire = j.run
	}
	j.x = x
	p.eng.Schedule(delay, j.fire)
}

func (j *job[T]) run() {
	x := j.x
	j.x = *new(T)
	j.jobs.idle = append(j.jobs.idle, j)
	j.jobs.deliver(x)
}
