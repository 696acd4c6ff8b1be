package sweep

import (
	"sync"
	"time"
)

// EventType classifies progress events.
type EventType int

const (
	// PointStarted fires when a worker begins executing a point (cache
	// hits never start).
	PointStarted EventType = iota
	// PointDone fires when a point completes — executed, cache-served or
	// failed.
	PointDone
)

// Event is one serialized progress notification.
type Event struct {
	Type EventType
	// Index and Key identify the point.
	Index int
	Key   string
	// Err is the point's failure (PointDone only).
	Err error
	// Cached reports a cache-served completion (PointDone only).
	Cached bool
	// Elapsed is the point's execution time (PointDone, executed points).
	Elapsed time.Duration
	// Done and Total count completed and overall points.
	Done, Total int
	// ETA estimates the remaining wall time from the mean duration of
	// executed points and the worker-pool width; zero until the first
	// executed point completes.
	ETA time.Duration
}

// ProgressFunc receives progress events. Events are serialized by an
// internal lock, so implementations need no synchronization of their
// own, but they run on worker goroutines: keep them fast and do not call
// Sweep methods from them.
type ProgressFunc func(Event)

// progress tracks completion counts and duration statistics and fans
// events to the configured callback.
type progress struct {
	total       int
	parallelism int
	fn          ProgressFunc

	mu sync.Mutex
	// completed counts finished points. guarded by mu.
	completed int
	// execCount and execSum aggregate executed (non-cached) point
	// durations for the ETA estimate. guarded by mu.
	execCount int
	execSum   time.Duration
}

func newProgress(total, parallelism int, fn ProgressFunc) *progress {
	return &progress{total: total, parallelism: parallelism, fn: fn}
}

func (p *progress) started(index int, key string) {
	if p.fn == nil {
		return
	}
	p.mu.Lock()
	ev := Event{Type: PointStarted, Index: index, Key: key, Done: p.completed, Total: p.total}
	p.fn(ev)
	p.mu.Unlock()
}

func (p *progress) done(index int, key string, err error, cached bool, elapsed time.Duration) {
	p.mu.Lock()
	p.completed++
	if !cached && err == nil {
		p.execCount++
		p.execSum += elapsed
	}
	if p.fn != nil {
		ev := Event{
			Type:    PointDone,
			Index:   index,
			Key:     key,
			Err:     err,
			Cached:  cached,
			Elapsed: elapsed,
			Done:    p.completed,
			Total:   p.total,
			ETA:     p.etaLocked(),
		}
		p.fn(ev)
	}
	p.mu.Unlock()
}

// etaLocked estimates remaining wall time: mean executed-point duration
// times remaining points, divided by the pool width. Callers hold mu.
func (p *progress) etaLocked() time.Duration {
	remaining := p.total - p.completed
	if remaining <= 0 || p.execCount == 0 {
		return 0
	}
	mean := p.execSum / time.Duration(p.execCount)
	eta := mean * time.Duration(remaining) / time.Duration(p.parallelism)
	return eta
}
