// Package sweep is the experiment-orchestration subsystem: Run fans
// independent simulation runs across a bounded worker pool while keeping
// every result bit-identical to a sequential execution.
//
// Every figure of the paper's evaluation (§VII) is a sweep over
// independent parameter points — (k, m), rates, cluster sizes, traces,
// faults — and each point boots its own simnet engine, so points are
// embarrassingly parallel. What makes naive parallelism dangerous is
// seeding: if a point's seed depended on execution order, concurrent and
// sequential campaigns would diverge. sweep therefore derives each
// point's seed from the campaign root seed and a stable key (the
// canonical JSON encoding of the point's parameters), so the schedule
// cannot reach the results:
//
//	seed(point) = FNV-1a64(rootSeed || key)   (interpreted as int64)
//
// The package is a concurrent bridge: worker pools are its whole point,
// but its results must not depend on the schedule (the ETA clock is
// injected, defaulting to time.Now; TestBatchDeterministicAcrossParallelism
// holds the output at -parallel 1 and 8), errcrit covers Run's error
// return, and TestLockDisciplineSweep holds its one mutex under -race.
package sweep

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"
)

// Point is one parameter point of a sweep with its stable identity.
type Point[P any] struct {
	// Index is the point's position in the input slice; results are
	// returned in this order regardless of completion order.
	Index int `json:"index"`
	// Params are the caller's parameters, exactly as passed in.
	Params P `json:"params"`
	// Key is the canonical JSON encoding of Params. It identifies the
	// point across runs: seeds and cache entries are derived from it.
	Key string `json:"key"`
	// Seed is derived from the root seed and Key; it is independent of
	// Index, scheduling and parallelism.
	Seed int64 `json:"seed"`
}

// Result pairs a point with its outcome.
type Result[P, R any] struct {
	Point Point[P] `json:"point"`
	Value R        `json:"value"`
	// Err is the point's failure, nil on success; ErrNotRun for a point
	// a cancellation skipped. Not serialized: cache entries exist only
	// for successful points.
	Err error `json:"-"`
	// Cached reports that Value was loaded from the result cache.
	Cached bool `json:"-"`
}

// Config parameterizes a sweep.
type Config struct {
	// RootSeed is the campaign seed every point seed is derived from.
	RootSeed int64
	// Parallelism bounds the worker pool; 0 means runtime.GOMAXPROCS(0).
	Parallelism int
	// Cache, when non-nil, skips points whose results are already on
	// disk and persists fresh results, making campaigns resumable.
	Cache *Cache
	// Progress, when non-nil, receives one event when a point starts
	// running (cache hits never start) and one when it is done. Events
	// are serialized, so the callback needs no locking of its own, but
	// it runs on worker goroutines: keep it fast.
	Progress func(Event)
	// Clock supplies wall time for the ETA. Nil defaults to time.Now at
	// the real-time boundary; tests inject fakes.
	Clock func() time.Time
}

// Event is one progress notification.
type Event struct {
	// Started is set on the event that opens a point's run; every other
	// event reports a point done (run, cache-served or failed).
	Started bool
	Key     string
	// Err and Cached describe a done point.
	Err    error
	Cached bool
	// Done and Total count finished and overall points.
	Done, Total int
	// ETA estimates the remaining wall time from the mean duration of
	// the points run so far and the pool width; zero until one has run,
	// and once every point is done.
	ETA time.Duration
}

// ErrNotRun marks points never executed because the sweep was cancelled.
var ErrNotRun = errors.New("sweep: point not executed")

// errExited fails a point whose runner called runtime.Goexit (t.Fatal).
var errExited = errors.New("sweep: runner exited without returning")

// Run executes run once per parameter point on a pool of
// cfg.Parallelism workers and returns one result per point, in input
// order. run must derive all randomness from the seed it is handed and
// share no mutable state with other points. A failed point does not stop
// the sweep: its error is on its result and in the returned aggregate; a
// runner that calls runtime.Goexit fails only its point.
// On cancellation Run stops handing out points, marks the rest
// ErrNotRun and returns the results with the context's cause.
func Run[P, R any](ctx context.Context, cfg Config, params []P, run func(P, int64) (R, error)) ([]Result[P, R], error) {
	if run == nil {
		return nil, errors.New("sweep: nil runner")
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	results := make([]Result[P, R], len(params))
	for i, p := range params {
		key, err := PointKey(p)
		if err != nil {
			return nil, fmt.Errorf("sweep: encode point %d: %w", i, err)
		}
		pt := Point[P]{Index: i, Params: p, Key: key, Seed: DeriveSeed(cfg.RootSeed, key)}
		results[i] = Result[P, R]{Point: pt, Err: ErrNotRun}
	}

	// mu serializes progress events and guards the counts behind them.
	var (
		mu       sync.Mutex
		finished int           // points done. guarded by mu.
		ran      int           // points run to success. guarded by mu.
		ranFor   time.Duration // their summed wall time. guarded by mu.
	)
	notify := func(ev Event) {
		if cfg.Progress != nil {
			ev.Done, ev.Total = finished, len(results)
			cfg.Progress(ev)
		}
	}
	// do runs one point: cache probe, runner, cache fill. Each worker
	// writes only the slots of the indices it receives.
	do := func(res *Result[P, R]) {
		pt := res.Point
		res.Err = nil
		if cfg.Cache != nil {
			hit, err := cfg.Cache.Get(pt.Key, &res.Value)
			if err != nil {
				res.Err = fmt.Errorf("sweep: cache read for point %d: %w", pt.Index, err)
			}
			res.Cached = hit
		}
		var elapsed time.Duration
		executed := res.Err == nil && !res.Cached
		if executed {
			mu.Lock()
			notify(Event{Started: true, Key: pt.Key})
			mu.Unlock()
			start := cfg.Clock()
			res.Err = errExited
			ran := make(chan struct{})
			go func() {
				defer close(ran)
				res.Value, res.Err = run(pt.Params, pt.Seed)
			}()
			<-ran
			elapsed = cfg.Clock().Sub(start)
			if res.Err == nil && cfg.Cache != nil {
				if err := cfg.Cache.Put(pt.Key, res.Value); err != nil {
					res.Err = fmt.Errorf("sweep: cache write for point %d: %w", pt.Index, err)
				}
			}
		}
		mu.Lock()
		finished++
		if executed && res.Err == nil {
			ran++
			ranFor += elapsed
		}
		var eta time.Duration
		if left := len(results) - finished; left > 0 && ran > 0 {
			eta = ranFor / time.Duration(ran) * time.Duration(left) / time.Duration(cfg.Parallelism)
		}
		notify(Event{Key: pt.Key, Err: res.Err, Cached: res.Cached, ETA: eta})
		mu.Unlock()
	}

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				if ctx.Err() == nil {
					do(&results[i])
				}
			}
		}()
	}
feed:
	for i := range results {
		select {
		case indices <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()

	if err := context.Cause(ctx); err != nil {
		return results, err
	}
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("point %d (%s): %w", r.Point.Index, r.Point.Key, r.Err))
		}
	}
	return results, errors.Join(errs...)
}

// PointKey returns the canonical JSON encoding of params — the stable
// identity that seeds and cache entries are derived from. Maps encode
// with sorted keys and struct fields in declaration order, so the key is
// deterministic across processes.
func PointKey(params any) (string, error) {
	b, err := json.Marshal(params)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// DeriveSeed derives a point seed from the campaign root seed and the
// point key: FNV-1a64 over the root seed's big-endian bytes followed by
// the key bytes. The derivation is pure, so parallel and sequential
// sweeps — and sweeps over permuted point slices — give every point the
// same seed.
func DeriveSeed(root int64, key string) int64 {
	h := fnv.New64a()
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], uint64(root))
	h.Write(rb[:])
	h.Write([]byte(key))
	return int64(h.Sum64())
}
