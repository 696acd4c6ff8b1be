// Package sweep is the experiment-orchestration subsystem: it fans
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
// The package is a concurrent bridge in the jurylint suite: it is exempt
// from the eventloop rule (worker pools are its whole point) but held to
// the wallclock rule (the ETA clock is injected, defaulting to time.Now
// only at the annotated boundary) and errcrit on its Run/Results error
// returns; TestLockDisciplineSweep holds its mutex discipline under
// -race.
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
	// aggregated in this order regardless of completion order.
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
	// Err is the point's failure, nil on success. Not serialized: cache
	// entries exist only for successful points.
	Err error `json:"-"`
	// Elapsed is the wall-clock execution time of the point (zero for
	// cache hits and skipped points).
	Elapsed time.Duration `json:"-"`
	// Cached reports that Value was loaded from the result cache.
	Cached bool `json:"-"`
}

// Runner executes one point. It must derive all randomness from
// pt.Seed; it runs concurrently with other points and must not share
// mutable state with them.
type Runner[P, R any] func(ctx context.Context, pt Point[P]) (R, error)

// Config parameterizes a sweep.
type Config struct {
	// RootSeed is the campaign seed every point seed is derived from.
	RootSeed int64
	// Parallelism bounds the worker pool; 0 means runtime.GOMAXPROCS(0).
	Parallelism int
	// Cache, when non-nil, skips points whose results are already on
	// disk and persists fresh results, making campaigns resumable.
	Cache *Cache
	// Progress, when non-nil, receives serialized progress events.
	// Callbacks run on worker goroutines under an internal lock: keep
	// them fast and do not call Sweep methods from them.
	Progress ProgressFunc
	// Clock supplies wall time for Elapsed/ETA accounting. Nil defaults
	// to time.Now at the real-time boundary; tests inject fakes.
	Clock func() time.Time
}

// ErrNotRun marks points never executed because the sweep was cancelled.
var ErrNotRun = errors.New("sweep: point not executed")

var errAlreadyRun = errors.New("sweep: Run called twice")
var errNotStarted = errors.New("sweep: Results called before Run")

// Sweep executes a set of parameter points through a runner. Build one
// with New, execute with Run, collect with Results.
type Sweep[P, R any] struct {
	cfg    Config
	points []Point[P]
	run    Runner[P, R]

	mu sync.Mutex
	// results holds one slot per point, in input order. guarded by mu.
	results []Result[P, R]
	// state is idle → running → done. guarded by mu.
	state int

	prog *progress
}

const (
	stateIdle = iota
	stateRunning
	stateDone
)

// New derives every point's key and seed and prepares a sweep. It fails
// if any parameter point cannot be canonically encoded.
func New[P, R any](cfg Config, params []P, run Runner[P, R]) (*Sweep[P, R], error) {
	if run == nil {
		return nil, errors.New("sweep: nil runner")
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now //jurylint:allow wallclock -- default clock at the real-time boundary (ETA/Elapsed accounting only)
	}
	points := make([]Point[P], len(params))
	for i, p := range params {
		key, err := PointKey(p)
		if err != nil {
			return nil, fmt.Errorf("sweep: encode point %d: %w", i, err)
		}
		points[i] = Point[P]{
			Index:  i,
			Params: p,
			Key:    key,
			Seed:   DeriveSeed(cfg.RootSeed, key),
		}
	}
	return &Sweep[P, R]{
		cfg:    cfg,
		points: points,
		run:    run,
		prog:   newProgress(len(points), cfg.Parallelism, cfg.Progress),
	}, nil
}

// Points returns the derived points (indices, keys, seeds) in input
// order. The slice is shared; callers must not mutate it.
func (s *Sweep[P, R]) Points() []Point[P] { return s.points }

// Run executes the sweep. It returns the context error on cancellation;
// point errors do not stop the sweep and are reported by Results. Run can
// be called once.
func (s *Sweep[P, R]) Run(ctx context.Context) error {
	s.mu.Lock()
	if s.state != stateIdle {
		s.mu.Unlock()
		return errAlreadyRun
	}
	s.state = stateRunning
	s.results = make([]Result[P, R], len(s.points))
	for i := range s.results {
		s.results[i] = Result[P, R]{Point: s.points[i], Err: ErrNotRun}
	}
	s.mu.Unlock()

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				if ctx.Err() != nil {
					continue // drain without running
				}
				res := s.runPoint(ctx, i)
				s.mu.Lock()
				s.results[i] = res
				s.mu.Unlock()
				s.prog.done(res.Point.Index, res.Point.Key, res.Err, res.Cached, res.Elapsed)
			}
		}()
	}
feed:
	for i := range s.points {
		select {
		case indices <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()

	s.mu.Lock()
	s.state = stateDone
	s.mu.Unlock()
	return context.Cause(ctx)
}

// runPoint executes one point: cache probe, runner, cache fill.
func (s *Sweep[P, R]) runPoint(ctx context.Context, i int) Result[P, R] {
	pt := s.points[i]
	res := Result[P, R]{Point: pt}
	if s.cfg.Cache != nil {
		hit, err := s.cfg.Cache.Get(pt.Key, &res.Value)
		if err != nil {
			res.Err = fmt.Errorf("sweep: cache read for point %d: %w", i, err)
			return res
		}
		if hit {
			res.Cached = true
			return res
		}
	}
	s.prog.started(pt.Index, pt.Key)
	start := s.cfg.Clock()
	res.Value, res.Err = s.run(ctx, pt)
	res.Elapsed = s.cfg.Clock().Sub(start)
	if res.Err == nil && s.cfg.Cache != nil {
		if err := s.cfg.Cache.Put(pt.Key, res.Value); err != nil {
			res.Err = fmt.Errorf("sweep: cache write for point %d: %w", i, err)
		}
	}
	return res
}

// Results returns the per-point outcomes in input order, plus the
// aggregate of all point errors (nil when every point succeeded). It is
// an error to collect results before Run has completed.
func (s *Sweep[P, R]) Results() ([]Result[P, R], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateDone {
		return nil, errNotStarted
	}
	out := make([]Result[P, R], len(s.results))
	copy(out, s.results)
	var errs []error
	for _, r := range out {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("point %d (%s): %w", r.Point.Index, r.Point.Key, r.Err))
		}
	}
	return out, errors.Join(errs...)
}

// Run is the convenience one-shot: New + (*Sweep).Run + Results. The
// returned results are complete even when the returned error aggregates
// point failures.
func Run[P, R any](ctx context.Context, cfg Config, params []P, run Runner[P, R]) ([]Result[P, R], error) {
	s, err := New(cfg, params, run)
	if err != nil {
		return nil, err
	}
	if err := s.Run(ctx); err != nil {
		// Partial results still exist after cancellation; return what
		// completed alongside the run error.
		res, _ := s.Results() //jurylint:allow errcrit -- run error supersedes the aggregate; per-point errors stay readable on the results
		return res, err
	}
	return s.Results()
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
