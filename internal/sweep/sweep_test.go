package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type params struct {
	K    int     `json:"k"`
	Rate float64 `json:"rate"`
}

func grid(n int) []params {
	out := make([]params, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, params{K: i % 7, Rate: float64(100 * (i + 1))})
	}
	return out
}

// pureRunner derives its output from the point seed only, so any
// schedule must produce identical results.
func pureRunner(_ context.Context, pt Point[params]) (int64, error) {
	return pt.Seed*31 + int64(pt.Params.K), nil
}

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(7, `{"k":2}`)
	b := DeriveSeed(7, `{"k":2}`)
	if a != b {
		t.Fatalf("same root+key gave %d and %d", a, b)
	}
	if DeriveSeed(7, `{"k":3}`) == a {
		t.Fatal("different keys collided")
	}
	if DeriveSeed(8, `{"k":2}`) == a {
		t.Fatal("different roots collided")
	}
}

func TestPointKeyCanonical(t *testing.T) {
	// Map keys sort in encoding/json, so logically equal maps agree.
	k1, err := PointKey(map[string]int{"b": 2, "a": 1})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := PointKey(map[string]int{"a": 1, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("map keys not canonical: %q vs %q", k1, k2)
	}
	if _, err := PointKey(func() {}); err == nil {
		t.Fatal("unencodable params accepted")
	}
}

func TestSeedsIndependentOfPosition(t *testing.T) {
	pts := grid(8)
	s1, err := New[params, int64](Config{RootSeed: 7}, pts, pureRunner)
	if err != nil {
		t.Fatal(err)
	}
	// The same parameter point at a different index keeps its seed.
	rev := make([]params, len(pts))
	for i, p := range pts {
		rev[len(pts)-1-i] = p
	}
	s2, err := New[params, int64](Config{RootSeed: 7}, rev, pureRunner)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]int64)
	for _, p := range s1.Points() {
		byKey[p.Key] = p.Seed
	}
	for _, p := range s2.Points() {
		if byKey[p.Key] != p.Seed {
			t.Fatalf("seed for %s changed with position: %d vs %d", p.Key, byKey[p.Key], p.Seed)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	run := func(parallelism int) []byte {
		res, err := Run[params, int64](context.Background(),
			Config{RootSeed: 42, Parallelism: parallelism}, grid(23), pureRunner)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := run(1)
	par := run(8)
	if string(seq) != string(par) {
		t.Fatalf("parallel sweep diverged from sequential:\nseq: %s\npar: %s", seq, par)
	}
}

func TestResultsOrderedByIndex(t *testing.T) {
	res, err := Run[params, int64](context.Background(),
		Config{RootSeed: 1, Parallelism: 4}, grid(17), pureRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 17 {
		t.Fatalf("got %d results", len(res))
	}
	for i, r := range res {
		if r.Point.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Point.Index)
		}
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
	}
}

func TestCollectAllCapturesErrors(t *testing.T) {
	boom := errors.New("boom")
	res, err := Run[params, int64](context.Background(),
		Config{RootSeed: 1, Parallelism: 4}, grid(10),
		func(_ context.Context, pt Point[params]) (int64, error) {
			if pt.Index%3 == 0 {
				return 0, boom
			}
			return 1, nil
		})
	if err == nil {
		t.Fatal("aggregate error missing")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("aggregate error does not wrap the point error: %v", err)
	}
	failed := 0
	for _, r := range res {
		if r.Point.Index%3 == 0 {
			if !errors.Is(r.Err, boom) {
				t.Fatalf("point %d error = %v", r.Point.Index, r.Err)
			}
			failed++
		} else if r.Err != nil {
			t.Fatalf("healthy point %d failed: %v", r.Point.Index, r.Err)
		}
	}
	if failed != 4 {
		t.Fatalf("expected 4 failures, saw %d", failed)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	s, err := New[params, int64](Config{RootSeed: 1, Parallelism: 1}, grid(50),
		func(ctx context.Context, pt Point[params]) (int64, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return 0, ctx.Err()
		})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-started
		cancel()
	}()
	if err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	res, resErr := s.Results()
	if resErr == nil {
		t.Fatal("cancelled sweep should report point errors")
	}
	notRun := 0
	for _, r := range res {
		if errors.Is(r.Err, ErrNotRun) {
			notRun++
		}
	}
	if notRun == 0 {
		t.Fatal("no points left unexecuted after cancellation")
	}
}

func TestRunAndResultsStateErrors(t *testing.T) {
	s, err := New[params, int64](Config{}, grid(1), pureRunner)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Results(); err == nil {
		t.Fatal("Results before Run succeeded")
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err == nil {
		t.Fatal("second Run succeeded")
	}
}

func TestProgressEventsAndETA(t *testing.T) {
	var now time.Time
	var clockMu sync.Mutex
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		now = now.Add(time.Second) // every clock read advances 1s
		return now
	}
	var mu sync.Mutex
	var events []Event
	res, err := Run[params, int64](context.Background(),
		Config{RootSeed: 3, Parallelism: 1, Clock: clock, Progress: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}}, grid(4), pureRunner)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Elapsed <= 0 {
			t.Fatalf("point %d has no elapsed time", r.Point.Index)
		}
	}
	var startedN, doneN int
	var lastDone Event
	for _, ev := range events {
		switch ev.Type {
		case PointStarted:
			startedN++
		case PointDone:
			doneN++
			lastDone = ev
			if ev.Done < 1 || ev.Done > 4 {
				t.Fatalf("done count %d out of range", ev.Done)
			}
		}
	}
	if startedN != 4 || doneN != 4 {
		t.Fatalf("saw %d started / %d done events, want 4/4", startedN, doneN)
	}
	if lastDone.Done != 4 || lastDone.Total != 4 {
		t.Fatalf("final event counts %d/%d", lastDone.Done, lastDone.Total)
	}
	if lastDone.ETA != 0 {
		t.Fatalf("final ETA = %v, want 0", lastDone.ETA)
	}
	// Mid-sweep events must estimate from completed durations.
	sawETA := false
	for _, ev := range events {
		if ev.Type == PointDone && ev.Done < ev.Total && ev.ETA > 0 {
			sawETA = true
		}
	}
	if !sawETA {
		t.Fatal("no mid-sweep ETA estimate")
	}
}

func TestParallelismActuallyConcurrent(t *testing.T) {
	const workers = 4
	var cur, peak atomic.Int64
	gate := make(chan struct{})
	var once sync.Once
	res, err := Run[params, int64](context.Background(),
		Config{RootSeed: 1, Parallelism: workers}, grid(workers),
		func(_ context.Context, pt Point[params]) (int64, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			if n == workers {
				once.Do(func() { close(gate) })
			}
			<-gate // hold every worker until all are in flight
			cur.Add(-1)
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != workers {
		t.Fatalf("got %d results", len(res))
	}
	if p := peak.Load(); p != workers {
		t.Fatalf("peak concurrency %d, want %d", p, workers)
	}
}

func TestRunRejectsNilRunner(t *testing.T) {
	if _, err := New[params, int64](Config{}, grid(1), nil); err == nil {
		t.Fatal("nil runner accepted")
	}
}

func TestPointKeysDistinguishPoints(t *testing.T) {
	pts := grid(30)
	s, err := New[params, int64](Config{}, pts, pureRunner)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, p := range s.Points() {
		if seen[p.Key] {
			t.Fatalf("duplicate key %s", p.Key)
		}
		seen[p.Key] = true
		if !strings.Contains(p.Key, fmt.Sprintf(`"k":%d`, p.Params.K)) {
			t.Fatalf("key %q does not encode params", p.Key)
		}
	}
}

// witness stands in for a user that honours a lock discipline: until
// stop is called it repeatedly takes mu and runs touch, which reads and
// rewrites (with the same values) every field mu guards. Under -race, an
// access to those fields made without mu then races with it, whether or
// not the code under test has a natural concurrent partner for it.
func witness(mu *sync.Mutex, touch func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			mu.Lock()
			touch()
			mu.Unlock()
		}
	}()
	return func() { close(quit); <-done }
}

// TestLockDisciplineSweep runs a sweep in which half the points fail
// while a second Run, a Results poller and a witness for mu race it, with
// a progress callback that relies on the sweep serializing its events.
// Under -race, every dropped lock in sweep.go and progress.go shows up.
func TestLockDisciplineSweep(t *testing.T) {
	events := 0 // unsynchronized: progress events must be serialized
	s, err := New(Config{
		Parallelism: 4,
		Progress:    func(Event) { events++ },
	}, grid(200), func(_ context.Context, pt Point[params]) (int64, error) {
		if pt.Index%2 == 0 {
			return 0, errors.New("boom")
		}
		return pt.Seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stopMu := witness(&s.mu, func() {
		st := s.state
		s.state = st
		for i := range s.results {
			r := s.results[i]
			s.results[i] = r
		}
	})
	var wg sync.WaitGroup
	runErrs := make([]error, 2)
	for i := range runErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runErrs[i] = s.Run(context.Background())
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := s.Results(); !errors.Is(err, errNotStarted) {
				return
			}
		}
	}()
	wg.Wait()
	stopMu()
	twice := 0
	for _, err := range runErrs {
		if errors.Is(err, errAlreadyRun) {
			twice++
		}
	}
	if twice != 1 || events == 0 {
		t.Fatalf("runs %v, %d progress events; want exactly one errAlreadyRun and some events", runErrs, events)
	}
}
