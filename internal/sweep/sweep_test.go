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

// index recovers a grid point's position from its Rate.
func index(p params) int { return int(p.Rate)/100 - 1 }

// pureRunner derives its output from the point and its seed only, so any
// schedule must produce identical results.
func pureRunner(p params, seed int64) (int64, error) {
	return seed*31 + int64(p.K), nil
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
	fwd, err := Run(context.Background(), Config{RootSeed: 7}, pts, pureRunner)
	if err != nil {
		t.Fatal(err)
	}
	// The same parameter point at a different index keeps its seed.
	rev := make([]params, len(pts))
	for i, p := range pts {
		rev[len(pts)-1-i] = p
	}
	bwd, err := Run(context.Background(), Config{RootSeed: 7}, rev, pureRunner)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]int64)
	for _, r := range fwd {
		byKey[r.Point.Key] = r.Point.Seed
	}
	for _, r := range bwd {
		if byKey[r.Point.Key] != r.Point.Seed {
			t.Fatalf("seed for %s changed with position: %d vs %d", r.Point.Key, byKey[r.Point.Key], r.Point.Seed)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	run := func(parallelism int) []byte {
		res, err := Run(context.Background(),
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
	res, err := Run(context.Background(),
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
	res, err := Run(context.Background(),
		Config{RootSeed: 1, Parallelism: 4}, grid(10),
		func(p params, _ int64) (int64, error) {
			if index(p)%3 == 0 {
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
	go func() {
		<-started
		cancel()
	}()
	res, err := Run(ctx, Config{RootSeed: 1, Parallelism: 1}, grid(50),
		func(params, int64) (int64, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return 0, ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if len(res) != 50 {
		t.Fatalf("cancelled sweep returned %d of 50 results", len(res))
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

func TestProgressEventsAndETA(t *testing.T) {
	var now time.Time
	clock := func() time.Time {
		now = now.Add(time.Second) // every clock read advances 1s
		return now
	}
	var events []Event
	_, err := Run(context.Background(),
		Config{RootSeed: 3, Parallelism: 1, Clock: clock, Progress: func(ev Event) {
			events = append(events, ev)
		}}, grid(4), pureRunner)
	if err != nil {
		t.Fatal(err)
	}
	var startedN, doneN int
	var lastDone Event
	for _, ev := range events {
		if ev.Started {
			startedN++
			continue
		}
		doneN++
		lastDone = ev
		if ev.Done != doneN {
			t.Fatalf("done event %d counts %d done", doneN, ev.Done)
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
	// One worker, and every run lasts one clock tick: after d of the 4
	// points the estimate is the mean (1s) times the 4-d points left.
	for _, ev := range events {
		if !ev.Started && ev.Done < ev.Total {
			if want := time.Duration(ev.Total-ev.Done) * time.Second; ev.ETA != want {
				t.Fatalf("ETA after %d/%d = %v, want %v", ev.Done, ev.Total, ev.ETA, want)
			}
		}
	}
}

func TestParallelismActuallyConcurrent(t *testing.T) {
	const workers = 4
	var cur, peak atomic.Int64
	gate := make(chan struct{})
	var once sync.Once
	res, err := Run(context.Background(),
		Config{RootSeed: 1, Parallelism: workers}, grid(workers),
		func(params, int64) (int64, error) {
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
	if _, err := Run[params, int64](context.Background(), Config{}, grid(1), nil); err == nil {
		t.Fatal("nil runner accepted")
	}
}

func TestPointKeysDistinguishPoints(t *testing.T) {
	res, err := Run(context.Background(), Config{}, grid(30), pureRunner)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range res {
		p := r.Point
		if seen[p.Key] {
			t.Fatalf("duplicate key %s", p.Key)
		}
		seen[p.Key] = true
		if !strings.Contains(p.Key, fmt.Sprintf(`"k":%d`, p.Params.K)) {
			t.Fatalf("key %q does not encode params", p.Key)
		}
	}
}

// TestLockDisciplineSweep races the worker pool against the serialized
// progress callback: eight workers get through 400 points, half of them
// failing and a quarter served from a warm cache, while the callback
// mutates unsynchronized state and checks that the done count rises by
// one per done event. Under -race, a dropped or narrowed lock in Run
// shows up as a data race on the callback's state or on the counts
// behind the events.
func TestLockDisciplineSweep(t *testing.T) {
	cache, err := NewCache(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	pts := grid(400)
	for _, p := range pts[:100] {
		key, err := PointKey(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.Put(key, int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Unsynchronized: progress events must be serialized.
	var started, done, cached int
	var keys []string
	res, err := Run(context.Background(), Config{
		Parallelism: 8,
		Cache:       cache,
		Progress: func(ev Event) {
			keys = append(keys, ev.Key)
			if ev.Started {
				started++
				return
			}
			done++
			if ev.Cached {
				cached++
			}
			if ev.Done != done {
				t.Errorf("done event %d reports %d done", done, ev.Done)
			}
		},
	}, pts, func(p params, seed int64) (int64, error) {
		if index(p)%2 == 0 {
			return 0, errors.New("boom")
		}
		return seed, nil
	})
	if err == nil {
		t.Fatal("aggregate error missing")
	}
	if len(res) != 400 || done != 400 || started != 300 || cached != 100 || len(keys) != 700 {
		t.Fatalf("%d results, %d done, %d started, %d cached, %d events; want 400, 400, 300, 100, 700",
			len(res), done, started, cached, len(keys))
	}
}
