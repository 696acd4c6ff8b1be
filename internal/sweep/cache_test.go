package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

func TestCacheRoundTrip(t *testing.T) {
	c, err := NewCache(filepath.Join(t.TempDir(), "cache"), "v1")
	if err != nil {
		t.Fatal(err)
	}
	var out int64
	hit, err := c.Get(`{"k":1}`, &out)
	if err != nil || hit {
		t.Fatalf("empty cache: hit=%v err=%v", hit, err)
	}
	if err := c.Put(`{"k":1}`, int64(99)); err != nil {
		t.Fatal(err)
	}
	hit, err = c.Get(`{"k":1}`, &out)
	if err != nil || !hit || out != 99 {
		t.Fatalf("round trip: hit=%v out=%d err=%v", hit, out, err)
	}
	if n, err := cacheLen(c); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

func TestCacheSaltInvalidates(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("key", 1); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(dir, "v2")
	if err != nil {
		t.Fatal(err)
	}
	var out int
	hit, err := c2.Get("key", &out)
	if err != nil || hit {
		t.Fatalf("salted-out entry served: hit=%v err=%v", hit, err)
	}
}

func TestCacheCorruptEntrySurfaces(t *testing.T) {
	c, err := NewCache(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path("key"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out int
	if _, err := c.Get("key", &out); err == nil {
		t.Fatal("corrupt entry did not surface")
	}
}

func TestCacheMismatchedEntrySurfaces(t *testing.T) {
	c, err := NewCache(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	// A file at key A's path claiming to be key B (hash collision or
	// hand-edit) must error, not silently serve B's value.
	if err := c.Put("other", 7); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(c.path("other"), c.path("key")); err != nil {
		t.Fatal(err)
	}
	var out int
	if _, err := c.Get("key", &out); err == nil {
		t.Fatal("mismatched entry did not surface")
	}
}

func TestSweepResumesFromWarmCache(t *testing.T) {
	cache, err := NewCache(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	pts := grid(9)
	var executions atomic.Int64
	runner := func(_ params, seed int64) (int64, error) {
		executions.Add(1)
		return seed, nil
	}
	cfg := Config{RootSeed: 5, Parallelism: 3, Cache: cache}
	cold, err := Run(context.Background(), cfg, pts, runner)
	if err != nil {
		t.Fatal(err)
	}
	if n := executions.Load(); n != 9 {
		t.Fatalf("cold run executed %d points", n)
	}
	warm, err := Run(context.Background(), cfg, pts, runner)
	if err != nil {
		t.Fatal(err)
	}
	if n := executions.Load(); n != 9 {
		t.Fatalf("warm run re-executed: %d total executions", n)
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Fatalf("point %d not served from cache", i)
		}
		if warm[i].Value != cold[i].Value {
			t.Fatalf("point %d cache changed value: %d vs %d", i, warm[i].Value, cold[i].Value)
		}
	}
}

func TestSweepResumesAfterInterruption(t *testing.T) {
	cache, err := NewCache(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	pts := grid(10)
	// The first campaign is interrupted while point 6 runs, the way a
	// signal cancels `jury fig`: the point sees its context end and
	// fails, and the rest never start.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = Run(ctx,
		Config{RootSeed: 5, Parallelism: 1, Cache: cache}, pts,
		func(p params, seed int64) (int64, error) {
			if index(p) == 6 {
				cancel()
				return 0, ctx.Err()
			}
			return seed, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first campaign: %v", err)
	}
	if n, err := cacheLen(cache); err != nil || n != 6 {
		t.Fatalf("cache holds %d entries after interruption (err=%v), want 6", n, err)
	}
	// Resume: only the interrupted point and the never-started tail
	// execute.
	var executions atomic.Int64
	res, err := Run(context.Background(),
		Config{RootSeed: 5, Parallelism: 1, Cache: cache}, pts,
		func(_ params, seed int64) (int64, error) {
			executions.Add(1)
			return seed, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n := executions.Load(); n != 4 {
		t.Fatalf("resume executed %d points, want 4", n)
	}
	for i, r := range res {
		if r.Value != r.Point.Seed {
			t.Fatalf("point %d value %d != seed %d", i, r.Value, r.Point.Seed)
		}
		if wantCached := i < 6; r.Cached != wantCached {
			t.Fatalf("point %d cached=%v, want %v", i, r.Cached, wantCached)
		}
	}
}

func TestNewCacheValidation(t *testing.T) {
	if _, err := NewCache("", "v1"); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// cacheLen counts the entries on disk.
func cacheLen(c *Cache) (int, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}
