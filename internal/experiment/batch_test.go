package experiment

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/sweep"
)

func quickDetectionGrid() []DetectionConfig {
	var cfgs []DetectionConfig
	for _, k := range []int{1, 2} {
		cfgs = append(cfgs, DetectionConfig{
			Kind: jury.ONOS, N: 3, K: k,
			BaseRate: 100, PeakRate: 200,
			Duration: 2 * time.Second,
		})
	}
	return cfgs
}

// TestBatchDeterministicAcrossParallelism is the determinism regression
// test for the orchestration subsystem: the same campaign executed
// sequentially and on an 8-wide pool must produce byte-identical encoded
// results, because every point's seed is derived from the root seed and
// the point key, never from scheduling.
func TestBatchDeterministicAcrossParallelism(t *testing.T) {
	cfgs := quickDetectionGrid()
	encode := func(parallelism int) []byte {
		res, err := DetectionBatch(context.Background(), cfgs,
			sweep.Config{RootSeed: 7, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := encode(1)
	par := encode(8)
	if string(seq) != string(par) {
		t.Fatalf("Parallelism=1 and Parallelism=8 diverged:\nseq: %.200s...\npar: %.200s...", seq, par)
	}
}

// TestBatchWarmCacheMatchesCold pins the cache round trip for real
// experiment results: a warm resume must serve every point from disk and
// encode identically to the cold run (Distribution survives JSON).
func TestBatchWarmCacheMatchesCold(t *testing.T) {
	cache, err := sweep.NewCache(filepath.Join(t.TempDir(), "figcache"), SchemaVersion)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := quickDetectionGrid()[:1]
	opt := sweep.Config{RootSeed: 7, Parallelism: 2, Cache: cache}
	cold, err := DetectionBatch(context.Background(), cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cold[0].Cached {
		t.Fatal("cold run served from cache")
	}
	warm, err := DetectionBatch(context.Background(), cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm[0].Cached {
		t.Fatal("warm run not served from cache")
	}
	cb, _ := json.Marshal(cold[0].Value)
	wb, _ := json.Marshal(warm[0].Value)
	if string(cb) != string(wb) {
		t.Fatalf("cache round trip changed the result:\ncold: %.200s...\nwarm: %.200s...", cb, wb)
	}
	if warm[0].Value.Detections.Count() != cold[0].Value.Detections.Count() {
		t.Fatal("detection distribution lost samples through the cache")
	}
}

// TestThroughputBatchMatchesDirect ensures batch orchestration runs the
// same simulation as the direct entry point given the same seed.
func TestThroughputBatchMatchesDirect(t *testing.T) {
	cfgs := []ThroughputConfig{{Kind: jury.ONOS, N: 3, JuryK: -1, Offered: 500, Duration: 2 * time.Second}}
	res, err := ThroughputBatch(context.Background(), cfgs, sweep.Config{RootSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Throughput(jury.ONOS, 3, -1, 500, 2*time.Second, res[0].Point.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value != direct {
		t.Fatalf("batch %+v != direct %+v", res[0].Value, direct)
	}
}
