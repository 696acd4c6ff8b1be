package experiment

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/sweep"
)

// detect is the campaign runner of a detection point: the point's sweep
// seed becomes its Seed.
func detect(cfg DetectionConfig, seed int64) (*DetectionResult, error) {
	cfg.Seed = seed
	return Detection(cfg)
}

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
		res, err := sweep.Run(context.Background(),
			sweep.Config{RootSeed: 7, Parallelism: parallelism}, cfgs, detect)
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
	cold, err := sweep.Run(context.Background(), opt, cfgs, detect)
	if err != nil {
		t.Fatal(err)
	}
	if cold[0].Cached {
		t.Fatal("cold run served from cache")
	}
	warm, err := sweep.Run(context.Background(), opt, cfgs, detect)
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

// TestThroughputBatchMatchesDirect ensures a campaign runs the same
// simulation as the direct entry point given the same seed.
func TestThroughputBatchMatchesDirect(t *testing.T) {
	cfgs := []ThroughputConfig{{Kind: jury.ONOS, N: 3, JuryK: -1, Offered: 500, Duration: 2 * time.Second}}
	res, err := sweep.Run(context.Background(), sweep.Config{RootSeed: 42}, cfgs, Throughput)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Throughput(cfgs[0], res[0].Point.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value != direct {
		t.Fatalf("batch %+v != direct %+v", res[0].Value, direct)
	}
}

// TestPointKeysPinned holds, for one figure point of each point type,
// the sweep key, the point seed under jury fig's default root seed and
// the cache file name under SchemaVersion, all as the figures have
// always had them. Adding, renaming or reordering a field of a config
// struct, or changing the salt, fails here: it would re-seed every
// figure and orphan every cached point.
func TestPointKeysPinned(t *testing.T) {
	for _, tc := range []struct {
		point any
		key   string
		seed  int64
		file  string
	}{
		{
			DetectionConfig{Kind: jury.ONOS, K: 6, M: 2, Trace: "UNIV", Timeout: 130 * time.Millisecond, Duration: 12 * time.Second},
			`{"Kind":1,"N":0,"K":6,"M":2,"BaseRate":0,"PeakRate":0,"Trace":"UNIV","Timeout":130000000,"Duration":12000000000,"Seed":0}`,
			-7920868821999138501,
			"2b036b2da34119ef4200cba9247103380096d565d4cfd7793cf99f64e9ea7d5e.json",
		},
		{
			ThroughputConfig{Kind: jury.ONOS, N: 7, JuryK: 2, Offered: 4000, Duration: 12 * time.Second},
			`{"Kind":1,"N":7,"JuryK":2,"Offered":4000,"Duration":12000000000}`,
			6364415656869935879,
			"62d0c3891d300c484ce37d745ab52aa0618bf47e637654f2fbdfbefa00a1f3b2.json",
		},
		{
			CbenchConfig{Burst: 12000, Duration: 20 * time.Second},
			`{"Burst":12000,"Duration":20000000000}`,
			-480596053414523767,
			"8719deb04fa06f6299034cb9d2140b3c7848e3106234ce24a669149c709ba4bd.json",
		},
		{
			DecapsulationConfig{Rate: 300, Duration: 12 * time.Second},
			`{"Rate":300,"Duration":12000000000}`,
			-5989030656400091662,
			"e5afa6bfa573b3be0ed379195e3ea2ccaa3567431df31bb1fa163e8a01ce3807.json",
		},
	} {
		key, err := sweep.PointKey(tc.point)
		if err != nil {
			t.Fatal(err)
		}
		if key != tc.key {
			t.Errorf("%T key = %s, want %s", tc.point, key, tc.key)
			continue
		}
		if seed := sweep.DeriveSeed(7, key); seed != tc.seed {
			t.Errorf("%T seed = %d, want %d", tc.point, seed, tc.seed)
		}
		dir := t.TempDir()
		cache, err := sweep.NewCache(dir, SchemaVersion)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.Put(key, 1); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != tc.file {
			t.Errorf("%T cache file = %v, want %s", tc.point, entries, tc.file)
		}
	}
}
