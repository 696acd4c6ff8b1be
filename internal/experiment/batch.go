package experiment

import (
	"context"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/sweep"
)

// SchemaVersion salts the sweep result cache for every batch entry
// point. Bump it whenever a change anywhere in the simulation or in the
// result schema makes previously cached figures stale — old entries are
// then orphaned instead of being served.
const SchemaVersion = "jury-experiment-v1"

// BatchOptions parameterizes a campaign of independent experiment runs.
// Every batch entry point fans its points across a bounded worker pool
// (internal/sweep); each point's seed is derived from RootSeed and the
// point's canonical key, so results are bit-identical at any
// Parallelism. The Seed field of individual point configs is ignored in
// batch mode — leave it zero.
type BatchOptions struct {
	// RootSeed is the campaign seed every point seed derives from.
	RootSeed int64
	// Parallelism bounds concurrent simulations; 0 means
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// FailFast cancels the campaign on the first point error.
	FailFast bool
	// Cache, when non-nil, makes the campaign resumable: completed
	// points are served from disk.
	Cache *sweep.Cache
	// Progress receives serialized progress events.
	Progress sweep.ProgressFunc
}

func (o BatchOptions) config() sweep.Config {
	return sweep.Config{
		RootSeed:    o.RootSeed,
		Parallelism: o.Parallelism,
		FailFast:    o.FailFast,
		Cache:       o.Cache,
		Progress:    o.Progress,
	}
}

// runBatch adapts a (config, seed) experiment runner to a sweep.
func runBatch[P, R any](ctx context.Context, cfgs []P, opt BatchOptions, run func(P, int64) (R, error)) ([]sweep.Result[P, R], error) {
	return sweep.Run(ctx, opt.config(), cfgs, func(_ context.Context, pt sweep.Point[P]) (R, error) {
		return run(pt.Params, pt.Seed)
	})
}

// DetectionBatch runs detection-time experiments (Figs. 4a-4d) as a
// parallel campaign.
func DetectionBatch(ctx context.Context, cfgs []DetectionConfig, opt BatchOptions) ([]sweep.Result[DetectionConfig, *DetectionResult], error) {
	return runBatch(ctx, cfgs, opt, func(cfg DetectionConfig, seed int64) (*DetectionResult, error) {
		cfg.Seed = seed
		return Detection(cfg)
	})
}

// ThroughputConfig parameterizes one Throughput point (Figs. 4f-4h) for
// batch runs.
type ThroughputConfig struct {
	Kind jury.ControllerKind
	N    int
	// JuryK < 0 disables JURY (vanilla baseline).
	JuryK    int
	Offered  float64
	Duration time.Duration
}

// ThroughputBatch runs throughput points as a parallel campaign.
func ThroughputBatch(ctx context.Context, cfgs []ThroughputConfig, opt BatchOptions) ([]sweep.Result[ThroughputConfig, ThroughputPoint], error) {
	return runBatch(ctx, cfgs, opt, func(cfg ThroughputConfig, seed int64) (ThroughputPoint, error) {
		return Throughput(cfg.Kind, cfg.N, cfg.JuryK, cfg.Offered, cfg.Duration, seed)
	})
}

// CbenchConfig parameterizes one Cbench overload run (Fig. 4e) for
// batch runs.
type CbenchConfig struct {
	Burst    int
	Duration time.Duration
}

// CbenchBatch runs Cbench points as a parallel campaign.
func CbenchBatch(ctx context.Context, cfgs []CbenchConfig, opt BatchOptions) ([]sweep.Result[CbenchConfig, *CbenchResult], error) {
	return runBatch(ctx, cfgs, opt, func(cfg CbenchConfig, seed int64) (*CbenchResult, error) {
		return Cbench(cfg.Burst, cfg.Duration, seed)
	})
}

// DecapsulationConfig parameterizes one decapsulation-overhead run
// (Fig. 4i) for batch runs.
type DecapsulationConfig struct {
	Rate     float64
	Duration time.Duration
}

// DecapsulationBatch runs decapsulation points as a parallel campaign.
func DecapsulationBatch(ctx context.Context, cfgs []DecapsulationConfig, opt BatchOptions) ([]sweep.Result[DecapsulationConfig, obs.Snapshot], error) {
	return runBatch(ctx, cfgs, opt, func(cfg DecapsulationConfig, seed int64) (obs.Snapshot, error) {
		return Decapsulation(cfg.Rate, cfg.Duration, seed)
	})
}
