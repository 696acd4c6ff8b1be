package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/experiment"
	"github.com/jurysdn/jury/internal/policy"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/sweep"
	"github.com/jurysdn/jury/internal/trigger"
)

// figOpts is what every figure campaign of one run shares: where the TSV
// goes, the sweep configuration and the virtual duration per run.
type figOpts struct {
	out   io.Writer
	sweep sweep.Config
	dur   time.Duration
}

// figures lists every figure in the order -all regenerates them.
var figures = []struct {
	name string
	run  func(context.Context, figOpts) error
}{
	{"4a", fig4a}, {"4b", fig4b}, {"4c", fig4c}, {"4d", fig4d}, {"4e", fig4e},
	{"4f", fig4f}, {"4g", fig4g}, {"4h", fig4h}, {"4i", fig4i},
	{"policy", policyTable},
}

// runFig regenerates every figure of the paper's evaluation (§VII, Figs.
// 4a-4i) plus the policy-validation table, printing each as a
// tab-separated series ready for plotting. Use -fig to regenerate a
// single figure, or -all for the complete set (several minutes of
// simulation).
//
// Figure campaigns fan their points across a bounded worker pool
// (internal/sweep). Each point's seed is derived from -seed and the
// point's parameters, so output is bit-identical at any -parallel width.
// With -cache, completed points are stored on disk and reruns resume
// from where they stopped; delete the directory (or bump
// experiment.SchemaVersion) to invalidate. -progress reports per-point
// completion and an ETA on stderr, leaving stdout clean TSV.
//
//	jury fig -fig 4a
//	jury fig -all -progress -cache .jurycache > figures.tsv
func runFig(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fig", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "", "figure to regenerate: 4a 4b 4c 4d 4e 4f 4g 4h 4i policy")
		all      = fs.Bool("all", false, "regenerate every figure")
		dur      = fs.Duration("duration", 12*time.Second, "virtual duration per run")
		seed     = fs.Int64("seed", 7, "root seed; every point's seed derives from it and the point's parameters")
		parallel = fs.Int("parallel", 0, "concurrent simulations per figure (0 = GOMAXPROCS)")
		progress = fs.Bool("progress", false, "report per-point progress and ETA on stderr")
		cacheDir = fs.String("cache", "", "cache completed points in this directory and resume from it on rerun")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	o := figOpts{out: stdout, dur: *dur, sweep: sweep.Config{RootSeed: *seed, Parallelism: *parallel}}
	if *progress {
		o.sweep.Progress = func(ev sweep.Event) { fmt.Fprintln(os.Stderr, progressLine(ev)) }
	}
	if *cacheDir != "" {
		cache, err := sweep.NewCache(*cacheDir, experiment.SchemaVersion)
		if err != nil {
			return err
		}
		o.sweep.Cache = cache
	}

	if *all {
		for _, f := range figures {
			if err := f.run(ctx, o); err != nil {
				return fmt.Errorf("fig %s: %w", f.name, err)
			}
		}
		return nil
	}
	var names []string
	for _, f := range figures {
		if f.name == strings.ToLower(*fig) {
			return f.run(ctx, o)
		}
		names = append(names, f.name)
	}
	return usagef("unknown figure %q (choose from %s)", *fig, strings.Join(names, " "))
}

// progressLine formats a sweep event for -progress (on stderr, so stdout
// stays clean TSV); a done line ends with the ETA if it rounds to >= 1s.
func progressLine(ev sweep.Event) string {
	if ev.Started {
		return "juryfig: run " + ev.Key
	}
	status := "done"
	switch {
	case ev.Err != nil:
		status = "FAILED"
	case ev.Cached:
		status = "cached"
	}
	line := fmt.Sprintf("juryfig: [%d/%d] %s %s", ev.Done, ev.Total, status, ev.Key)
	if eta := ev.ETA.Round(time.Second); eta > 0 {
		line += fmt.Sprintf(" (eta %s)", eta)
	}
	return line
}

// kmPairs are the (k, m) series of the ONOS and ODL detection CDFs.
var kmPairs = []struct{ k, m int }{{2, 0}, {4, 0}, {6, 0}, {6, 2}}

func kmLabel(c experiment.DetectionConfig) string { return fmt.Sprintf("k=%d,m=%d", c.K, c.M) }

// detectionFig runs one detection campaign and prints each point's
// detection-time CDF under its label; a benign-trace point adds its
// false-positive rate.
func detectionFig(ctx context.Context, o figOpts, title string, cfgs []experiment.DetectionConfig, label func(experiment.DetectionConfig) string) error {
	fmt.Fprintln(o.out, title)
	res, err := sweep.Run(ctx, o.sweep, cfgs, func(c experiment.DetectionConfig, seed int64) (*experiment.DetectionResult, error) {
		c.Seed = seed
		return experiment.Detection(c)
	})
	if err != nil {
		return err
	}
	for _, r := range res {
		for _, p := range r.Value.Detections.CDF(25) {
			fmt.Fprintf(o.out, "%s\t%.3f\t%.3f\n", label(r.Point.Params), float64(p.Value)/float64(time.Millisecond), p.Fraction)
		}
		if r.Point.Params.Trace != "" {
			fmt.Fprintf(o.out, "# %s: decided=%d false-positive rate=%.3f%%\n",
				r.Point.Params.Trace, r.Value.Decided, r.Value.FPRate*100)
		}
	}
	return nil
}

func fig4a(ctx context.Context, o figOpts) error {
	var cfgs []experiment.DetectionConfig
	for _, c := range kmPairs {
		cfgs = append(cfgs, experiment.DetectionConfig{
			Kind: jury.ONOS, K: c.k, M: c.m,
			BaseRate: 1500, PeakRate: 5500,
			Duration: o.dur,
		})
	}
	return detectionFig(ctx, o, "# Fig 4a: ONOS detection-time CDFs (series\tms\tfraction)", cfgs, kmLabel)
}

func fig4b(ctx context.Context, o figOpts) error {
	var cfgs []experiment.DetectionConfig
	for _, rate := range []float64{500, 3000, 5500} {
		cfgs = append(cfgs, experiment.DetectionConfig{
			Kind: jury.ONOS, K: 6,
			BaseRate: rate, PeakRate: rate,
			Duration: o.dur,
		})
	}
	return detectionFig(ctx, o, "# Fig 4b: ONOS detection-time CDFs by PACKET_IN rate, k=6 m=0", cfgs,
		func(c experiment.DetectionConfig) string { return fmt.Sprintf("%.0f/s", c.BaseRate) })
}

func fig4c(ctx context.Context, o figOpts) error {
	var cfgs []experiment.DetectionConfig
	for _, c := range kmPairs {
		cfgs = append(cfgs, experiment.DetectionConfig{
			Kind: jury.ODL, K: c.k, M: c.m,
			BaseRate: 120, PeakRate: 120,
			Timeout:  5 * time.Second,
			Duration: o.dur,
		})
	}
	return detectionFig(ctx, o, "# Fig 4c: ODL detection-time CDFs", cfgs, kmLabel)
}

func fig4d(ctx context.Context, o figOpts) error {
	var cfgs []experiment.DetectionConfig
	for _, name := range []string{"LBNL", "UNIV", "SMIA"} {
		cfgs = append(cfgs, experiment.DetectionConfig{
			Kind: jury.ONOS, K: 6, M: 2,
			Trace:    name,
			Timeout:  130 * time.Millisecond,
			Duration: o.dur,
		})
	}
	return detectionFig(ctx, o, "# Fig 4d: ONOS detection times on benign traces, k=6 m=2 (+false-positive rate)", cfgs,
		func(c experiment.DetectionConfig) string { return c.Trace })
}

func fig4e(ctx context.Context, o figOpts) error {
	fmt.Fprintln(o.out, "# Fig 4e: Cbench bursts overwhelm the controller (second\tpacketin/s\tflowmod/s)")
	res, err := sweep.Run(ctx, o.sweep,
		[]experiment.CbenchConfig{{Burst: 12000, Duration: 20 * time.Second}}, experiment.Cbench)
	if err != nil {
		return err
	}
	r := res[0].Value
	for i := range r.Seconds {
		fmt.Fprintf(o.out, "%d\t%.0f\t%.0f\n", r.Seconds[i], r.PacketIns[i], r.FlowMods[i])
	}
	return nil
}

func throughputFig(ctx context.Context, o figOpts, kind jury.ControllerKind, rates []float64) error {
	var cfgs []experiment.ThroughputConfig
	for _, n := range []int{1, 3, 5, 7} {
		for _, rate := range rates {
			cfgs = append(cfgs, experiment.ThroughputConfig{
				Kind: kind, N: n, JuryK: -1, Offered: rate, Duration: o.dur,
			})
		}
	}
	res, err := sweep.Run(ctx, o.sweep, cfgs, experiment.Throughput)
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Fprintf(o.out, "n=%d\t%.0f\t%.0f\t%.0f\n",
			r.Point.Params.N, r.Point.Params.Offered, r.Value.PacketIns, r.Value.FlowMods)
	}
	return nil
}

func fig4f(ctx context.Context, o figOpts) error {
	fmt.Fprintln(o.out, "# Fig 4f: vanilla ONOS (series\toffered\tpacketin/s\tflowmod/s)")
	return throughputFig(ctx, o, jury.ONOS, []float64{1000, 3000, 5000, 7500, 10000})
}

func fig4g(ctx context.Context, o figOpts) error {
	fmt.Fprintln(o.out, "# Fig 4g: vanilla ODL (series\toffered\tpacketin/s\tflowmod/s)")
	return throughputFig(ctx, o, jury.ODL, []float64{200, 400, 600, 800, 1000})
}

func fig4h(ctx context.Context, o figOpts) error {
	fmt.Fprintln(o.out, "# Fig 4h: JURY-enhanced ONOS, n=7 (series\toffered\tflowmod/s)")
	var cfgs []experiment.ThroughputConfig
	for _, k := range []int{-1, 2, 4, 6} {
		for _, rate := range []float64{2000, 4000, 6000, 8000, 10000} {
			cfgs = append(cfgs, experiment.ThroughputConfig{
				Kind: jury.ONOS, N: 7, JuryK: k, Offered: rate, Duration: o.dur,
			})
		}
	}
	res, err := sweep.Run(ctx, o.sweep, cfgs, experiment.Throughput)
	if err != nil {
		return err
	}
	for _, r := range res {
		label := "vanilla"
		if k := r.Point.Params.JuryK; k >= 0 {
			label = fmt.Sprintf("jury k=%d", k)
		}
		fmt.Fprintf(o.out, "%s\t%.0f\t%.0f\n", label, r.Point.Params.Offered, r.Value.FlowMods)
	}
	return nil
}

func fig4i(ctx context.Context, o figOpts) error {
	fmt.Fprintln(o.out, "# Fig 4i: ODL decapsulation overhead CDF (series\tµs\tfraction)")
	var cfgs []experiment.DecapsulationConfig
	for _, rate := range []float64{100, 200, 300, 400, 500} {
		cfgs = append(cfgs, experiment.DecapsulationConfig{Rate: rate, Duration: o.dur})
	}
	res, err := sweep.Run(ctx, o.sweep, cfgs, experiment.Decapsulation)
	if err != nil {
		return err
	}
	for _, r := range res {
		for _, p := range r.Value.CDF(25) {
			fmt.Fprintf(o.out, "%.0f/s\t%.1f\t%.3f\n",
				r.Point.Params.Rate, float64(p.Value)/float64(time.Microsecond), p.Fraction)
		}
	}
	return nil
}

// policyTable stays a direct wall-clock micro-measurement: it times the
// policy engines on this machine rather than running a simulation, so
// there is nothing to seed or cache.
func policyTable(_ context.Context, o figOpts) error {
	fmt.Fprintln(o.out, "# Policy validation cost (§VII-B2(3)): policies\tlinear-scan\tindexed")
	for _, n := range []int{100, 1000, 10000} {
		linear, indexed, err := policyCost(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.out, "%d\t%v\t%v\n", n, linear, indexed)
	}
	return nil
}

// policyCost measures the wall-clock cost of validating one response
// against n policies with the linear and indexed engines. It is the one
// deliberate microbenchmark in the figure pipeline: §VII-B2(3) reports
// real CPU time per policy check, so there is no virtual clock to use.
func policyCost(n int) (linear, indexed time.Duration, err error) {
	policies := syntheticPolicies(n)
	lin, err := policy.New(policies)
	if err != nil {
		return 0, 0, err
	}
	idx, err := policy.NewIndexed(policies)
	if err != nil {
		return 0, 0, err
	}
	in := policy.Input{
		Kind:  trigger.External,
		Cache: store.FlowsDB,
		Op:    store.OpCreate,
		Key:   "of:0000000000000001/abc",
		Value: `{"dpid":1}`,
	}
	const reps = 200
	start := time.Now()
	for i := 0; i < reps; i++ {
		lin.Check(in)
	}
	linear = time.Since(start) / reps
	start = time.Now()
	for i := 0; i < reps; i++ {
		idx.Check(in)
	}
	indexed = time.Since(start) / reps
	return linear, indexed, nil
}

// syntheticPolicies builds the simulated policy sets of §VII-B2(3): none
// match the probe response, so the whole set is scanned.
func syntheticPolicies(n int) []policy.Policy {
	caches := []string{"LinksDB", "EdgesDB", "HostDB", "ArpDB"}
	ops := []string{"create", "update", "delete"}
	out := make([]policy.Policy, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, policy.Policy{
			Name:       fmt.Sprintf("p%d", i),
			Controller: fmt.Sprintf("%d", i%7+1),
			Cache:      caches[i%len(caches)],
			Operation:  ops[i%len(ops)],
			Entry:      fmt.Sprintf("10.%d.*,*", i%250),
		})
	}
	return out
}
