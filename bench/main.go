// Command bench is the repository's end-to-end benchmark: it drives a
// real in-process validator service (jury.ServeValidator on 127.0.0.1:0)
// through one wire.Client over TCP loopback — not a real link — with a
// seeded closed loop, checks every verdict against the generator's
// expectation, and prints one JSON result line. A fifth workload runs the
// full simulated pipeline instead. BENCHMARK.json registers it; README.md
// in this directory explains every workload and metric.
//
// Usage (the contract's flags; -workload all runs every workload):
//
//	go run ./bench -workload light3-bin-w64 -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// records spans around every call the bench makes into a layer, writes
// them to bench/out/trace-<workload>.jsonl, replays the same seeded
// response stream into each layer alone and prints the per-layer set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value. Durations are plain floats in the unit
// named beside them, never time.Duration fields.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one line a run prints on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the contract's flags.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks the warm-up counts and replay sizes; only the test
	// sets it below 1 so `go test` stays fast.
	scale float64
	// outDir receives the trace file.
	outDir string
	// started is when the run's first set-up began: process start for
	// the first workload of a process.
	started time.Time
}

// processStart anchors the first set-up of a run at process start, so
// setup_s includes listener, dial and table building from a cold process.
var processStart = time.Now()

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measure window")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	log.Printf("seed=%d seconds=%g trace=%d cpus=%d gomaxprocs=%d %s transport=tcp-loopback (in-process server, not a real link)",
		*seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, sp := range workloads {
			names = append(names, sp.name)
		}
	}
	if *seconds <= 0 {
		log.Fatalf("-seconds must be positive")
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, outDir: filepath.Join("bench", "out"), started: processStart}
	enc := json.NewEncoder(os.Stdout)
	for _, name := range names {
		res, err := run(name, opt)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if err := enc.Encode(res); err != nil {
			log.Fatalf("%s: write result: %v", name, err)
		}
		// A few wrong or missing verdicts are reported through failed and
		// correct; more than 1% of them makes the run unusable.
		if res.Failed*100 > res.Attempted {
			log.Fatalf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
		}
		opt.started = time.Now()
	}
}

// run executes one workload and returns its result line. An error means
// the run is unusable (cannot listen or dial, no verdicts, a reconnect
// inside the measure window).
func run(name string, opt options) (result, error) {
	sp, ok := workloadByName(name)
	if !ok {
		return result{}, fmt.Errorf("unknown workload")
	}
	var (
		res result
		err error
	)
	if sp.sim {
		res, err = runSim(sp, opt)
	} else {
		res, err = runWire(sp, opt)
	}
	if err != nil {
		return result{}, err
	}
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("no operation attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// repeatSetUp runs setUp three times (once in a traced run, which reports
// no setup_s), hands every result but the last to discard, and returns
// the last with the seconds each set-up took; setup_s is their median.
// The first set-up is timed from opt.started.
func repeatSetUp[T any](opt options, setUp func() (T, error), discard func(T)) (last T, seconds []float64, err error) {
	n := 3
	if opt.trace {
		n = 1
	}
	start := opt.started
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
			start = time.Now()
		}
		if last, err = setUp(); err != nil {
			return last, nil, err
		}
		seconds = append(seconds, time.Since(start).Seconds())
	}
	return last, seconds, nil
}
