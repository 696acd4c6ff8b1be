package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/loadgen"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
	"github.com/jurysdn/jury/internal/wire"
)

// runLoad runs the scale campaign: it sweeps streaming-workload trigger
// rates against validation-plane shard widths on a Clos fat-tree fabric
// and prints one row per (rate, shards) point — detection-latency
// percentiles, false-positive rate, and partition_x (triggers divided by
// the most loaded shard's count: the measured balance of FNV ownership,
// not a throughput — `go run ./bench` measures the real service). The
// workload is synthesized lazily by internal/loadgen (heavy-tailed
// arrivals, host churn, link flaps), so host populations far beyond the
// fabric's physical ports cost nothing.
//
//	jury load -k 8 -rates 10000,100000,1000000 -shards 1,2,4,8 -window 200ms
//	jury load -smoke              # one brief point on a 1125-switch FatTree(30)
//	jury load -k 8 -hosts 16777216 -drop 0.001 -rates 50000 -shards 4
//	jury load -wire 127.0.0.1:9090 -codec binary -rates 50000   # stream to a live validator
//
// Every row is deterministic for a given -seed (wall-clock columns
// aside): the same campaign at -parallel 1 and -parallel 8 prints the
// same digests and verdict counts.
func runLoad(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	var (
		k        = fs.Int("k", 8, "fat-tree arity (even): 5k²/4 switches, k³/4 hosts")
		hosts    = fs.Uint64("hosts", 0, "virtual host population (0 = the fabric's physical k³/4; larger values wrap onto edge ports)")
		rates    = fs.String("rates", "10000,100000,1000000,4000000", "comma-separated trigger rates to sweep (flows/s of virtual time)")
		shards   = fs.String("shards", "1,2,4,8", "comma-separated validation-plane widths to sweep")
		window   = fs.Duration("window", 100*time.Millisecond, "virtual measurement window per point")
		replicas = fs.Int("replicas", 2, "tainted secondary executions per trigger (validator k)")
		timeout  = fs.Duration("timeout", 20*time.Millisecond, "per-trigger validation deadline")
		drop     = fs.Float64("drop", 0.001, "probability a trigger's primary response is lost (benign false-positive source; 0 disables)")
		join     = fs.Float64("churn-join", 200, "host-join rate (events/s)")
		leave    = fs.Float64("churn-leave", 150, "host-leave rate (events/s)")
		flap     = fs.Float64("flap", 20, "link-flap rate (events/s)")
		diurnal  = fs.Duration("diurnal", 0, "diurnal load period (0 disables modulation)")
		trough   = fs.Float64("trough", 0.1, "diurnal trough as a fraction of the peak rate")
		seed     = fs.Int64("seed", 42, "campaign root seed")
		parallel = fs.Int("parallel", 0, "sweep parallelism (0 = GOMAXPROCS; results identical at any width)")
		smoke    = fs.Bool("smoke", false, "run the 1k-switch smoke instead: one brief point on FatTree(30)")

		wireAt    = fs.String("wire", "", "stream the synthesized workload to a running jury serve at this address over the wire client instead of validating in-process (uses the first -rates point and -window)")
		codecName = fs.String("codec", "json", "wire codec for -wire: json (newline-delimited) or binary (length-prefixed frames)")

		seriesOut   = fs.String("series-out", "", "write per-point campaign time series (columnar JSONL) into this directory (empty = off)")
		seriesEvery = fs.Duration("series-every", 10*time.Millisecond, "virtual sampling period for -series-out")
		flightOut   = fs.String("flight-out", "", "write per-point flight dumps (JSONL) into this directory (empty = off)")
		flightRing  = fs.Int("flight-ring", 0, "per-shard flight-recorder capacity for -flight-out (0 = default ring)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	cfg := loadgen.CampaignConfig{
		K:           *k,
		Hosts:       *hosts,
		Window:      *window,
		Replicas:    *replicas,
		Timeout:     *timeout,
		DropRate:    *drop,
		Churn:       loadgen.ChurnSpec{JoinRate: *join, LeaveRate: *leave, FlapRate: *flap},
		Diurnal:     loadgen.DiurnalSpec{Period: *diurnal, Trough: *trough},
		RootSeed:    *seed,
		Parallelism: *parallel,
	}
	var err error
	if cfg.Rates, err = parseList(*rates, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }); err != nil {
		return usagef("-rates: %w", err)
	}
	if cfg.Shards, err = parseList(*shards, strconv.Atoi); err != nil {
		return usagef("-shards: %w", err)
	}
	if *smoke {
		cfg.K = 30
		cfg.Rates = []float64{10000}
		cfg.Shards = []int{4}
		cfg.Window = 20 * time.Millisecond
	}
	if *wireAt != "" {
		codec, err := wire.ParseCodec(*codecName)
		if err != nil {
			return usagef("-codec: %w", err)
		}
		return runWire(ctx, stdout, cfg, *wireAt, codec)
	}

	// Telemetry sinks: hooks run on sweep worker goroutines, so the
	// path books are mutex-guarded. Each point gets its own file, named
	// by its (rate, shards) identity.
	var (
		teleMu      sync.Mutex
		seriesPaths = map[loadgen.CampaignPoint]string{}
		flightPaths = map[loadgen.CampaignPoint]string{}
	)
	if *seriesOut != "" {
		if err := os.MkdirAll(*seriesOut, 0o755); err != nil {
			return fmt.Errorf("-series-out: %w", err)
		}
		cfg.SeriesEvery = *seriesEvery
		cfg.OnSeries = func(pt loadgen.CampaignPoint, seed int64, s *obs.Series) {
			path := filepath.Join(*seriesOut, pointFile("series", pt))
			if err := writeFile(path, s.WriteJSONL); err != nil {
				log.Printf("juryload: series %s: %v", path, err)
				return
			}
			teleMu.Lock()
			seriesPaths[pt] = path
			teleMu.Unlock()
		}
	}
	if *flightOut != "" {
		if err := os.MkdirAll(*flightOut, 0o755); err != nil {
			return fmt.Errorf("-flight-out: %w", err)
		}
		cfg.FlightRing = *flightRing
		if cfg.FlightRing == 0 {
			cfg.FlightRing = obs.DefaultFlightRing
		}
		cfg.OnFlightDump = func(pt loadgen.CampaignPoint, reason string, events []obs.Event) {
			// Later dumps overwrite earlier ones: the file always holds
			// the events leading up to the point's latest alarm.
			path := filepath.Join(*flightOut, pointFile("flight", pt))
			if err := writeFile(path, func(w io.Writer) error { return obs.WriteEventsJSONL(w, events) }); err != nil {
				log.Printf("juryload: flight dump %s (%s): %v", path, reason, err)
				return
			}
			teleMu.Lock()
			flightPaths[pt] = path
			teleMu.Unlock()
		}
	}

	switches := 5 * cfg.K * cfg.K / 4
	physHosts := cfg.K * cfg.K * cfg.K / 4
	pop := cfg.Hosts
	if pop == 0 {
		pop = uint64(physHosts)
	}
	fmt.Fprintf(stdout, "juryload: FatTree(%d) — %d switches, %d physical ports, %d virtual hosts; window %v, replicas %d, drop %g, seed %d\n\n",
		cfg.K, switches, physHosts, pop, cfg.Window, cfg.Replicas, cfg.DropRate, *seed)

	out, err := loadgen.RunCampaign(ctx, cfg)
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "rate\tshards\tevents\ttriggers\tdecided\tvalid\talarms\ttimeouts\tfp_pct\tp50\tp95\tp99\tpartition_x\twall\tdigest\tseries\tflight")
	teleMu.Lock()
	defer teleMu.Unlock()
	for _, o := range out {
		r := o.Result
		series, flight := "-", "-"
		if p, ok := seriesPaths[o.Point]; ok {
			series = p
		}
		if p, ok := flightPaths[o.Point]; ok {
			flight = p
		}
		fmt.Fprintf(w, "%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\t%v\t%v\t%v\t%.2f\t%v\t%016x\t%s\t%s\n",
			o.Point.Rate, o.Point.Shards, r.Events, r.Triggers, r.Decided, r.Valid,
			r.Faults, r.Timeouts, r.FPRate*100, r.P50, r.P95, r.P99,
			r.PartitionX, o.Elapsed.Round(time.Millisecond), r.Digest, series, flight)
	}
	return w.Flush()
}

// runWire streams one synthesized workload window to a remote juryd over
// the resilient wire client, through the event-to-response mapping the
// in-process campaign uses (loadgen.AppendResponses). It reports the
// client's own loss accounting alongside the server's aggregate stats, so
// a codec or throughput regression on the wire path is visible end to end.
func runWire(ctx context.Context, stdout io.Writer, cfg loadgen.CampaignConfig, addr string, codec wire.Codec) error {
	top, err := topo.FatTree(cfg.K)
	if err != nil {
		return err
	}
	hosts := cfg.Hosts
	if hosts == 0 {
		hosts = uint64(top.NumHosts())
	}
	links := top.Links()
	rate := cfg.Rates[0]
	src, err := loadgen.NewSource(loadgen.Config{
		Hosts:    hosts,
		Links:    len(links),
		MeanRate: rate,
		Diurnal:  cfg.Diurnal,
		Churn:    cfg.Churn,
		Seed:     cfg.RootSeed,
	})
	if err != nil {
		return err
	}

	n := cfg.Replicas + 1
	members := make([]store.NodeID, n)
	for i := range members {
		members[i] = store.NodeID(i + 1)
	}
	var (
		statsMu sync.Mutex
		stats   *wire.Stats
		results int64
	)
	c, err := wire.DialConfig(addr, wire.ClientConfig{
		Codec:     codec,
		QueueSize: 1 << 16,
		OnResult:  func(core.Result) { statsMu.Lock(); results++; statsMu.Unlock() },
		OnStats:   func(st wire.Stats) { statsMu.Lock(); stats = &st; statsMu.Unlock() },
	})
	if err != nil {
		return fmt.Errorf("wire sink: %w", err)
	}
	defer c.Close()

	drop := rand.New(rand.NewSource(cfg.RootSeed + 1))
	fmt.Fprintf(stdout, "juryload: streaming FatTree(%d) workload to %s (codec=%s, rate=%.0f/s, window=%v, replicas=%d)\n",
		cfg.K, addr, codec, rate, cfg.Window, cfg.Replicas)
	start := time.Now() //jurylint:allow wallclock -- wire throughput is measured in wall time
	var events, envelopes, triggers int64
	var batch []core.Response
	var sendErr error
	for sendErr == nil {
		ev := src.Next()
		if ev.At > cfg.Window {
			break
		}
		events++
		var tid trigger.ID
		keep := true
		if ev.Kind == loadgen.FlowArrival {
			triggers++
			tid = trigger.ID(fmt.Sprintf("w-%d", triggers))
			keep = cfg.DropRate <= 0 || drop.Float64() >= cfg.DropRate
		}
		batch = loadgen.AppendResponses(batch[:0], ev, members, links, tid, keep)
		for _, r := range batch {
			envelopes++
			if sendErr == nil {
				sendErr = c.Send(r)
			}
		}
	}
	if sendErr != nil {
		return fmt.Errorf("send: %w", sendErr)
	}
	// Drain the bounded queue before measuring: what remains unsent past
	// the deadline is loss, and loss is visible on Dropped().
	waitUntil(ctx, 30*time.Second, func() bool { return c.Backlog() == 0 })
	elapsed := time.Since(start) //jurylint:allow wallclock -- wire throughput is measured in wall time
	if err := c.RequestStats(); err != nil {
		log.Printf("juryload: stats request: %v", err)
	}
	waitUntil(ctx, 3*time.Second, func() bool {
		statsMu.Lock()
		defer statsMu.Unlock()
		return stats != nil
	})

	perSec := float64(envelopes) / elapsed.Seconds()
	fmt.Fprintf(stdout, "juryload: %d events -> %d envelopes in %v wall (%.0f envelopes/s)\n",
		events, envelopes, elapsed.Round(time.Millisecond), perSec)
	fmt.Fprintf(stdout, "juryload: wire client: dropped=%d reconnects=%d backlog=%d\n",
		c.Dropped(), c.Reconnects(), c.Backlog())
	statsMu.Lock()
	defer statsMu.Unlock()
	if stats != nil {
		fmt.Fprintf(stdout, "juryload: server: %s (results pushed here: %d)\n", statsLine(*stats), results)
	} else {
		fmt.Fprintln(stdout, "juryload: no stats reply (validator unreachable?)")
	}
	return nil
}

// pointFile names a point's telemetry file by its parameter identity.
func pointFile(kind string, pt loadgen.CampaignPoint) string {
	return fmt.Sprintf("%s-rate%.0f-shards%d.jsonl", kind, pt.Rate, pt.Shards)
}
