// Command juryload runs the scale campaign: it sweeps streaming-workload
// trigger rates against validation-plane shard widths on a Clos
// fat-tree fabric and prints one row per (rate, shards) point —
// detection-latency percentiles, false-positive rate, and two modeled
// columns (partition_x_modeled, submit_per_s_modeled: how evenly FNV
// divides triggers, and the wall rate scaled by it — a model of a
// many-core deployment, not a measurement; `go run ./bench` measures the
// real service). The workload is synthesized lazily by
// internal/loadgen (heavy-tailed arrivals, host churn, link flaps), so
// host populations far beyond the fabric's physical ports cost nothing.
//
// Usage:
//
//	juryload -k 8 -rates 10000,100000,1000000 -shards 1,2,4,8 -window 200ms
//	juryload -smoke              # one brief point on a 1125-switch FatTree(30)
//	juryload -k 8 -hosts 16777216 -drop 0.001 -rates 50000 -shards 4
//	juryload -wire 127.0.0.1:9090 -codec binary -rates 50000   # stream to a live juryd
//
// Every row is deterministic for a given -seed (wall-clock columns
// aside): the same campaign at -parallel 1 and -parallel 8 prints the
// same digests and verdict counts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		k        = flag.Int("k", 8, "fat-tree arity (even): 5k²/4 switches, k³/4 hosts")
		hosts    = flag.Uint64("hosts", 0, "virtual host population (0 = the fabric's physical k³/4; larger values wrap onto edge ports)")
		rates    = flag.String("rates", "10000,100000,1000000,4000000", "comma-separated trigger rates to sweep (flows/s of virtual time)")
		shards   = flag.String("shards", "1,2,4,8", "comma-separated validation-plane widths to sweep")
		window   = flag.Duration("window", 100*time.Millisecond, "virtual measurement window per point")
		replicas = flag.Int("replicas", 2, "tainted secondary executions per trigger (validator k)")
		timeout  = flag.Duration("timeout", 20*time.Millisecond, "per-trigger validation deadline")
		drop     = flag.Float64("drop", 0.001, "probability a trigger's primary response is lost (benign false-positive source; 0 disables)")
		join     = flag.Float64("churn-join", 200, "host-join rate (events/s)")
		leave    = flag.Float64("churn-leave", 150, "host-leave rate (events/s)")
		flap     = flag.Float64("flap", 20, "link-flap rate (events/s)")
		diurnal  = flag.Duration("diurnal", 0, "diurnal load period (0 disables modulation)")
		trough   = flag.Float64("trough", 0.1, "diurnal trough as a fraction of the peak rate")
		seed     = flag.Int64("seed", 42, "campaign root seed")
		parallel = flag.Int("parallel", 0, "sweep parallelism (0 = GOMAXPROCS; results identical at any width)")
		smoke    = flag.Bool("smoke", false, "run the 1k-switch smoke instead: one brief point on FatTree(30)")

		wireAt    = flag.String("wire", "", "stream the synthesized workload to a running juryd at this address over the wire client instead of validating in-process (uses the first -rates point and -window)")
		codecName = flag.String("codec", "json", "wire codec for -wire: json (newline-delimited) or binary (length-prefixed frames, batched writes)")

		seriesOut   = flag.String("series-out", "", "write per-point campaign time series (columnar JSONL) into this directory (empty = off)")
		seriesEvery = flag.Duration("series-every", 10*time.Millisecond, "virtual sampling period for -series-out")
		flightOut   = flag.String("flight-out", "", "write per-point flight dumps (JSONL) into this directory (empty = off)")
		flightRing  = flag.Int("flight-ring", 0, "per-shard flight-recorder capacity for -flight-out (0 = default ring)")
	)
	flag.Parse()

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
	if cfg.Rates, err = parseFloats(*rates); err != nil {
		return fmt.Errorf("-rates: %w", err)
	}
	if cfg.Shards, err = parseInts(*shards); err != nil {
		return fmt.Errorf("-shards: %w", err)
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
			return fmt.Errorf("-codec: %w", err)
		}
		return runWire(cfg, *wireAt, codec)
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
			if err := writeSeries(path, s); err != nil {
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
			if err := writeFlight(path, events); err != nil {
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
	fmt.Printf("juryload: FatTree(%d) — %d switches, %d physical ports, %d virtual hosts; window %v, replicas %d, drop %g, seed %d\n\n",
		cfg.K, switches, physHosts, pop, cfg.Window, cfg.Replicas, cfg.DropRate, *seed)

	out, err := loadgen.RunCampaign(context.Background(), cfg)
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "rate\tshards\tevents\ttriggers\tdecided\tvalid\talarms\ttimeouts\tfp_pct\tp50\tp95\tp99\tpartition_x_modeled\twall\tsubmit_per_s_modeled\tdigest\tseries\tflight")
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
		fmt.Fprintf(w, "%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\t%v\t%v\t%v\t%.2f\t%v\t%.0f\t%016x\t%s\t%s\n",
			o.Point.Rate, o.Point.Shards, r.Events, r.Triggers, r.Decided, r.Valid,
			r.Faults, r.Timeouts, r.FPRate*100, r.P50, r.P95, r.P99,
			r.PartitionX, o.Elapsed.Round(time.Millisecond),
			o.SubmitPerSec(cfg.Replicas+1), r.Digest, series, flight)
	}
	return w.Flush()
}

// runWire streams one synthesized workload window to a remote juryd over
// the resilient wire client, replaying the same event-to-response mapping
// the in-process campaign uses (FlowArrival fans out into one primary
// cache write plus tainted secondary executions; churn and flaps become
// untainted cache updates). It reports the client's own loss accounting
// alongside the server's aggregate stats, so a codec or throughput
// regression on the wire path is visible end to end.
func runWire(cfg loadgen.CampaignConfig, addr string, codec wire.Codec) error {
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
		return fmt.Errorf("juryload: wire sink: %w", err)
	}
	defer c.Close()

	drop := rand.New(rand.NewSource(cfg.RootSeed + 1))
	fmt.Printf("juryload: streaming FatTree(%d) workload to %s (codec=%s, rate=%.0f/s, window=%v, replicas=%d)\n",
		cfg.K, addr, codec, rate, cfg.Window, cfg.Replicas)
	start := time.Now() //jurylint:allow wallclock -- wire throughput is measured in wall time
	var events, envelopes, triggers int64
	for {
		ev := src.Next()
		if ev.At > cfg.Window {
			break
		}
		events++
		switch ev.Kind {
		case loadgen.FlowArrival:
			triggers++
			tid := trigger.ID(fmt.Sprintf("w-%d", triggers))
			primary := members[ev.Src%uint64(n)]
			key := fmt.Sprintf("flow/%d>%d", ev.Src, ev.Dst)
			if cfg.DropRate <= 0 || drop.Float64() >= cfg.DropRate {
				envelopes++
				err := c.Send(core.Response{
					Controller: primary, Primary: primary, Trigger: tid,
					Kind: core.CacheUpdate, Tainted: false,
					Cache: store.FlowsDB, Op: store.OpCreate,
					Key: key, Value: "fwd", StateDigest: 9,
					At: ev.At,
				})
				if err != nil {
					return fmt.Errorf("juryload: send: %w", err)
				}
			}
			at := ev.At
			for _, sec := range members {
				if sec == primary {
					continue
				}
				at += time.Microsecond
				envelopes++
				err := c.Send(core.Response{
					Controller: sec, Primary: primary, Trigger: tid,
					Kind: core.SecondaryExec, Tainted: true,
					Cache: store.FlowsDB, Op: store.OpCreate,
					Key: key, Value: "fwd", StateDigest: 9,
					At: at,
				})
				if err != nil {
					return fmt.Errorf("juryload: send: %w", err)
				}
			}
		case loadgen.HostJoin, loadgen.HostLeave:
			op, val := store.OpUpdate, "join"
			if ev.Kind == loadgen.HostLeave {
				op, val = store.OpDelete, "gone"
			}
			envelopes++
			err := c.Send(core.Response{
				Controller: members[ev.Src%uint64(n)],
				Kind:       core.CacheUpdate, Tainted: false,
				Cache: store.HostDB, Op: op,
				Key:   topo.HostMAC(int(ev.Src)).String(),
				Value: val, StateDigest: 9,
				At: ev.At,
			})
			if err != nil {
				return fmt.Errorf("juryload: send: %w", err)
			}
		case loadgen.LinkFlap:
			val := "down"
			if ev.Up {
				val = "up"
			}
			envelopes++
			err := c.Send(core.Response{
				Controller: members[uint64(ev.Link)%uint64(n)],
				Kind:       core.CacheUpdate, Tainted: false,
				Cache: store.LinksDB, Op: store.OpUpdate,
				Key:   links[ev.Link].String(),
				Value: val, StateDigest: 9,
				At: ev.At,
			})
			if err != nil {
				return fmt.Errorf("juryload: send: %w", err)
			}
		}
	}
	// Drain the bounded queue before measuring: what remains unsent past
	// the deadline is loss, and loss is visible on Dropped().
	deadline := time.Now().Add(30 * time.Second)         //jurylint:allow wallclock -- drain deadline on a live TCP sink
	for c.Backlog() > 0 && time.Now().Before(deadline) { //jurylint:allow wallclock -- drain deadline on a live TCP sink
		time.Sleep(5 * time.Millisecond) //jurylint:allow wallclock -- polling a live socket drain
	}
	elapsed := time.Since(start) //jurylint:allow wallclock -- wire throughput is measured in wall time
	if err := c.RequestStats(); err != nil {
		log.Printf("juryload: stats request: %v", err)
	}
	statsDeadline := time.Now().Add(3 * time.Second) //jurylint:allow wallclock -- stats-reply wait on a live TCP sink
	for time.Now().Before(statsDeadline) {           //jurylint:allow wallclock -- stats-reply wait on a live TCP sink
		statsMu.Lock()
		done := stats != nil
		statsMu.Unlock()
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond) //jurylint:allow wallclock -- polling a live socket reply
	}

	perSec := float64(envelopes) / elapsed.Seconds()
	fmt.Printf("juryload: %d events -> %d envelopes in %v wall (%.0f envelopes/s)\n",
		events, envelopes, elapsed.Round(time.Millisecond), perSec)
	fmt.Printf("juryload: wire client: dropped=%d reconnects=%d backlog=%d\n",
		c.Dropped(), c.Reconnects(), c.Backlog())
	statsMu.Lock()
	defer statsMu.Unlock()
	if stats != nil {
		fmt.Printf("juryload: server: decided=%d valid=%d alarms=%d timeouts=%d pending=%d (results pushed here: %d)\n",
			stats.Decided, stats.Valid, stats.Faults, stats.Timeouts, stats.Pending, results)
	} else {
		fmt.Println("juryload: no stats reply (validator unreachable?)")
	}
	return nil
}

// pointFile names a point's telemetry file by its parameter identity.
func pointFile(kind string, pt loadgen.CampaignPoint) string {
	return fmt.Sprintf("%s-rate%.0f-shards%d.jsonl", kind, pt.Rate, pt.Shards)
}

func writeSeries(path string, s *obs.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSONL(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func writeFlight(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteEventsJSONL(f, events); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
