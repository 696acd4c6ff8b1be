// Command juryd runs JURY's out-of-band validator as a standalone network
// service (the separate validator host of Fig. 2). Controller modules
// connect over TCP and stream responses as JSON lines or length-prefixed
// binary frames (each connection's first byte says which, and juryd
// answers in kind); juryd pushes every validation result (or only alarms,
// with -alarms-only) back to all connected clients and logs them.
//
// Usage:
//
//	juryd -listen :9090 -k 6 -members 7 -timeout 130ms
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		listen     = flag.String("listen", "127.0.0.1:9090", "address to listen on")
		k          = flag.Int("k", 6, "replication factor (number of secondary controllers)")
		members    = flag.Int("members", 7, "number of controllers in the cluster")
		switches   = flag.Int("switches", 24, "number of switches in the deployment")
		timeout    = flag.Duration("timeout", 130*time.Millisecond, "validation timeout θτ")
		adaptive   = flag.Bool("adaptive", false, "enable the adaptive (EWMA) validation deadline")
		shards     = flag.Int("shards", 1, "validation plane width: worker goroutines, each owning one validator, triggers hashed across them")
		queueDepth = flag.Int("queue-depth", 0, "per-shard intake queue bound in batches (0 = default; full queues backpressure, never drop)")
		alarmsOnly = flag.Bool("alarms-only", false, "push only fault results to clients")
		statsEvery = flag.Duration("stats-every", 10*time.Second, "period for logging aggregate stats (0 = off)")
		metricsAt  = flag.String("metrics", "", "serve Prometheus /metrics and /healthz on this address (e.g. 127.0.0.1:9091; empty = off)")

		maxLine   = flag.Int("max-line-bytes", wire.DefaultMaxLineBytes, "max protocol line size; oversized lines are rejected and counted, not fatal")
		heartbeat = flag.Duration("heartbeat-every", wire.DefaultHeartbeatEvery, "ping idle client connections this often (negative = off)")
		idle      = flag.Duration("idle-timeout", wire.DefaultIdleTimeout, "reap connections idle past this horizon (negative = off)")

		flightRing = flag.Int("flight-ring", 0, "flight-recorder ring capacity: retain the last N trigger lifecycle events per shard (0 = off)")
		flightDump = flag.String("flight-dump", "", "write flight dumps (JSONL) to this path: on every alarm, and a final dump at shutdown")
		traceOut   = flag.String("trace-out", "", "write the validator's span trace (JSONL, obs.Stitch input) to this path at shutdown")
	)
	flag.Parse()

	if *flightDump != "" && *flightRing == 0 {
		*flightRing = obs.DefaultFlightRing
	}
	svcCfg := jury.ValidatorServiceConfig{
		ClusterSize:       *members,
		K:                 *k,
		Switches:          *switches,
		ValidationTimeout: *timeout,
		AdaptiveTimeout:   *adaptive,
		Shards:            *shards,
		QueueDepth:        *queueDepth,
		AlarmsOnly:        *alarmsOnly,
		Tracing:           *traceOut != "",
		FlightRing:        *flightRing,
		MaxLineBytes:      *maxLine,
		HeartbeatEvery:    *heartbeat,
		IdleTimeout:       *idle,
	}
	if *flightDump != "" {
		// Dump-on-alarm: each dump overwrites the file with the freshest
		// ring, so the path always holds the events leading up to the
		// latest alarm.
		path := *flightDump
		svcCfg.OnFlightDump = func(reason string, events []obs.Event) {
			if err := writeFlightDump(path, events); err != nil {
				log.Printf("juryd: flight dump (%s): %v", reason, err)
				return
			}
			log.Printf("juryd: flight dump (%s): %d events -> %s", reason, len(events), path)
		}
	}
	srv, err := jury.ServeValidator(*listen, svcCfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	log.Printf("juryd: validating on %s (k=%d, n=%d, timeout=%v, shards=%d)", srv.Addr(), *k, *members, *timeout, *shards)

	if *metricsAt != "" {
		expo, err := obs.ServeExpo(*metricsAt, obs.ExpoConfig{Write: srv.WriteMetrics})
		if err != nil {
			return fmt.Errorf("juryd: metrics endpoint: %w", err)
		}
		defer expo.Close()
		log.Printf("juryd: metrics on http://%s/metrics", expo.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *statsEvery > 0 {
		ticker = time.NewTicker(*statsEvery) //jurylint:allow wallclock -- live stats cadence is real time by definition
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-stop:
			st := srv.Stats()
			fmt.Printf("juryd: shutting down — %d decided, %d valid, %d alarms, %d timeouts\n",
				st.Decided, st.Valid, st.Faults, st.Timeouts)
			if *flightDump != "" {
				if events := srv.FlightSnapshot(); len(events) > 0 {
					if err := writeFlightDump(*flightDump, events); err != nil {
						log.Printf("juryd: final flight dump: %v", err)
					} else {
						log.Printf("juryd: final flight dump: %d events -> %s", len(events), *flightDump)
					}
				}
			}
			if *traceOut != "" {
				if err := writeTrace(srv, *traceOut); err != nil {
					log.Printf("juryd: trace: %v", err)
				} else {
					log.Printf("juryd: trace -> %s", *traceOut)
					for origin, shift := range srv.TraceOrigins() {
						log.Printf("juryd: stitch shift for origin %q: %d ns", origin, shift)
					}
				}
			}
			return nil
		case <-tick:
			st := srv.Stats()
			log.Printf("juryd: decided=%d valid=%d alarms=%d timeouts=%d pending=%d",
				st.Decided, st.Valid, st.Faults, st.Timeouts, st.Pending)
		}
	}
}

// writeFlightDump writes one flight snapshot to path, atomically enough
// for a diagnostic file: full rewrite per dump.
func writeFlightDump(path string, events []obs.Event) error {
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

// writeTrace writes the service's span trace as JSONL for stitching.
func writeTrace(srv *wire.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := srv.WriteTrace(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
