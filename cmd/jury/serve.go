package main

import (
	"context"
	"flag"
	"io"
	"log"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/wire"
)

// runServe runs JURY's out-of-band validator as a standalone network
// service (the separate validator host of Fig. 2) until ctx ends.
// Controller modules connect over TCP and stream responses as JSON lines
// or length-prefixed binary frames (each connection's first byte says
// which, and the service answers in kind); every validation result (or
// only alarms, with -alarms-only) is pushed back to all connected
// clients. Its log lines go to stdout; at shutdown they end with the
// aggregate counters and the retained alarms.
//
//	jury serve -listen :9090 -k 6 -members 7 -timeout 130ms
func runServe(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:9090", "address to listen on")
		k          = fs.Int("k", 6, "replication factor (number of secondary controllers)")
		members    = fs.Int("members", 7, "number of controllers in the cluster")
		switches   = fs.Int("switches", 24, "number of switches in the deployment")
		timeout    = fs.Duration("timeout", 130*time.Millisecond, "validation timeout θτ")
		adaptive   = fs.Bool("adaptive", false, "enable the adaptive (EWMA) validation deadline")
		shards     = fs.Int("shards", 1, "validation plane width: worker goroutines, each owning one validator, triggers hashed across them")
		queueDepth = fs.Int("queue-depth", 0, "per-shard intake queue bound in batches (0 = default; full queues backpressure, never drop)")
		alarmsOnly = fs.Bool("alarms-only", false, "push only fault results to clients")
		statsEvery = fs.Duration("stats-every", 10*time.Second, "period for logging aggregate stats (0 = off)")
		metricsAt  = fs.String("metrics", "", "serve Prometheus /metrics and /healthz on this address (e.g. 127.0.0.1:9091; empty = off)")

		maxLine   = fs.Int("max-line-bytes", wire.DefaultMaxLineBytes, "max protocol line size; oversized lines are rejected and counted, not fatal")
		heartbeat = fs.Duration("heartbeat-every", wire.DefaultHeartbeatEvery, "ping idle client connections this often (negative = off)")
		idle      = fs.Duration("idle-timeout", wire.DefaultIdleTimeout, "reap connections idle past this horizon (negative = off)")

		traceOut = fs.String("trace-out", "", "write the validator's span trace (JSONL, obs.Stitch input) to this path at shutdown")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	logger := log.New(stdout, "juryd: ", log.LstdFlags|log.Lmsgprefix)
	srv, err := jury.ServeValidator(*listen, jury.ValidatorServiceConfig{
		ClusterSize:       *members,
		K:                 *k,
		Switches:          *switches,
		ValidationTimeout: *timeout,
		AdaptiveTimeout:   *adaptive,
		Shards:            *shards,
		QueueDepth:        *queueDepth,
		AlarmsOnly:        *alarmsOnly,
		Tracing:           *traceOut != "",
		MaxLineBytes:      *maxLine,
		HeartbeatEvery:    *heartbeat,
		IdleTimeout:       *idle,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	logger.Printf("validating on %s (k=%d, n=%d, timeout=%v, shards=%d)", srv.Addr(), *k, *members, *timeout, *shards)

	stopMetrics, err := serveMetrics(*metricsAt, srv.WriteMetrics, stdout)
	if err != nil {
		return err
	}
	defer stopMetrics()

	var tick <-chan time.Time
	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-ctx.Done():
			st := srv.Stats()
			logger.Printf("shutting down — %d decided, %d valid, %d alarms, %d timeouts",
				st.Decided, st.Valid, st.Faults, st.Timeouts)
			writeAlarms(stdout, srv.Alarms())
			if *traceOut != "" {
				if err := writeFile(*traceOut, srv.WriteTrace); err != nil {
					logger.Printf("trace: %v", err)
				} else {
					logger.Printf("trace -> %s", *traceOut)
					for origin, shift := range srv.TraceOrigins() {
						logger.Printf("stitch shift for origin %q: %d ns", origin, shift)
					}
				}
			}
			return nil
		case <-tick:
			logger.Printf("%s", statsLine(srv.Stats()))
		}
	}
}
