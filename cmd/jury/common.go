package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/wire"
)

// writeFile creates path and fills it with write, keeping the error of
// the final Close: a short write on close is still a failed write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// serveMetrics serves write as Prometheus /metrics (and /healthz) on
// addr, announces the endpoint on out and returns the function that shuts
// it down. An empty addr serves nothing.
func serveMetrics(addr string, write func(io.Writer) error, out io.Writer) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	expo, err := obs.ServeExpo(addr, obs.ExpoConfig{Write: write})
	if err != nil {
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	fmt.Fprintf(out, "metrics on http://%s/metrics\n", expo.Addr())
	return func() { _ = expo.Close() }, nil
}

// waitUntil polls cond every 5ms until it holds, the timeout elapses or
// ctx ends. It is the commands' one wall-clock readiness boundary: the
// switches, controller and validator they drive run over real TCP, so
// their settling time is real time.
func waitUntil(ctx context.Context, timeout time.Duration, cond func() bool) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for !cond() {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// statsLine renders a validator's aggregate counters the way every
// command reports them.
func statsLine(st wire.Stats) string {
	return fmt.Sprintf("decided=%d valid=%d alarms=%d timeouts=%d pending=%d",
		st.Decided, st.Valid, st.Faults, st.Timeouts, st.Pending)
}

// writeAlarms lists retained alarms as jury serve and jury sim report
// them at exit: the first ten, each with its fault, offender, trigger,
// detection time and reason, then a count of the rest.
func writeAlarms(out io.Writer, alarms []core.Result) {
	show := min(len(alarms), 10)
	for _, a := range alarms[:show] {
		fmt.Fprintf(out, "ALARM: %-16s offender=C%d trigger=%s detected in %v: %s\n",
			a.Fault, a.Offender, a.Trigger, a.DetectionTime, a.Reason)
	}
	if len(alarms) > show {
		fmt.Fprintf(out, "... and %d more alarms\n", len(alarms)-show)
	}
}
