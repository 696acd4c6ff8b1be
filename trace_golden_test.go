package jury

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/sweep"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/workload"
)

// traceScenario runs the golden 4-switch scenario with tracing enabled and
// returns its JSONL trace plus the decided-trigger coverage numbers.
func traceScenario(seed int64) (jsonl string, completed, decided int64, err error) {
	top, err := topo.Linear(4)
	if err != nil {
		return "", 0, 0, err
	}
	sim, err := New(Config{
		Seed:           seed,
		Kind:           ONOS,
		ClusterSize:    3,
		EnableJury:     true,
		K:              2,
		CustomTopology: top,
		EnableTracing:  true,
	})
	if err != nil {
		return "", 0, 0, err
	}
	sim.Boot()
	until := sim.Now() + 500*time.Millisecond
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(200), until)
	if err := sim.Run(time.Second); err != nil {
		return "", 0, 0, err
	}
	var b bytes.Buffer
	if err := sim.Tracer().WriteJSONL(&b); err != nil {
		return "", 0, 0, err
	}
	return b.String(), sim.Tracer().CompletedTriggers(), sim.Validator().Decided(), nil
}

// TestGoldenTraceDeterministic is the tentpole's determinism acceptance
// test: the 4-switch scenario's JSONL trace must be byte-identical across
// repeated runs and across sweep parallelism widths 1 and 8 (the suite
// runs under -race in CI, so a racy tracer or engine would fail here).
func TestGoldenTraceDeterministic(t *testing.T) {
	const seed = 7
	ref, completed, decided, err := traceScenario(seed)
	if err != nil {
		t.Fatal(err)
	}
	if decided == 0 || completed == 0 {
		t.Fatalf("scenario decided %d triggers, traced %d end-to-end — too quiet to validate", decided, completed)
	}
	if completed < decided {
		t.Fatalf("trace covers %d of %d decided triggers, want full coverage", completed, decided)
	}
	if !strings.Contains(ref, `"name":"trigger"`) || !strings.Contains(ref, `"name":"validate"`) {
		t.Fatal("trace is missing root or validate spans")
	}

	type point struct{ Replica int }
	for _, parallelism := range []int{1, 8} {
		parallelism := parallelism
		t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
			params := make([]point, 8)
			for i := range params {
				params[i] = point{Replica: i}
			}
			results, err := sweep.Run(context.Background(),
				sweep.Config{RootSeed: 1, Parallelism: parallelism},
				params,
				func(point, int64) (string, error) {
					// Every point runs the same scenario with the same
					// fixed seed: identical inputs must yield identical
					// bytes no matter which worker runs them or when.
					jsonl, _, _, err := traceScenario(seed)
					return jsonl, err
				})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if r.Err != nil {
					t.Fatalf("point %d: %v", r.Point.Index, r.Err)
				}
				if r.Value != ref {
					t.Fatalf("point %d produced a divergent trace (%d bytes vs %d reference)",
						r.Point.Index, len(r.Value), len(ref))
				}
			}
		})
	}
}
