package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// manifest is the part of BENCHMARK.json the test checks the program
// against.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsEmitManifest runs every workload briefly, untraced and
// traced, and asserts that no verdict is wrong or missing and that the
// run prints exactly the metrics BENCHMARK.json registers, with their
// units.
func TestWorkloadsEmitManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for _, wl := range m.Workloads {
		for _, traced := range []bool{false, true} {
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			// 300 ms of wall time: a few thousand verdicts on the wire
			// workloads, one 250 ms virtual step on sim-onos7.
			res, err := run(wl.Name, options{
				seed: 7, seconds: 0.3, trace: traced, scale: 0.01,
				outDir: t.TempDir(), started: time.Now(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json registers %d",
					wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, w := range want {
				got, ok := res.Metrics[w.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", wl.Name, traced, w.Name)
				case got.Unit != w.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q",
						wl.Name, traced, w.Name, got.Unit, w.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, w.Name, got.Value)
				}
			}
		}
	}
}
