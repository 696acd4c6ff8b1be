package jury

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/sweep"
)

var updateStitchGolden = flag.Bool("update", false, "rewrite testdata/stitched_chrome.golden from this tree's stitcher")

// splitTraceByProcess partitions one scenario trace into the two JSONL
// streams a real deployment would write: validator-node spans (juryd's
// trace file) and everything else (the controller side, jurylive's file).
// This turns the single-process golden scenario into a faithful
// two-process stitch input without needing live TCP in the test.
func splitTraceByProcess(t *testing.T, jsonl string) (controller, validator string) {
	t.Helper()
	var ctrl, val strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(jsonl), "\n") {
		var s obs.Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("scenario span unparsable: %v", err)
		}
		if s.Node == "validator" {
			val.WriteString(line)
			val.WriteByte('\n')
		} else {
			ctrl.WriteString(line)
			ctrl.WriteByte('\n')
		}
	}
	return ctrl.String(), val.String()
}

// stitchScenario renders the golden scenario as a stitched two-process
// trace: JSONL merge plus Chrome trace, both byte-deterministic.
func stitchScenario(t *testing.T, seed int64) (merged, chrome string) {
	t.Helper()
	jsonl, _, _, err := traceScenario(seed)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, val := splitTraceByProcess(t, jsonl)
	if ctrl == "" || val == "" {
		t.Fatal("scenario trace does not cover both processes")
	}
	var m, c bytes.Buffer
	inputs := func() []obs.StitchInput {
		return []obs.StitchInput{
			{Origin: "jurylive", R: strings.NewReader(ctrl)},
			{Origin: "juryd", R: strings.NewReader(val)},
		}
	}
	if err := obs.StitchJSONL(&m, inputs()...); err != nil {
		t.Fatal(err)
	}
	if err := obs.StitchChromeTrace(&c, inputs()...); err != nil {
		t.Fatal(err)
	}
	return m.String(), c.String()
}

// TestGoldenStitchDeterministic is the stitching acceptance test: the
// two-process stitched trace of the golden scenario must be
// byte-identical across repeated runs and across sweep parallelism widths
// 1 and 8 (the suite runs under -race in CI, so racy stitching or span
// recording would fail here).
func TestGoldenStitchDeterministic(t *testing.T) {
	const seed = 7
	refMerged, refChrome := stitchScenario(t, seed)
	if !strings.Contains(refMerged, `"origin":"jurylive"`) || !strings.Contains(refMerged, `"origin":"juryd"`) {
		t.Fatal("stitched JSONL is missing an origin stamp")
	}
	if !strings.Contains(refChrome, `"name":"process_name"`) {
		t.Fatal("stitched Chrome trace is missing process rows")
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
					merged, chrome := stitchScenario(t, seed)
					return merged + "\x00" + chrome, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			want := refMerged + "\x00" + refChrome
			for _, r := range results {
				if r.Err != nil {
					t.Fatalf("point %d: %v", r.Point.Index, r.Err)
				}
				if r.Value != want {
					t.Fatalf("point %d produced a divergent stitched trace (%d bytes vs %d reference)",
						r.Point.Index, len(r.Value), len(want))
				}
			}
		})
	}
}

// TestStitchChromeGolden pins the stitched two-process Chrome trace of
// the golden scenario (seed 7) byte for byte: its process and thread
// rows, pid/tid assignment and span lines. A diff is a change of the
// trace format, not a file to refresh.
func TestStitchChromeGolden(t *testing.T) {
	path := filepath.Join("testdata", "stitched_chrome.golden")
	_, got := stitchScenario(t, 7)
	if *updateStitchGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (capture with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("stitched Chrome trace differs from %s (%d bytes vs %d)", path, len(got), len(want))
	}
}
