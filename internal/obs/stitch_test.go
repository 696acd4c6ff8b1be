package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func jsonlOf(t testing.TB, spans ...Span) string {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range spans {
		line, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.String()
}

// TestStitchJSONLShiftAndOrder asserts stitching stamps origins, applies
// per-input clock-base shifts, and orders the merged stream by shifted
// start time with (origin, seq) tiebreaks.
func TestStitchJSONLShiftAndOrder(t *testing.T) {
	controller := jsonlOf(t,
		Span{Seq: 1, Trigger: "τ1", Name: "flow-mod", Node: "C1", StartNS: 0, DurNS: 5},
		Span{Seq: 2, Trigger: "τ1", Name: "validate-rtt", Node: "C1", StartNS: 10, DurNS: 40},
	)
	validator := jsonlOf(t,
		Span{Seq: 1, Trigger: "τ1", Name: "validate", Node: "validator", StartNS: 5, DurNS: 20},
	)
	var out bytes.Buffer
	err := StitchJSONL(&out,
		StitchInput{Origin: "jurylive", R: strings.NewReader(controller)},
		// The validator saw τ1 15ns after the controller's clock base:
		// shift its spans onto the controller axis.
		StitchInput{Origin: "juryd", ShiftNS: 15, R: strings.NewReader(validator)},
	)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("stitched %d spans, want 3", len(lines))
	}
	var spans []Span
	for _, l := range lines {
		var s Span
		if err := json.Unmarshal([]byte(l), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	wantOrigin := []string{"jurylive", "jurylive", "juryd"}
	wantStart := []int64{0, 10, 20}
	for i, s := range spans {
		if s.Origin != wantOrigin[i] || s.StartNS != wantStart[i] {
			t.Fatalf("span[%d] = origin %q start %d, want %q %d",
				i, s.Origin, s.StartNS, wantOrigin[i], wantStart[i])
		}
	}
}

// TestStitchPreservesExistingOrigin asserts a span already stamped with
// an origin (a re-stitched merged trace) keeps it.
func TestStitchPreservesExistingOrigin(t *testing.T) {
	merged := jsonlOf(t,
		Span{Seq: 1, Trigger: "τ", Name: "x", Origin: "upstream", StartNS: 1},
	)
	var out bytes.Buffer
	if err := StitchJSONL(&out, StitchInput{Origin: "restitch", R: strings.NewReader(merged)}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"origin":"upstream"`) {
		t.Fatalf("re-stitch overwrote origin:\n%s", out.String())
	}
}

// TestStitchChromeTraceProcessRows asserts each origin becomes its own
// deterministic process row with named threads, and span events carry the
// right pid.
func TestStitchChromeTraceProcessRows(t *testing.T) {
	a := jsonlOf(t, Span{Seq: 1, Trigger: "τ", Name: "flow-mod", Node: "C1", StartNS: 0, DurNS: 5})
	b := jsonlOf(t, Span{Seq: 1, Trigger: "τ", Name: "validate", Node: "validator", StartNS: 2, DurNS: 3})
	render := func() string {
		var out bytes.Buffer
		err := StitchChromeTrace(&out,
			StitchInput{Origin: "jurylive", R: strings.NewReader(a)},
			StitchInput{Origin: "juryd", R: strings.NewReader(b)},
		)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	got := render()
	if got != render() {
		t.Fatal("stitched Chrome trace not deterministic across renders")
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Name string `json:"name"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(got), &doc); err != nil {
		t.Fatalf("stitched trace is not valid JSON: %v\n%s", err, got)
	}
	pidByOrigin := map[string]int{}
	var spanPids []int
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			pidByOrigin[e.Args["name"].(string)] = e.Pid
		}
		if e.Ph == "X" {
			spanPids = append(spanPids, e.Pid)
		}
	}
	// Sorted origins: juryd < jurylive, so juryd is pid 1.
	if pidByOrigin["juryd"] != 1 || pidByOrigin["jurylive"] != 2 {
		t.Fatalf("pids = %v, want juryd:1 jurylive:2", pidByOrigin)
	}
	if len(spanPids) != 2 || spanPids[0] != 2 || spanPids[1] != 1 {
		t.Fatalf("span pids in merged order = %v, want [2 1]", spanPids)
	}
}

// TestStitchRejectsGarbage asserts a malformed input line fails loudly
// with the origin named, instead of silently truncating the timeline.
func TestStitchRejectsGarbage(t *testing.T) {
	var out bytes.Buffer
	err := StitchJSONL(&out, StitchInput{Origin: "bad", R: strings.NewReader("not json\n")})
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v, want parse error naming the origin", err)
	}
}

// FuzzStitchJSONL feeds arbitrary span streams to the stitcher, which
// must never panic. Whatever StitchJSONL accepts, stitching its output
// again under the same origin with no shift gives the same bytes (the
// merged order and the canonical encoding are fixed points), and
// StitchChromeTrace accepts it too.
func FuzzStitchJSONL(f *testing.F) {
	for _, spans := range [][]Span{
		{
			{Seq: 1, Trigger: "τ1", Name: "flow-mod", Node: "C1", StartNS: 0, DurNS: 5},
			{Seq: 2, Trigger: "τ1", Name: "validate-rtt", Node: "C1", StartNS: 10, DurNS: 40},
		},
		{{Seq: 1, Trigger: "τ1", Name: "validate", Node: "validator", StartNS: 5, DurNS: 20}},
		{{Seq: 1, Trigger: "τ", Name: "x", Origin: "upstream", StartNS: 1}},
	} {
		f.Add([]byte(jsonlOf(f, spans...)), int64(15))
	}
	f.Add([]byte("not json\n"), int64(0))
	f.Add([]byte("\n"), int64(0))
	long := jsonlOf(f, Span{Seq: 1, Trigger: "τ", Name: "x", Detail: strings.Repeat("d", 70*1024)})
	f.Add([]byte(long), int64(-3))
	f.Fuzz(func(t *testing.T, data []byte, shift int64) {
		in := func(r []byte, shift int64) StitchInput {
			return StitchInput{Origin: "o", ShiftNS: shift, R: bytes.NewReader(r)}
		}
		var first bytes.Buffer
		if err := StitchJSONL(&first, in(data, shift)); err != nil {
			return
		}
		var again bytes.Buffer
		if err := StitchJSONL(&again, in(first.Bytes(), 0)); err != nil {
			t.Fatalf("stitched output does not stitch again: %v\n%s", err, first.Bytes())
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("re-stitch changed the output:\n%s\nthen:\n%s", first.Bytes(), again.Bytes())
		}
		if err := StitchChromeTrace(io.Discard, in(data, shift)); err != nil {
			t.Fatalf("StitchChromeTrace rejects what StitchJSONL accepts: %v", err)
		}
	})
}
