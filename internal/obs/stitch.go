package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// StitchInput is one process's span stream for cross-process stitching:
// its JSONL trace (as written by Tracer.WriteJSONL), the origin name to
// stamp on its spans, and the virtual-timestamp shift aligning its clock
// base onto the stitched axis. ShiftNS normally comes from the wire
// TraceContext exchange (the validator estimates each client origin's
// clock-base offset; see wire.Server.TraceOrigins).
type StitchInput struct {
	// Origin names the process ("jurylive", "juryd"). Spans that already
	// carry an origin keep it; unstamped spans get this one.
	Origin string
	// ShiftNS is added to every span's StartNS, mapping the input's
	// virtual clock base onto the stitched timeline.
	ShiftNS int64 // clock-base shift on the virtual-ns trace axis
	// R streams the input's JSONL spans.
	R io.Reader
}

// readStitchSpans parses one input's JSONL spans, stamping origin and
// applying the shift.
func readStitchSpans(in StitchInput) ([]Span, error) {
	var out []Span
	sc := bufio.NewScanner(in.R)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("obs: stitch %s: parse span: %w", in.Origin, err)
		}
		if s.Origin == "" {
			s.Origin = in.Origin
		}
		s.StartNS += in.ShiftNS
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: stitch %s: read: %w", in.Origin, err)
	}
	return out, nil
}

// stitchSpans merges every input into one deterministic span order:
// shifted start time, then origin, then the origin's own open sequence.
// The order is a pure function of the inputs, so stitching the same
// traces always yields the same bytes — the golden stitched-trace test
// pins this.
func stitchSpans(inputs []StitchInput) ([]Span, error) {
	sets := make([][]Span, 0, len(inputs))
	for _, in := range inputs {
		spans, err := readStitchSpans(in)
		if err != nil {
			return nil, err
		}
		sets = append(sets, spans)
	}
	return MergeSpans(sets...), nil
}

// StitchJSONL joins the JSONL span streams of N processes into one
// merged JSONL trace, origin-stamped, shift-aligned and deterministically
// ordered.
func StitchJSONL(w io.Writer, inputs ...StitchInput) error {
	spans, err := stitchSpans(inputs)
	if err != nil {
		return err
	}
	return WriteSpansJSONL(w, spans)
}

// StitchChromeTrace joins the JSONL span streams of N processes into one
// Chrome trace_event file: each origin becomes its own process row (pid
// assigned by sorted origin name), each (origin, node) its own thread
// row, so a trigger's controller-side and validator-side spans line up
// on one timeline in chrome://tracing or Perfetto.
func StitchChromeTrace(w io.Writer, inputs ...StitchInput) error {
	spans, err := stitchSpans(inputs)
	if err != nil {
		return err
	}
	return writeChromeTrace(w, spans)
}
