package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Span is one completed interval of a trigger's life. Timestamps are
// virtual (simnet.Engine time), so spans are bit-deterministic: the same
// seed yields the same spans no matter the host, wall-clock load or sweep
// parallelism.
type Span struct {
	// Seq is the span's open order, a deterministic tiebreak for spans
	// opened at the same virtual instant.
	Seq uint64 `json:"seq"`
	// Trigger is the taint/trigger ID the span belongs to (τ).
	Trigger string `json:"trigger"`
	// Name classifies the span: "trigger" (root, replicate→verdict),
	// "exec" (one controller's pipeline processing), "decap" (ODL
	// de-encapsulation), "store-repl" (store fan-out to one replica),
	// "validate" (first response→decision).
	Name string `json:"name"`
	// Node is the component the span ran on ("replicator/of:0001",
	// "C3", "store/C2", "validator").
	Node string `json:"node,omitempty"`
	// StartNS and DurNS are virtual nanoseconds since simulation start.
	StartNS int64 `json:"start_ns"` // span format is virtual ns by contract
	DurNS   int64 `json:"dur_ns"`   // span format is virtual ns by contract
	// Verdict and Fault are set on root spans when the validator decided
	// the trigger.
	Verdict string `json:"verdict,omitempty"`
	Fault   string `json:"fault,omitempty"`
	// Detail carries span-specific context (message kind, reason).
	Detail string `json:"detail,omitempty"`
	// Origin names the process that recorded the span. Single-process
	// traces leave it empty; obs.Stitch stamps it when merging traces
	// from multiple processes, and the field is compat-safe (omitted when
	// empty, ignored by older readers).
	Origin string `json:"origin,omitempty"`
}

type spanKey struct {
	id   string
	name string
	node string
}

type openSpan struct {
	seq   uint64
	start time.Duration
}

// Tracer records per-trigger spans against a virtual clock. A nil
// *Tracer is the disabled tracer: every method is a cheap nil-check and
// performs no allocation, so instrumented hot paths cost nothing when
// tracing is off (asserted by TestDisabledTracerZeroAlloc).
//
// The tracer is driven from simulation event handlers on one goroutine
// and is deliberately unsynchronized; do not share an enabled tracer
// across goroutines.
type Tracer struct {
	now  func() time.Duration
	seq  uint64
	done []Span
	open map[spanKey]openSpan
	// details carries per-trigger root detail from open to close.
	details map[string]string

	completed int64 // root spans closed with a verdict
	dropped   int64 // spans discarded (open at export, or over cap)
	// dropC mirrors dropped onto a registry counter
	// (jury_trace_spans_dropped_total) so a tripped MaxSpans cap is
	// visible on /metrics instead of silently truncating the trace.
	dropC *Counter

	// MaxSpans bounds retained completed spans (0 = unlimited). When the
	// cap is hit, further closes are counted in Dropped instead.
	MaxSpans int
}

// NewTracer creates a tracer reading timestamps from now (normally
// simnet.Engine.Now).
func NewTracer(now func() time.Duration) *Tracer {
	return &Tracer{now: now, open: make(map[spanKey]openSpan)}
}

// Enabled reports whether the tracer records spans.
func (t *Tracer) Enabled() bool { return t != nil }

// StartTrigger opens the root span for a trigger (idempotent: the first
// opener wins, so the replicator's replicate-time start is preserved when
// the validator later ensures the root exists for internal triggers).
func (t *Tracer) StartTrigger(id, detail string) {
	if t == nil {
		return
	}
	key := spanKey{id: id, name: "trigger"}
	if _, ok := t.open[key]; ok {
		return
	}
	t.open[key] = openSpan{seq: t.nextSeq(), start: t.now()}
	if detail != "" {
		if t.details == nil {
			t.details = make(map[string]string)
		}
		t.details[id] = detail
	}
}

// EndTrigger closes the root span with the validator's verdict. A root
// that was never opened (trigger decided without a traced start) is given
// a zero-length span at the decision instant so every decided trigger
// appears in the trace.
func (t *Tracer) EndTrigger(id, verdict, fault string) {
	if t == nil {
		return
	}
	key := spanKey{id: id, name: "trigger"}
	os, ok := t.open[key]
	if !ok {
		os = openSpan{seq: t.nextSeq(), start: t.now()}
	} else {
		delete(t.open, key)
	}
	detail := ""
	if t.details != nil {
		detail = t.details[id]
		delete(t.details, id)
	}
	t.completed++
	t.close(Span{
		Seq:     os.seq,
		Trigger: id,
		Name:    "trigger",
		Node:    "triggers",
		StartNS: int64(os.start),
		DurNS:   int64(t.now() - os.start),
		Verdict: verdict,
		Fault:   fault,
		Detail:  detail,
	})
}

// StartSpan opens a child span for a trigger on a component.
func (t *Tracer) StartSpan(id, name, node string) {
	if t == nil {
		return
	}
	t.open[spanKey{id: id, name: name, node: node}] = openSpan{seq: t.nextSeq(), start: t.now()}
}

// EndSpan closes a child span opened by StartSpan; without a matching
// open it is a no-op.
func (t *Tracer) EndSpan(id, name, node, detail string) {
	if t == nil {
		return
	}
	key := spanKey{id: id, name: name, node: node}
	os, ok := t.open[key]
	if !ok {
		return
	}
	delete(t.open, key)
	t.close(Span{
		Seq:     os.seq,
		Trigger: id,
		Name:    name,
		Node:    node,
		StartNS: int64(os.start),
		DurNS:   int64(t.now() - os.start),
		Detail:  detail,
	})
}

// Emit records a complete span directly, for intervals whose start and
// end are both known at the call site (e.g. a scheduled store delivery).
func (t *Tracer) Emit(id, name, node string, start, end time.Duration, detail string) {
	if t == nil {
		return
	}
	t.close(Span{
		Seq:     t.nextSeq(),
		Trigger: id,
		Name:    name,
		Node:    node,
		StartNS: int64(start),
		DurNS:   int64(end - start),
		Detail:  detail,
	})
}

func (t *Tracer) nextSeq() uint64 {
	t.seq++
	return t.seq
}

func (t *Tracer) close(s Span) {
	if t.MaxSpans > 0 && len(t.done) >= t.MaxSpans {
		t.dropped++
		if t.dropC != nil {
			t.dropC.Inc()
		}
		return
	}
	t.done = append(t.done, s)
}

// InstrumentMetrics exposes the tracer's drop count as
// jury_trace_spans_dropped_total on reg, so spans silently discarded by a
// tripped MaxSpans cap surface on /metrics. Nil-safe.
func (t *Tracer) InstrumentMetrics(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	t.dropC = reg.Counter("jury_trace_spans_dropped_total",
		"Completed spans discarded by the MaxSpans cap.")
}

// CompletedTriggers returns the number of root spans closed with a
// verdict — the trace's end-to-end trigger coverage numerator.
func (t *Tracer) CompletedTriggers() int64 {
	if t == nil {
		return 0
	}
	return t.completed
}

// OpenSpans returns the number of spans opened but not yet closed.
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// Dropped returns the number of spans discarded due to MaxSpans.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Spans returns the completed spans in canonical order: by start time,
// then open sequence. Open spans are excluded (they have no duration yet).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return MergeSpans(t.done)
}

// MergeSpans merges span sets into one canonical order: start time, then
// origin, then the recorder's own open sequence — the order of a single
// tracer's export, of a plane's per-worker tracers merged at export and of
// a cross-process stitch alike. Spans that tie on all three (two tracers
// of one process opening their n-th span at the same instant) keep
// argument order, so the result is a pure function of the inputs.
func MergeSpans(sets ...[]Span) []Span {
	var out []Span
	for _, set := range sets {
		out = append(out, set...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		if out[i].Origin != out[j].Origin {
			return out[i].Origin < out[j].Origin
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteJSONL writes one canonical JSON object per span. Output is
// byte-deterministic for a deterministic simulation run.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return WriteSpansJSONL(w, t.Spans())
}

// WriteSpansJSONL writes spans as JSONL, one canonical object per line —
// the format Tracer.WriteJSONL emits and StitchJSONL reads.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	for _, s := range spans {
		line, err := json.Marshal(s)
		if err != nil {
			return fmt.Errorf("obs: marshal span: %w", err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("obs: write span: %w", err)
		}
	}
	return nil
}

// WriteChromeTrace writes the spans in the Chrome trace_event JSON array
// format, loadable in chrome://tracing and Perfetto. Virtual timestamps
// map to the trace's microsecond axis; each component gets its own
// thread row via thread_name metadata.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	// Assign deterministic tids: sorted distinct nodes.
	nodes := make(map[string]int)
	var names []string
	for _, s := range spans {
		if _, ok := nodes[s.Node]; !ok {
			nodes[s.Node] = 0
			names = append(names, s.Node)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		nodes[n] = i + 1
	}
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	first := true
	emit := func(line string) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := io.WriteString(w, line)
		return err
	}
	for _, n := range names {
		name := n
		if name == "" {
			name = "(unattributed)"
		}
		meta := fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			nodes[n], mustJSON(name))
		if err := emit(meta); err != nil {
			return fmt.Errorf("obs: write trace: %w", err)
		}
	}
	for _, s := range spans {
		args := map[string]string{"trigger": s.Trigger}
		if s.Verdict != "" {
			args["verdict"] = s.Verdict
		}
		if s.Fault != "" && s.Fault != "none" {
			args["fault"] = s.Fault
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		argJSON, err := json.Marshal(args)
		if err != nil {
			return fmt.Errorf("obs: marshal args: %w", err)
		}
		line := fmt.Sprintf(`{"ph":"X","pid":1,"tid":%d,"name":%s,"cat":"jury","ts":%s,"dur":%s,"args":%s}`,
			nodes[s.Node], mustJSON(s.Name), usec(s.StartNS), usec(s.DurNS), argJSON)
		if err := emit(line); err != nil {
			return fmt.Errorf("obs: write trace: %w", err)
		}
	}
	if _, err := io.WriteString(w, "\n]}\n"); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	return nil
}

// usec renders nanoseconds on the trace_event microsecond axis with
// sub-microsecond precision preserved.
func usec(ns int64) string {
	neg := ""
	if ns < 0 {
		neg = "-"
		ns = -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

func mustJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `"?"`
	}
	return string(b)
}
