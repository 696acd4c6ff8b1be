// Package obs is JURY's observability layer: a typed metrics registry
// with Prometheus text exposition, a virtual-clock span tracer keyed by
// trigger (taint) IDs, and a small HTTP server for /metrics + /healthz.
//
// The package is a concurrency bridge in the jurylint suite: counters and
// gauges are atomic so a live exposition goroutine can scrape them while
// the validator decides triggers, and the HTTP server owns goroutines.
// The tracer itself, however, is driven from simulation event handlers on
// a single goroutine and takes its timestamps from the simnet virtual
// clock, which is what makes traces bit-deterministic: the same seed
// produces the same bytes at any sweep parallelism. Wall-clock reads are
// confined to the annotated boundary of the exposition server.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/jurysdn/jury/internal/metrics"
)

// Label is one name/value pair attached to a metric child.
type Label struct {
	Key   string
	Value string
}

// L constructs a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter. The zero value is ready
// to use; counters obtained from a Registry are additionally exposed on
// /metrics. All methods are safe for concurrent use.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a value that can go up and down. Safe for concurrent use.
// Alongside the current value it tracks the high-watermark — the largest
// value ever set — so saturation episodes (a shard intake queue that
// briefly filled) stay visible after the gauge has drained back down.
type Gauge struct {
	bits atomic.Uint64
	hwm  atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
	g.raiseHWM(v)
}

// Add shifts the gauge by delta (negative to decrement), lock-free and
// safe against concurrent Set/Add — connection-lifecycle gauges are
// moved from accept and teardown paths racing each other.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(next)) {
			g.raiseHWM(next)
			return
		}
	}
}

// raiseHWM lifts the high-watermark to v when v exceeds it (CAS max).
func (g *Gauge) raiseHWM(v float64) {
	for {
		old := g.hwm.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.hwm.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HighWatermark returns the largest value the gauge has reached (at
// least zero — the zero value's watermark).
func (g *Gauge) HighWatermark() float64 { return math.Float64frombits(g.hwm.Load()) }

// Histogram accumulates duration samples into a metrics.Distribution and
// exposes quantiles, sum and count as a Prometheus summary (in seconds).
// Observe serializes against exposition with an internal mutex; callers
// that mutate a wrapped Distribution directly (the simulation does) must
// serialize their own scrapes externally, as cmd/jurylive does by
// hopping the scrape onto its pump goroutine.
type Histogram struct {
	mu sync.Mutex
	d  *metrics.Distribution
}

// Observe records one duration sample.
func (h *Histogram) Observe(v time.Duration) {
	h.mu.Lock()
	h.d.Add(v)
	h.mu.Unlock()
}

// Snapshot returns the immutable sorted view of the backing distribution.
func (h *Histogram) Snapshot() metrics.Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d.Snapshot()
}

type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "summary"
	default:
		return "untyped"
	}
}

// child is one (metric, label set) instance within a family.
type child struct {
	labels    string // canonical rendered label block, "" for none
	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() float64
	counterFn func() int64
	histogram *Histogram
}

// family groups all children sharing one metric name.
type family struct {
	name     string
	help     string
	kind     metricKind
	children map[string]*child
}

// Registry is a named collection of metrics. Registration is
// get-or-create: asking for the same (name, labels) twice returns the
// same instance, so components can hold their counters as fields while
// the exposition server walks the registry. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

func (r *Registry) childOf(name, help string, kind metricKind, labels []Label) *child {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kind)
	key := renderLabels(labels)
	c, ok := f.children[key]
	if !ok {
		c = &child{labels: key}
		f.children[key] = c
	}
	return c
}

// Counter returns the counter registered under name and labels, creating
// it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := r.childOf(name, help, kindCounter, labels)
	if c.counter == nil {
		c.counter = &Counter{}
	}
	return c.counter
}

// Gauge returns the gauge registered under name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	c := r.childOf(name, help, kindGauge, labels)
	if c.gauge == nil {
		c.gauge = &Gauge{}
	}
	return c.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// The function must be safe to call from the exposition goroutine (or
// the caller must serialize scrapes, as cmd/jurylive does).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	c := r.childOf(name, help, kindGaugeFunc, labels)
	c.gaugeFn = fn
}

// CounterFunc registers a counter whose value is computed at scrape time
// — an aggregate over counters that live elsewhere (the shard plane sums
// its workers' private counters this way). fn must be monotonic and safe
// to call from the exposition goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	c := r.childOf(name, help, kindCounterFunc, labels)
	c.counterFn = fn
}

// Histogram returns a histogram registered under name and labels. When
// dist is non-nil the histogram exposes that existing distribution (the
// simulation's detection-time distributions are wrapped this way);
// otherwise it owns a fresh one.
func (r *Registry) Histogram(name, help string, dist *metrics.Distribution, labels ...Label) *Histogram {
	c := r.childOf(name, help, kindHistogram, labels)
	if c.histogram == nil {
		if dist == nil {
			dist = &metrics.Distribution{}
		}
		c.histogram = &Histogram{d: dist}
	}
	return c.histogram
}

// summaryQuantiles are the quantiles exposed for every histogram.
var summaryQuantiles = []float64{50, 90, 95, 99}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Families and children are emitted in sorted
// order so the page is deterministic for a given metric state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := r.families[name]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeChild(bw, f, f.children[k])
		}
	}
	r.mu.Unlock()
	return bw.Flush()
}

func writeChild(bw *bufio.Writer, f *family, c *child) {
	switch f.kind {
	case kindCounter:
		fmt.Fprintf(bw, "%s%s %s\n", f.name, c.labels, strconv.FormatInt(c.counter.Value(), 10))
	case kindGauge:
		fmt.Fprintf(bw, "%s%s %s\n", f.name, c.labels, formatFloat(c.gauge.Value()))
	case kindGaugeFunc:
		fmt.Fprintf(bw, "%s%s %s\n", f.name, c.labels, formatFloat(c.gaugeFn()))
	case kindCounterFunc:
		fmt.Fprintf(bw, "%s%s %s\n", f.name, c.labels, strconv.FormatInt(c.counterFn(), 10))
	case kindHistogram:
		snap := c.histogram.Snapshot()
		for _, q := range summaryQuantiles {
			fmt.Fprintf(bw, "%s%s %s\n", f.name,
				mergeLabels(c.labels, fmt.Sprintf("quantile=%q", formatFloat(q/100))),
				formatFloat(snap.Percentile(q).Seconds()))
		}
		fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, c.labels, formatFloat(snap.Sum().Seconds()))
		fmt.Fprintf(bw, "%s_count%s %d\n", f.name, c.labels, snap.Count())
	}
}

// renderLabels produces the canonical label block: keys sorted, values
// escaped, wrapped in braces; empty for no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabels appends extra to an already-rendered label block.
func mergeLabels(rendered, extra string) string {
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
