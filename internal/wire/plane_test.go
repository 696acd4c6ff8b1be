package wire

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
	"github.com/jurysdn/jury/internal/wire/wiretest"
)

// svc is a validator service on an injected clock plus one client that
// collects every pushed result. Virtual time only moves when the test
// moves the clock, and barrier() proves everything sent so far was
// dispatched at the current reading, so a scripted run stamps the same
// virtual times — and decides the same way — on every run and at every
// plane width.
type svc struct {
	t *testing.T
	s *Server
	c *Client

	mu      sync.Mutex
	now     time.Time
	results map[trigger.ID]core.Result
	stats   chan Stats
}

const svcTimeout = 50 * time.Millisecond

func startSvc(t *testing.T, cfg ServerConfig) *svc {
	t.Helper()
	h := &svc{
		t:       t,
		now:     time.Unix(5000, 0),
		results: make(map[trigger.ID]core.Result),
		stats:   make(chan Stats, 1),
	}
	cfg.Validator = core.ValidatorConfig{K: 2, Timeout: svcTimeout}
	cfg.Members = []store.NodeID{1, 2, 3}
	cfg.Switches = []topo.DPID{1}
	cfg.Tick = time.Millisecond
	cfg.Clock = func() time.Time {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.now
	}
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	c, err := DialConfig(s.Addr(), ClientConfig{
		OnResult: func(r core.Result) {
			h.mu.Lock()
			if _, dup := h.results[r.Trigger]; dup {
				t.Errorf("trigger %s decided twice", r.Trigger)
			}
			h.results[r.Trigger] = r
			h.mu.Unlock()
		},
		OnStats: func(st Stats) { h.stats <- st },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	h.s, h.c = s, c
	return h
}

func (h *svc) send(rs ...core.Response) {
	h.t.Helper()
	for _, r := range rs {
		if err := h.c.Send(r); err != nil {
			h.t.Fatal(err)
		}
	}
}

// barrier returns once the server has dispatched everything sent before
// it: the connection is read in order, so the stats reply follows them.
func (h *svc) barrier() {
	h.t.Helper()
	if err := h.c.RequestStats(); err != nil {
		h.t.Fatal(err)
	}
	select {
	case <-h.stats:
	case <-time.After(5 * time.Second):
		h.t.Fatal("no stats reply")
	}
}

func (h *svc) advance(d time.Duration) {
	h.mu.Lock()
	h.now = h.now.Add(d)
	h.mu.Unlock()
}

func (h *svc) waitResults(n int) {
	h.t.Helper()
	waitFor(h.t, func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.results) >= n
	})
}

func (h *svc) scrape() map[string]float64 {
	h.t.Helper()
	var page bytes.Buffer
	if err := h.s.WriteMetrics(&page); err != nil {
		h.t.Fatal(err)
	}
	return parseMetrics(page.String())
}

// parseMetrics maps every sample line of a Prometheus text page to its
// value, and every family name (labels stripped) to the sum of its
// children.
func parseMetrics(page string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(page, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			if !strings.Contains(name, "quantile=") {
				out[name[:br]] += v
			}
			if strings.Contains(name, "shard=") {
				continue // per-shard children differ by width; the family sum is compared
			}
		}
		out[name] = v
	}
	return out
}

// netExec is a secondary's suppressed network side-effect (not a cache
// write), executed from the given state snapshot.
func netExec(ctrl store.NodeID, trig string, digest uint64) core.Response {
	return core.Response{
		Controller:  ctrl,
		Primary:     1,
		Trigger:     trigger.ID(trig),
		Kind:        core.SecondaryExec,
		Tainted:     true,
		DPID:        1,
		MsgBody:     "packetout|out:1,",
		StateDigest: digest,
	}
}

const scriptTriggers = 5

// runScript drives one response of every class through the service:
// early benign consensus, a value fault, an omission decided by expiry, a
// Ψ-only update (no trigger) that makes the state-aware omission check
// exempt one silent-primary trigger and convict the other, and a late
// response. It returns once all five triggers are decided and the late
// response is counted.
func (h *svc) runScript() {
	h.t.Helper()
	h.send(
		resp(1, "benign", core.CacheUpdate, false, "up"),
		resp(2, "benign", core.SecondaryExec, true, "up"),
		resp(3, "benign", core.SecondaryExec, true, "up"),
		resp(1, "value", core.CacheUpdate, false, "down"),
		resp(2, "value", core.SecondaryExec, true, "up"),
		resp(3, "value", core.SecondaryExec, true, "up"),
		resp(2, "omit", core.SecondaryExec, true, "up"),
		resp(3, "omit", core.SecondaryExec, true, "up"),
	)
	// Ψ[1] moves to snapshot 99 on every shard; the triggers below open
	// against it wherever they hash.
	psi := resp(1, "", core.CacheUpdate, false, "psi")
	psi.StateDigest = 99
	h.send(psi,
		netExec(2, "stale", 7), netExec(3, "stale", 7),
		netExec(2, "fresh", 99), netExec(3, "fresh", 99),
	)
	h.barrier()
	h.advance(svcTimeout + 10*time.Millisecond)
	h.waitResults(scriptTriggers)
	h.send(resp(3, "benign", core.SecondaryExec, true, "up"))
	waitFor(h.t, func() bool { return h.scrape()["jury_validator_late_responses_total"] == 1 })
}

// TestServerWidthInvariance is the service-level width-invariance
// contract: the same response script yields the same per-trigger results
// — verdict, fault class, offender, decision times, evidence — whether
// the plane runs one worker or four.
func TestServerWidthInvariance(t *testing.T) {
	want := map[trigger.ID]struct {
		verdict  core.Verdict
		fault    core.FaultClass
		offender store.NodeID
		timedOut bool
	}{
		"benign": {core.VerdictValid, core.FaultNone, 0, false},
		"value":  {core.VerdictFault, core.FaultValue, 1, false},
		"omit":   {core.VerdictFault, core.FaultOmission, 1, true},
		"stale":  {core.VerdictValid, core.FaultNone, 0, true},
		"fresh":  {core.VerdictFault, core.FaultOmission, 1, true},
	}
	var ref map[trigger.ID]core.Result
	for _, shards := range []int{1, 2, 4} {
		h := startSvc(t, ServerConfig{Shards: shards})
		h.runScript()
		h.mu.Lock()
		got := h.results
		h.mu.Unlock()
		for id, w := range want {
			r := got[id]
			if r.Verdict != w.verdict || r.Fault != w.fault || r.Offender != w.offender || r.TimedOut != w.timedOut {
				t.Errorf("shards=%d %s: got %s/%s offender %d timedOut=%v, want %s/%s offender %d timedOut=%v",
					shards, id, r.Verdict, r.Fault, r.Offender, r.TimedOut, w.verdict, w.fault, w.offender, w.timedOut)
			}
		}
		if ref == nil {
			ref = got
		} else if !reflect.DeepEqual(ref, got) {
			t.Errorf("shards=%d: results diverge from one shard:\n got %+v\nwant %+v", shards, got, ref)
		}
	}
}

// traceWidth1 is the trace the script exports at one shard — captured from
// the single-engine server this plane replaced, so the one-worker plane is
// pinned byte-identical to it.
const traceWidth1 = `{"seq":1,"trigger":"benign","name":"trigger","node":"triggers","start_ns":0,"dur_ns":0,"verdict":"valid","fault":"none"}
{"seq":2,"trigger":"benign","name":"validate","node":"validator","start_ns":0,"dur_ns":0}
{"seq":3,"trigger":"value","name":"trigger","node":"triggers","start_ns":0,"dur_ns":0,"verdict":"fault","fault":"value"}
{"seq":4,"trigger":"value","name":"validate","node":"validator","start_ns":0,"dur_ns":0,"detail":"slot cache|LinksDB|k: 2 same-state replicas contradict the primary"}
{"seq":5,"trigger":"omit","name":"trigger","node":"triggers","start_ns":0,"dur_ns":50000000,"verdict":"fault","fault":"omission"}
{"seq":6,"trigger":"omit","name":"validate","node":"validator","start_ns":0,"dur_ns":50000000,"detail":"no primary response before validation timeout"}
{"seq":7,"trigger":"stale","name":"trigger","node":"triggers","start_ns":0,"dur_ns":50000000,"verdict":"valid","fault":"none"}
{"seq":8,"trigger":"stale","name":"validate","node":"validator","start_ns":0,"dur_ns":50000000}
{"seq":9,"trigger":"fresh","name":"trigger","node":"triggers","start_ns":0,"dur_ns":50000000,"verdict":"fault","fault":"omission"}
{"seq":10,"trigger":"fresh","name":"validate","node":"validator","start_ns":0,"dur_ns":50000000,"detail":"no primary response before validation timeout"}
`

// TestServerTraceAcrossShards asserts tracing works at any width: every
// decided trigger has exactly one validate span in the merged export, two
// runs of one script export the same bytes, and one shard exports the
// bytes the single-engine server did.
func TestServerTraceAcrossShards(t *testing.T) {
	export := func(shards int) string {
		h := startSvc(t, ServerConfig{Shards: shards, Tracing: true})
		h.runScript()
		var buf bytes.Buffer
		if err := h.s.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if got := export(1); got != traceWidth1 {
		t.Errorf("one-shard trace differs from the single-engine server's:\n got:\n%s\nwant:\n%s", got, traceWidth1)
	}
	first := export(4)
	if second := export(4); first != second {
		t.Errorf("two 4-shard runs exported different traces:\n%s\n---\n%s", first, second)
	}
	for _, id := range []string{"benign", "value", "omit", "stale", "fresh"} {
		span := fmt.Sprintf(`"trigger":%q,"name":"validate"`, id)
		if n := strings.Count(first, span); n != 1 {
			t.Errorf("4-shard trace has %d validate spans for %s, want 1:\n%s", n, id, first)
		}
	}
}

// TestServerMetricsParityAcrossWidths scrapes the service after the same
// script at one and four shards: the page must carry the same families —
// the detection summaries and late_responses_total included — and, for
// everything but the per-shard queue families (whose totals count the Ψ
// broadcast, one copy per shard) and the push-write count (one flush per
// deciding worker), the same values.
func TestServerMetricsParityAcrossWidths(t *testing.T) {
	pages := make(map[int]map[string]float64)
	for _, shards := range []int{1, 4} {
		h := startSvc(t, ServerConfig{Shards: shards, Tracing: true})
		h.runScript()
		h.barrier()
		pages[shards] = h.scrape()
	}
	one, four := pages[1], pages[4]
	for _, fam := range []string{
		"jury_validator_decided_total", "jury_validator_faults_total", "jury_validator_timeouts_total",
		"jury_validator_late_responses_total", "jury_validator_pending",
		"jury_validator_detection_seconds_count", "jury_validator_detection_seconds_sum",
		`jury_validator_detection_seconds{quantile="0.5"}`,
		"jury_validator_detection_external_seconds_count",
		"jury_trace_spans_dropped_total",
		"jury_wire_responses_total", "jury_wire_conns_open",
		"jury_shard_enqueued_total", "jury_shard_overflow_total", "jury_shard_queue_depth",
	} {
		if _, ok := one[fam]; !ok {
			t.Errorf("shards=1 page lacks %s", fam)
		}
	}
	if one["jury_validator_detection_seconds_count"] != scriptTriggers {
		t.Errorf("detection summary counted %v triggers, want %d", one["jury_validator_detection_seconds_count"], scriptTriggers)
	}
	names := func(page map[string]float64) []string {
		var out []string
		for name := range page {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	if n1, n4 := names(one), names(four); !reflect.DeepEqual(n1, n4) {
		t.Fatalf("metric names differ across widths:\n shards=1 %v\n shards=4 %v", n1, n4)
	}
	for name, v := range one {
		if strings.HasPrefix(name, "jury_shard_") || name == "jury_wire_push_writes_total" {
			continue // workers flush independently: writes depend on the width
		}
		if four[name] != v {
			t.Errorf("%s = %v at one shard, %v at four", name, v, four[name])
		}
	}
}

// stallListener wraps every accepted connection in a wiretest.Conn and
// hands the wrapper to the test.
type stallListener struct {
	net.Listener
	conns chan *wiretest.Conn
}

func (l *stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	w := wiretest.Wrap(c)
	l.conns <- w
	return w, nil
}

// TestServerScrapeWhileDispatchBlocked asserts the metrics scrape needs no
// server lock: with the one worker blocked and a dispatcher stuck on the
// full depth-1 intake queue holding the dispatch lock, a scrape must still
// complete.
func TestServerScrapeWhileDispatchBlocked(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &stallListener{Listener: ln, conns: make(chan *wiretest.Conn, 2)}
	s, err := ServeListener(sl, ServerConfig{
		Validator:  core.ValidatorConfig{K: 2, Timeout: 500 * time.Millisecond},
		Members:    []store.NodeID{1, 2, 3},
		Switches:   []topo.DPID{1},
		Tick:       time.Millisecond,
		QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	release := (<-sl.conns).Stall()
	defer release()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, r := range []core.Response{
		resp(1, "τ", core.CacheUpdate, false, "up"),
		resp(2, "τ", core.SecondaryExec, true, "up"),
		resp(3, "τ", core.SecondaryExec, true, "up"),
	} {
		if err := c.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	scrape := func() map[string]float64 {
		t.Helper()
		done := make(chan map[string]float64, 1)
		go func() {
			var page bytes.Buffer
			if err := s.WriteMetrics(&page); err != nil {
				t.Error(err)
			}
			done <- parseMetrics(page.String())
		}()
		select {
		case page := <-done:
			return page
		case <-time.After(5 * time.Second):
			t.Fatal("scrape blocked behind the dispatch lock")
			return nil
		}
	}
	// The worker counts the decision and then blocks flushing it to the
	// stalled sink, holding connsMu — which parks the tick loop in its
	// heartbeat sweep, one Advance item after the worker stopped consuming.
	// The test dispatches one more batch directly: whichever of the two
	// items finds the depth-1 queue full blocks with the dispatch lock
	// held.
	waitFor(t, func() bool { return scrape()["jury_validator_decided_total"] == 1 })
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		in := ingest{s: s, sc: &srvConn{}}
		in.add(&Envelope{Type: TypeResponse, Response: &core.Response{Controller: 1, Trigger: "τ2"}})
		in.dispatch()
	}()
	waitFor(t, func() bool {
		// Held across consecutive probes: a dispatcher merely passing
		// through would release between two of them.
		for i := 0; i < 10; i++ {
			if s.mu.TryLock() {
				s.mu.Unlock()
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	})
	if page := scrape(); page["jury_wire_responses_total"] != 4 || page["jury_shard_overflow_total"] < 1 {
		t.Fatalf("while blocked: responses_total = %v, want 4; overflow_total = %v, want >= 1",
			page["jury_wire_responses_total"], page["jury_shard_overflow_total"])
	}
	release()
	<-dispatched
}

// TestServerCloseRaisesNoAlarms is the shutdown regression: closing a
// service with a trigger still open must not expire it into an omission
// alarm that no controller caused. The shard plane used
// to drain on Close, which ran every pending timer.
func TestServerCloseRaisesNoAlarms(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := startSvc(t, ServerConfig{Shards: shards})
			h.send(
				resp(2, "open", core.SecondaryExec, true, "up"),
				resp(3, "open", core.SecondaryExec, true, "up"),
			)
			waitFor(t, func() bool { return h.s.Stats().Pending == 1 })
			if err := h.s.Close(); err != nil {
				t.Fatal(err)
			}
			if st := h.s.Stats(); st.Decided != 0 || st.Faults != 0 || st.Timeouts != 0 {
				t.Errorf("Close decided the open trigger: %+v", st)
			}
		})
	}
}
