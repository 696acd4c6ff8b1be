package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/slab"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
	"github.com/jurysdn/jury/internal/wire/wiretest"
)

// frozenSvc starts a service whose clock never moves and whose tick never
// fires inside a test: whatever reaches a client got there on the strength
// of the worker's own flush, not a timer.
func frozenSvc(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	epoch := time.Unix(5000, 0)
	cfg.Validator = core.ValidatorConfig{K: 2, Timeout: svcTimeout}
	cfg.Members = []store.NodeID{1, 2, 3}
	cfg.Switches = []topo.DPID{1}
	cfg.Tick = time.Hour
	cfg.Clock = func() time.Time { return epoch }
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// benignTrigger is one trigger's three agreeing responses.
func benignTrigger(id string) []core.Response {
	return []core.Response{
		resp(1, id, core.CacheUpdate, false, "up"),
		resp(2, id, core.SecondaryExec, true, "up"),
		resp(3, id, core.SecondaryExec, true, "up"),
	}
}

// frames appends one response frame per response to dst.
func frames(dst []byte, rs ...core.Response) []byte {
	for i := range rs {
		dst = AppendEnvelope(dst, &Envelope{Type: TypeResponse, Response: &rs[i]})
	}
	return dst
}

// rawBinary dials the service and returns the connection with a frame
// reader on it; the handshake byte goes out with the caller's first write.
func rawBinary(t *testing.T, s *Server) (net.Conn, *BinReader) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn, NewBinReader(conn, 0)
}

func pushWrites(t *testing.T, s *Server) float64 {
	t.Helper()
	var page bytes.Buffer
	if err := s.WriteMetrics(&page); err != nil {
		t.Fatal(err)
	}
	return parseMetrics(page.String())["jury_wire_push_writes_total"]
}

// TestLoneVerdictNeedsNoFurtherInput: with the clock frozen and no tick, a
// single trigger's verdict still reaches the client — the worker that
// decided it flushed it; nothing lingers waiting for a timer or for the
// next batch.
func TestLoneVerdictNeedsNoFurtherInput(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := frozenSvc(t, ServerConfig{Shards: shards})
		conn, br := rawBinary(t, s)
		stream := frames([]byte{BinMagic}, benignTrigger("lone")...)
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		env, err := br.ReadEnvelope()
		if err != nil {
			t.Fatalf("shards=%d: no verdict without further input: %v", shards, err)
		}
		if env.Result == nil || env.Result.Trigger != "lone" || env.Result.Verdict != core.VerdictValid {
			t.Fatalf("shards=%d: got %+v, want the valid verdict of the lone trigger", shards, env)
		}
		if got := pushWrites(t, s); got != 1 {
			t.Fatalf("shards=%d: %v push writes for one verdict, want 1", shards, got)
		}
	}
}

// TestBurstSharesPushWrites: N triggers arriving in one client write are
// dispatched as (at most two) batches, and their N verdicts come back in
// decision order in at most two socket writes, not N.
func TestBurstSharesPushWrites(t *testing.T) {
	const triggers = 40
	s := frozenSvc(t, ServerConfig{})
	conn, br := rawBinary(t, s)
	stream := []byte{BinMagic}
	for i := 0; i < triggers; i++ {
		stream = frames(stream, benignTrigger(trigID("burst", i))...)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < triggers; i++ {
		env, err := br.ReadEnvelope()
		if err != nil {
			t.Fatalf("verdict %d: %v", i, err)
		}
		if want := trigger.ID(trigID("burst", i)); env.Result == nil || env.Result.Trigger != want {
			t.Fatalf("verdict %d is %+v, want %s (decision order)", i, env, want)
		}
	}
	if got := pushWrites(t, s); got > 2 {
		t.Fatalf("%v push writes for a burst of %d verdicts, want at most 2", got, triggers)
	}
}

// TestControlEnvelopeKeepsOrder: a stats request in the middle of a burst
// first dispatches the responses ahead of it, so its reply counts them,
// and is answered at once.
func TestControlEnvelopeKeepsOrder(t *testing.T) {
	s := frozenSvc(t, ServerConfig{})
	conn, br := rawBinary(t, s)
	// Two responses of an open trigger, then the stats request, in one write.
	stream := frames([]byte{BinMagic}, benignTrigger("open")[1:]...)
	stream = AppendEnvelope(stream, &Envelope{Type: TypeStats})
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	env, err := br.ReadEnvelope()
	if err != nil || env.Stats == nil {
		t.Fatalf("no stats reply: %+v, %v", env, err)
	}
	waitFor(t, func() bool { return s.Stats().Pending == 1 })
	if got := s.m.responses.Value(); got != 2 {
		t.Fatalf("responses_total = %d when the stats reply left, want 2", got)
	}
}

// TestCloseDeliversBufferedVerdict: a verdict decided just before Close —
// appended to the connection's pending output, not yet flushed — still
// reaches the client: Close flushes before it tears the sockets down.
func TestCloseDeliversBufferedVerdict(t *testing.T) {
	s := frozenSvc(t, ServerConfig{})
	conn, br := rawBinary(t, s)
	if _, err := conn.Write([]byte{BinMagic}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		s.connsMu.Lock()
		defer s.connsMu.Unlock()
		for _, sc := range s.conns {
			return sc.codec == CodecBinary
		}
		return false
	})
	s.broadcast(core.Result{Trigger: "last", Verdict: core.VerdictValid})
	if got := pushWrites(t, s); got != 0 {
		t.Fatalf("broadcast alone made %v socket writes, want 0", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	env, err := br.ReadEnvelope()
	if err != nil || env.Result == nil || env.Result.Trigger != "last" {
		t.Fatalf("verdict decided before Close was lost: %+v, %v", env, err)
	}
	if _, err := br.ReadEnvelope(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the verdict: %v, want EOF", err)
	}
}

// TestCloseDeliversDecidedVerdict is the same promise from the outside: a
// trigger the service reports decided is delivered even when Close follows
// immediately.
func TestCloseDeliversDecidedVerdict(t *testing.T) {
	s := frozenSvc(t, ServerConfig{})
	var (
		mu  sync.Mutex
		got []trigger.ID
	)
	c, err := DialConfig(s.Addr(), ClientConfig{
		Codec: CodecBinary,
		Sleep: blockingSleep,
		OnResult: func(r core.Result) {
			mu.Lock()
			got = append(got, r.Trigger)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, r := range benignTrigger("final") {
		if err := c.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	for s.Stats().Decided == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1 && got[0] == "final"
	})
}

// TestStalledPeerDoesNotBlockReaders is the regression test for the frozen
// ingest: one client that stops reading used to halt every reader, because
// the worker held connsMu across the blocked write to it and every reader
// took connsMu per frame to record liveness. Liveness is an atomic now —
// the read path takes no registry lock — so a healthy client's responses
// keep being read, counted and dispatched while the write is stuck.
func TestStalledPeerDoesNotBlockReaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &stallListener{Listener: ln, conns: make(chan *wiretest.Conn, 2)}
	s, err := ServeListener(sl, ServerConfig{
		Validator: core.ValidatorConfig{K: 2, Timeout: 500 * time.Millisecond},
		Members:   []store.NodeID{1, 2, 3},
		Switches:  []topo.DPID{1},
		Tick:      time.Millisecond,
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

	send := func(id string) {
		t.Helper()
		for _, r := range benignTrigger(id) {
			if err := c.Send(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The first verdict's write to the stalled peer blocks its worker with
	// connsMu held.
	send("τ0")
	waitFor(t, func() bool { return s.Stats().Decided == 1 })
	waitFor(t, func() bool {
		if s.connsMu.TryLock() {
			s.connsMu.Unlock()
			return false
		}
		return true
	})
	const more = 50
	for i := 1; i <= more; i++ {
		send(trigID("τ", i))
	}
	waitFor(t, func() bool { return s.m.responses.Value() == 3*(1+more) })
	release()
	waitFor(t, func() bool { return s.Stats().Decided == 1+more })
}

// light3Response is shaped like the bench's light3 stream: a HostDB record
// of about 70 bytes under a MAC key.
func light3Response(ctrl store.NodeID, id string, kind core.ResponseKind, tainted bool) core.Response {
	return core.Response{
		Controller: ctrl, Primary: 1, Trigger: trigger.ID(id), Kind: kind, Tainted: tainted,
		Cache: store.HostDB, Op: store.OpCreate, Key: "0a:00:00:00:12:34",
		Value:       `{"mac":"0a:00:00:00:12:34","ip":"10.0.18.52","dpid":7,"port":3,"vlan":0}`,
		StateDigest: 0x1122334455667788,
	}
}

// TestServerIngestAllocBudget is the pin CI can fail on: decoding a
// light3-shaped response off the stream, batching it and dispatching it to
// the plane costs at most 0.03 allocations per response — its fresh Key
// and Value, 87 bytes, carved from the reader's 4 KB slab, so one slab per
// 47 responses (0.021) and nothing else — and pushing a result to a binary
// client costs none once the buffers are warm. Tracer and recorder are
// off. The measured responses are late responses of a decided trigger,
// alternating between two hosts so every one carries strings to copy, and
// the worker consuming them allocates nothing either: the process-wide
// count is the ingest path's alone. Each measured run ingests perRun
// responses, so a slab started in the run counts as its share instead of
// vanishing in AllocsPerRun's whole-number rounding.
func TestServerIngestAllocBudget(t *testing.T) {
	const runs, perRun = 500, 50
	s := frozenSvc(t, ServerConfig{})
	conn, br := rawBinary(t, s)
	stream := frames([]byte{BinMagic},
		light3Response(1, "τa", core.CacheUpdate, false),
		light3Response(2, "τa", core.SecondaryExec, true),
		light3Response(3, "τa", core.SecondaryExec, true))
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	env, err := br.ReadEnvelope()
	if err != nil || env.Result == nil {
		t.Fatalf("warm-up trigger undecided: %+v, %v", env, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	verdict := CloneResult(*env.Result)
	go func() { _, _ = io.Copy(io.Discard, conn) }()

	late := light3Response(3, "τa", core.SecondaryExec, true)
	other := late
	other.Key, other.Value = "0a:00:00:00:56:78", `{"mac":"0a:00:00:00:56:78","ip":"10.0.86.120","dpid":7,"port":4,"vlan":0}`
	var lates []byte
	for i := 0; i < runs/2+perRun*(runs/perRun+1); i++ {
		if i%2 == 0 {
			lates = frames(lates, late)
		} else {
			lates = frames(lates, other)
		}
	}
	in := ingest{s: s, sc: &srvConn{}, borrowed: true}
	fr := NewBinReader(bytes.NewReader(lates), 0)
	ingested := int64(0)
	ingestOne := func() {
		env, err := fr.ReadEnvelope()
		if err != nil {
			t.Fatal(err)
		}
		in.add(env)
		in.dispatch()
		// Steady state is a worker that keeps up: let it consume the batch
		// and hand the slice back before the next one is leased.
		for ingested++; s.plane.Stats().LateResponses < ingested; {
			runtime.Gosched()
		}
	}
	for i := 0; i < runs/2; i++ {
		ingestOne() // warm the batch slice, the entry pool and the queue
	}
	// Under the race detector the plane's batch-slice pool drops a quarter
	// of what it is handed back, about 0.5 allocations per dispatch that
	// are the detector's, not the ingest path's: there the gate stays at
	// one allocation per response.
	budget := 0.03
	if raceEnabled {
		budget = 1
	}
	got := testing.AllocsPerRun(runs/perRun, func() {
		for range perRun {
			ingestOne()
		}
	}) / perRun
	if got > budget {
		t.Errorf("decode → batch → dispatch costs %.3f allocations per response, want at most %v", got, budget)
	}
	t.Logf("decode → batch → dispatch: %.3f allocations per response", got)

	push := func() {
		s.broadcast(verdict)
		s.flush()
	}
	push()
	if got := testing.AllocsPerRun(runs, push); got != 0 {
		t.Errorf("pushing a result costs %v allocations, want 0", got)
	}

	c, err := DialConfig(s.Addr(), ClientConfig{Codec: CodecBinary, QueueSize: 4 * runs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := testing.AllocsPerRun(runs, func() { _ = c.Send(late) }); got != 0 {
		t.Errorf("Client.Send costs %v allocations, want 0 (the response stays in the ring by value)", got)
	}
}

// TestDispatchClearsBatch: once the plane has its copies, the reader's
// batch holds only zero values, so a stale response cannot keep the slab
// its strings were carved from alive until the connection sends as many
// responses again. The plane still decides the trigger from its copies.
func TestDispatchClearsBatch(t *testing.T) {
	s := frozenSvc(t, ServerConfig{})
	rs := benignTrigger("τc")
	in := ingest{s: s, sc: &srvConn{}, borrowed: true}
	fr := NewBinReader(bytes.NewReader(frames(nil, rs...)), 0)
	for range rs {
		env, err := fr.ReadEnvelope()
		if err != nil {
			t.Fatal(err)
		}
		in.add(env)
	}
	in.dispatch()
	if len(in.batch) != 0 {
		t.Fatalf("batch holds %d responses after dispatch, want 0", len(in.batch))
	}
	for i, r := range in.batch[:cap(in.batch)] {
		if r != (core.Response{}) {
			t.Fatalf("batch entry %d still holds %+v after dispatch", i, r)
		}
	}
	waitFor(t, func() bool { return s.Stats().Valid == 1 })
}

// flow7Trigger is one trigger of the flow7 workloads as every client in
// the tree sends it, back to back: the primary's FlowsDB write, its
// FLOW_MOD and six tainted secondaries replaying the write. flow picks the
// rule, so two triggers may or may not share their cache strings.
func flow7Trigger(id string, flow int) []core.Response {
	f := strconv.Itoa(flow)
	base := core.Response{
		Trigger: trigger.ID(id), Primary: 1,
		Cache: store.FlowsDB, Op: store.OpCreate, Key: "flow/7/0a:00:00:00:00:" + f,
		Value:       `{"DPID":7,"Match":{"DLDst":"CgAAAAA` + f + `"},"Priority":10,"Actions":[{"Port":3}],"Command":0}`,
		StateDigest: 9,
	}
	own := base
	own.Controller, own.Kind = 1, core.CacheUpdate
	rs := []core.Response{own, {
		Controller: 1, Trigger: trigger.ID(id), Primary: 1, Kind: core.NetworkWrite,
		DPID: 7, MsgType: openflow.TypeFlowMod, WireLen: 80, StateDigest: 9,
		MsgBody: "flowmod|add|prio=10|dl_dst=0a:00:00:00:00:" + f + "|out:3,|idle=0|hard=0",
	}}
	for c := store.NodeID(2); c <= 7; c++ {
		r := base
		r.Controller, r.Kind, r.Tainted, r.At = c, core.SecondaryExec, true, time.Duration(c)*time.Microsecond
		rs = append(rs, r)
	}
	return rs
}

// TestIngestSharesRepeatedStrings holds the reader's string sharing to its
// promise: a flow7 trigger carves only the primary's Trigger, Key and
// Value and the FLOW_MOD body, about 190 bytes, because the secondaries
// repeat the primary's strings, so it costs at most 0.07 allocations (one
// 4 KB slab per 21 triggers, 0.047 measured); nothing batched aliases the
// frame buffer it was decoded from; and two triggers whose responses
// alternate, so every field is fresh, cost at most 0.05 allocations per
// response, the carve-everything price (0.027 measured). Each measured
// run ingests perRun triggers, so a slab started in the run counts as its
// share instead of vanishing in AllocsPerRun's whole-number rounding.
func TestIngestSharesRepeatedStrings(t *testing.T) {
	const runs, perRun = 4, 64 // perRun even: the alternating stream pairs triggers
	const triggers = (runs+1)*perRun + 2
	var stream, alternating []byte
	var sent []core.Response
	for i := 0; i < triggers; i++ {
		rs := flow7Trigger("τ"+strconv.Itoa(i), i%5)
		sent = append(sent, rs...)
		stream = frames(stream, rs...)
		if i%2 == 1 {
			prev := flow7Trigger("τ"+strconv.Itoa(i-1), (i-1)%5)
			for j := range rs {
				alternating = frames(alternating, prev[j], rs[j])
			}
		}
	}
	in := ingest{borrowed: true}
	ingestN := func(fr *BinReader, n int) {
		in.batch = in.batch[:0]
		for range n {
			env, err := fr.ReadEnvelope()
			if err != nil {
				t.Fatal(err)
			}
			in.add(env)
		}
	}

	fr := NewBinReader(bytes.NewReader(stream), 0)
	if got := testing.AllocsPerRun(runs, func() { ingestN(fr, 8*perRun) }) / perRun; got > 0.07 {
		t.Errorf("a flow7 trigger costs %.3f allocations to ingest, want at most 0.07", got)
	} else {
		t.Logf("a flow7 trigger costs %.3f allocations to ingest", got)
	}
	ingestN(fr, 16) // two more triggers, batched together
	buf := fr.buf[:cap(fr.buf)]
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	aliases := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return s != "" && p >= lo && p < lo+uintptr(len(buf))
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	for j, r := range in.batch {
		if want := sent[8*(runs+1)*perRun+j]; r != want { // after the measured triggers
			t.Fatalf("batched response %d changed with the frame buffer:\n got %+v\nwant %+v", j, r, want)
		}
		for _, s := range []string{string(r.Trigger), string(r.Cache), r.Key, r.Value, r.MsgBody, r.Prev} {
			if aliases(s) {
				t.Fatalf("batched response %d retains %q from the frame buffer", j, s)
			}
		}
		if p := &in.batch[j-j%8]; j%8 >= 2 && (unsafe.StringData(r.Key) != unsafe.StringData(p.Key) ||
			unsafe.StringData(r.Value) != unsafe.StringData(p.Value) || unsafe.StringData(string(r.Trigger)) != unsafe.StringData(string(p.Trigger))) {
			t.Fatalf("secondary %d does not share its trigger's primary strings", j)
		}
	}
	for _, s := range in.owned {
		if aliases(s) {
			t.Fatalf("the reader remembers %q from the frame buffer", s)
		}
	}

	fr = NewBinReader(bytes.NewReader(alternating), 0)
	if got := testing.AllocsPerRun(runs, func() { ingestN(fr, 8*perRun) }) / (8 * perRun); got > 0.05 {
		t.Errorf("alternating triggers cost %.3f allocations per response, want at most 0.05", got)
	} else {
		t.Logf("alternating triggers cost %.3f allocations per response", got)
	}
}

// TestRetainedEvidenceOwnsItsStrings: a retained alarm's trigger ID and
// evidence hold their own exact copy of their strings, none of them
// inside the slab the reader carved the responses from — a kept substring
// would pin that whole 4 KB slab for as long as the alarm is kept.
func TestRetainedEvidenceOwnsItsStrings(t *testing.T) {
	s := frozenSvc(t, ServerConfig{})
	rs := []core.Response{
		light3Response(1, "τf", core.CacheUpdate, false),
		light3Response(2, "τf", core.SecondaryExec, true),
		light3Response(3, "τf", core.SecondaryExec, true),
	}
	for i := 1; i < len(rs); i++ {
		rs[i].Value = strings.Replace(rs[i].Value, `"port":3`, `"port":9`, 1)
	}
	in := ingest{s: s, sc: &srvConn{}, borrowed: true}
	fr := NewBinReader(bytes.NewReader(frames(nil, rs...)), 0)
	for range rs {
		env, err := fr.ReadEnvelope()
		if err != nil {
			t.Fatal(err)
		}
		in.add(env)
	}
	var carved []string
	for i := range in.batch {
		r := &in.batch[i]
		carved = append(carved, string(r.Trigger), string(r.Cache), r.Key, r.Value)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(carved[0])))
	for _, c := range carved {
		lo = min(lo, uintptr(unsafe.Pointer(unsafe.StringData(c))))
	}
	inSlab := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return s != "" && p >= lo && p < lo+slab.Size
	}
	for _, c := range carved {
		if !inSlab(c) { // a fresh reader carves these few hundred bytes from one slab
			t.Fatalf("batched string %q is not in the reader's slab", c)
		}
	}
	in.dispatch()
	waitFor(t, func() bool { return len(s.Alarms()) == 1 })
	alarm := s.Alarms()[0]
	if len(alarm.Evidence) != len(rs) {
		t.Fatalf("alarm %+v carries %d responses of evidence, want %d", alarm, len(alarm.Evidence), len(rs))
	}
	if alarm.Trigger != "τf" || inSlab(string(alarm.Trigger)) {
		t.Fatalf("alarm names trigger %q, inside the reader's slab: %v", alarm.Trigger, inSlab(string(alarm.Trigger)))
	}
	for i, r := range alarm.Evidence {
		if r != rs[i] {
			t.Fatalf("evidence %d reads\n%+v\nwant\n%+v", i, r, rs[i])
		}
		for _, f := range []string{string(r.Trigger), string(r.Cache), r.Key, r.Value, r.MsgBody, r.Prev} {
			if inSlab(f) {
				t.Fatalf("evidence %d keeps %q inside the reader's slab", i, f)
			}
		}
	}
}

// chunkReader hands out at most n bytes per Read and counts the calls.
type chunkReader struct {
	data  []byte
	n     int
	reads int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), r.n, len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// FuzzBinReader drives arbitrary byte streams, delivered in arbitrary
// chunk sizes, through BinReader and its complete-frame check. It must
// never panic; a frame reported complete must then be returned without
// touching the underlying reader (so never blocking) and without an I/O
// error; the reader must consume exactly each frame's declared length —
// never past it; and whatever decodes must survive an AppendEnvelope round
// trip.
func FuzzBinReader(f *testing.F) {
	r := fullResponse(1)
	valid := AppendEnvelope(nil, &Envelope{Type: TypeResponse, Response: &r, Trace: &TraceContext{Origin: "o", BaseNS: -3}})
	_, pn := binary.Uvarint(valid)
	payload := valid[pn:]
	result := AppendEnvelope(nil, &Envelope{Type: TypeResult, Result: &core.Result{
		Trigger: "τe", Verdict: core.VerdictFault, Fault: core.FaultValue, Reason: "r", Evidence: []core.Response{r, r}}})
	frame := func(p []byte) []byte { return append(binary.AppendUvarint(nil, uint64(len(p))), p...) }
	for _, seed := range [][]byte{
		valid,
		result,
		append(append([]byte{}, valid...), result...),
		AppendEnvelope(AppendEnvelope(nil, &Envelope{Type: TypePing}), &Envelope{Type: TypeStats, Stats: &Stats{Decided: 3}}),
		// The malformed-payload table of TestBinDecoderRejectsMalformed, framed.
		frame(nil),
		frame([]byte{9, 0}),
		frame(payload[:len(payload)-1]),
		frame(append(append([]byte{}, payload...), 0)),
		append(frame(result[1:len(result)-1]), 0xFF, 0xFF, 0xFF, 0x7F),
		// The bad frames of TestServerSkipsBadBinaryFrames: oversized,
		// then garbage, then a good one.
		append(append(append(binary.AppendUvarint(nil, 1024), make([]byte, 1024)...), 5, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF), valid...),
		valid[:len(valid)/2], // cut mid-payload
		{0x80},               // cut mid-prefix
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // prefix overflows uint64
	} {
		f.Add(seed, uint8(7))
		f.Add(seed, uint8(255))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		const maxFrame = 256
		src := &chunkReader{data: data, n: int(chunk) + 1}
		buffered := bufio.NewReaderSize(src, 64)
		br := NewBinReader(buffered, maxFrame)
		consumed := 0 // bytes of data the frames returned so far cover
		for {
			complete := br.FrameBuffered()
			reads := src.reads
			env, err := br.ReadEnvelope()
			perFrame := err == nil || errors.Is(err, ErrMalformedFrame) || errors.Is(err, ErrFrameTooLong)
			if complete && (!perFrame || src.reads != reads) {
				t.Fatalf("frame reported complete, then ReadEnvelope read %d more times and returned %v", src.reads-reads, err)
			}
			if !perFrame {
				return // the stream ended or its framing broke
			}
			n, k := binary.Uvarint(data[consumed:])
			consumed += k + int(n)
			if k <= 0 || consumed > len(data) {
				t.Fatalf("ReadEnvelope returned %v for a frame the stream does not hold (prefix %d bytes, length %d)", err, k, n)
			}
			if got := len(data) - len(src.data) - buffered.Buffered(); got != consumed {
				t.Fatalf("reader consumed %d bytes, the frames so far end at %d", got, consumed)
			}
			if err != nil {
				continue
			}
			want := Envelope{Type: env.Type, Trace: env.Trace, Stats: env.Stats}
			if env.Response != nil {
				resp := CloneResponse(*env.Response)
				want.Response = &resp
			}
			if env.Result != nil {
				res := CloneResult(*env.Result)
				want.Result = &res
			}
			again := AppendEnvelope(nil, &want)
			_, pn := binary.Uvarint(again)
			var dec BinDecoder
			got, err := dec.Decode(again[pn:])
			if err != nil || !reflect.DeepEqual(got, &want) {
				t.Fatalf("round trip: %v\n got %+v\nwant %+v", err, got, want)
			}
		}
	})
}

// TestFrameBufferedNeverWaits pins the complete-frame check on a stream
// that arrives a few bytes at a time: it reports a frame only once all of
// it is buffered, and reading it then needs no further input.
func TestFrameBufferedNeverWaits(t *testing.T) {
	r := fullResponse(2)
	one := AppendEnvelope(nil, &Envelope{Type: TypeResponse, Response: &r})
	src := &chunkReader{data: append(append([]byte{}, one...), one...), n: len(one) + 3}
	br := NewBinReader(bufio.NewReaderSize(src, 4*len(one)), 0)
	if br.FrameBuffered() {
		t.Fatal("empty buffer reports a complete frame")
	}
	if _, err := br.ReadEnvelope(); err != nil { // reads one frame + 3 bytes of the next
		t.Fatal(err)
	}
	if br.FrameBuffered() {
		t.Fatal("3 buffered bytes of the next frame report it complete")
	}
	reads := src.reads
	if _, err := br.ReadEnvelope(); err != nil {
		t.Fatal(err)
	}
	if src.reads == reads {
		t.Fatal("the partial frame was completed without reading")
	}
	if br.FrameBuffered() {
		t.Fatal("drained stream reports a complete frame")
	}
	if _, err := br.ReadEnvelope(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}
