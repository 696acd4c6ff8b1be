package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
	"github.com/jurysdn/jury/internal/wire/wiretest"
)

func TestParseCodec(t *testing.T) {
	cases := []struct {
		in   string
		want Codec
		ok   bool
	}{
		{"", CodecAuto, true},
		{"auto", CodecAuto, true},
		{"json", CodecJSON, true},
		{"binary", CodecBinary, true},
		{"protobuf", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseCodec(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Fatalf("ParseCodec(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, c := range []Codec{CodecAuto, CodecJSON, CodecBinary} {
		if c.String() == "" {
			t.Fatalf("Codec(%d).String() empty", c)
		}
	}
}

// fullResponse exercises every Response field, including the ones the
// test helpers leave zero (DPID, MsgBody, Prev, negative At magnitudes).
func fullResponse(ctrl store.NodeID) core.Response {
	return core.Response{
		Controller:   ctrl,
		Trigger:      "τ-bin",
		Kind:         core.SecondaryExec,
		Tainted:      true,
		Primary:      1,
		Cache:        store.LinksDB,
		Op:           store.OpUpdate,
		Key:          "sw7/port3",
		Value:        "link-down",
		DPID:         topo.DPID(0xdeadbeefcafe),
		MsgType:      openflow.MsgType(14),
		MsgBody:      "flow_mod{out:3}",
		WireLen:      96,
		StateDigest:  0x8899aabbccddeeff,
		StateApplied: 42,
		Prev:         "link-up",
		PrevOK:       true,
		At:           137 * time.Millisecond,
	}
}

func TestEnvelopeBinaryRoundTrip(t *testing.T) {
	r1 := fullResponse(2)
	r2 := fullResponse(3)
	res := core.Result{
		Trigger:       "τ-res",
		Kind:          trigger.Kind(1),
		Verdict:       core.VerdictFault,
		Fault:         core.FaultValue,
		Offender:      1,
		Reason:        "primary disagrees with quorum",
		Responses:     3,
		DetectionTime: 250 * time.Millisecond,
		DecidedAt:     17 * time.Second,
		TimedOut:      true,
		Evidence:      []core.Response{r1, r2},
	}
	cases := []Envelope{
		{Type: TypeResponse, Response: &r1, Trace: &TraceContext{Origin: "jurylive", BaseNS: 123456789}},
		{Type: TypeResult, Result: &res},
		{Type: TypeResult, Result: &core.Result{Trigger: "τ-plain", Verdict: core.VerdictValid}},
		{Type: TypeStats, Stats: &Stats{Decided: 10, Valid: 8, Faults: 1, Timeouts: 1, Pending: 3}},
		{Type: TypePing},
		{Type: TypePong},
		// All optional bodies on one envelope: the flag bitmap carries them
		// in encode order regardless of the envelope type.
		{Type: TypeResponse, Response: &r1, Result: &res,
			Stats: &Stats{Decided: 1}, Trace: &TraceContext{Origin: "x", BaseNS: -5}},
	}
	var dec BinDecoder
	for i, want := range cases {
		frame := AppendEnvelope(nil, &want)
		n, pn := binary.Uvarint(frame)
		if pn <= 0 || int(n) != len(frame)-pn {
			t.Fatalf("case %d: bad length prefix (n=%d pn=%d len=%d)", i, n, pn, len(frame))
		}
		got, err := dec.Decode(frame[pn:])
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestBinDecoderRejectsMalformed(t *testing.T) {
	r := fullResponse(1)
	valid := AppendEnvelope(nil, &Envelope{Type: TypeResponse, Response: &r})
	_, pn := binary.Uvarint(valid)
	payload := valid[pn:]

	resEnv := AppendEnvelope(nil, &Envelope{Type: TypeResult,
		Result: &core.Result{Trigger: "τe", Verdict: core.VerdictValid}})
	_, rpn := binary.Uvarint(resEnv)
	resPayload := resEnv[rpn:]
	// The evidence count is the result body's final varint; replace the
	// encoded zero with a count claiming ~268M responses.
	hostile := append(append([]byte{}, resPayload[:len(resPayload)-1]...), 0xFF, 0xFF, 0xFF, 0x7F)

	cases := map[string][]byte{
		"empty payload":          {},
		"unknown type":           {9, 0},
		"truncated":              payload[:len(payload)-1],
		"trailing junk":          append(append([]byte{}, payload...), 0x00),
		"hostile evidence count": hostile,
	}
	var dec BinDecoder
	for name, buf := range cases {
		if _, err := dec.Decode(buf); !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("%s: err = %v, want ErrMalformedFrame", name, err)
		}
	}
	// The decoder stays usable after rejecting garbage.
	if _, err := dec.Decode(payload); err != nil {
		t.Fatalf("decode after rejects: %v", err)
	}
}

var codecSink *Envelope // defeats dead-code elimination in the alloc test

// TestBinCodecZeroAllocSteadyState pins the hot path's contract: once the
// encode buffer and decoder scratch are warm, encoding and decoding an
// envelope (evidence included) allocates nothing.
func TestBinCodecZeroAllocSteadyState(t *testing.T) {
	r := fullResponse(2)
	env := Envelope{
		Type:   TypeResult,
		Result: &core.Result{Trigger: "τz", Verdict: core.VerdictFault, Fault: core.FaultValue, Reason: "r", Evidence: []core.Response{r, r}},
		Trace:  &TraceContext{Origin: "bench", BaseNS: 7},
	}
	buf := make([]byte, 0, 1024)
	var dec BinDecoder
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendEnvelope(buf[:0], &env)
		n, pn := binary.Uvarint(buf)
		got, err := dec.Decode(buf[pn : pn+int(n)])
		if err != nil {
			t.Fatal(err)
		}
		codecSink = got
	})
	if allocs != 0 {
		t.Fatalf("allocs per encode+decode = %v, want 0", allocs)
	}
}

// blockingSleep parks the writer's redial loop until the client closes,
// so tests can hold the outgoing ring full without a live connection.
func blockingSleep(_ time.Duration, cancel <-chan struct{}) bool {
	<-cancel
	return false
}

// TestQueueShedBoundedMemory is the ring-buffer regression test: the old
// slice queue advanced its head with queue[1:] and appended, so a client
// stuck behind a dead link regrew the backing array without bound on
// every shed/append cycle. The ring allocates once at Dial and never
// again — shedding overwrites in place.
func TestQueueShedBoundedMemory(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	var (
		dialMu sync.Mutex
		dials  int
	)
	const queueSize = 8
	c, err := DialConfig("unused", ClientConfig{
		QueueSize: queueSize,
		Sleep:     blockingSleep,
		Dial: func() (net.Conn, error) {
			dialMu.Lock()
			defer dialMu.Unlock()
			dials++
			if dials == 1 {
				return clientEnd, nil
			}
			return nil, errors.New("synthetic dial failure")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = serverEnd.Close()
	waitFor(t, func() bool { return !c.Connected() })

	env := Envelope{Type: TypeStats}
	for i := 0; i < queueSize; i++ {
		if err := c.enqueue(env); err != nil {
			t.Fatal(err)
		}
	}
	if c.Dropped() != 0 {
		t.Fatalf("dropped = %d before the queue filled", c.Dropped())
	}
	sent := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sent++
		_ = c.enqueue(env)
	})
	if allocs != 0 {
		t.Fatalf("allocs per shed enqueue = %v, want 0 (queue must not regrow)", allocs)
	}
	if got := c.Dropped(); got != int64(sent) {
		t.Fatalf("dropped = %d, want %d (every shed accounted)", got, sent)
	}
	c.mu.Lock()
	capacity, live := cap(c.ring.buf), c.ring.len()
	c.mu.Unlock()
	if capacity != queueSize {
		t.Fatalf("ring capacity = %d after %d sheds, want fixed %d", capacity, sent, queueSize)
	}
	if live != queueSize {
		t.Fatalf("ring length = %d, want %d", live, queueSize)
	}
}

// TestFlapStormBackoffGrows is the proven-connection regression test: a
// server that accepts and immediately closes (crash loop) used to reset
// the redial backoff on every dial success, hammering it at the base
// interval forever. Now the schedule only resets after a connection
// carries traffic, so an accept-then-close flap pays the grown backoff.
func TestFlapStormBackoffGrows(t *testing.T) {
	const seed = 7
	rs := &recordingSleep{}
	var (
		dialMu sync.Mutex
		dials  int
	)
	healthy := make(chan net.Conn, 1)
	parked := make(chan net.Conn, 1)
	c, err := DialConfig("unused", ClientConfig{
		ReconnectBase: 10 * time.Millisecond,
		ReconnectMax:  time.Second,
		Seed:          seed,
		Sleep:         rs.sleep,
		Dial: func() (net.Conn, error) {
			dialMu.Lock()
			dials++
			n := dials
			dialMu.Unlock()
			switch {
			case n <= 4: // accept-then-close flap: dial "succeeds", link is dead
				cl, sv := net.Pipe()
				_ = sv.Close()
				return cl, nil
			case n == 5: // the connection that will prove itself
				cl, sv := net.Pipe()
				healthy <- sv
				return cl, nil
			case n == 6:
				return nil, errors.New("synthetic dial failure")
			default: // park the client on a quiet healthy link
				cl, sv := net.Pipe()
				select {
				case parked <- sv:
				default:
				}
				return cl, nil
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Four flaps, each a dial "success": the recorded redial delays must
	// follow the growing backoff schedule, not restart from base.
	var sv net.Conn
	select {
	case sv = <-healthy:
	case <-time.After(5 * time.Second):
		t.Fatal("healthy connection never dialed")
	}
	// Prove the connection: any received line counts as traffic.
	if _, err := sv.Write([]byte("\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.proven
	})
	// Drop the proven link: this redial starts from a reset schedule.
	_ = sv.Close()
	waitFor(t, func() bool { return len(rs.snapshot()) >= 5 })

	delays := rs.snapshot()[:5]
	want := NewBackoff(10*time.Millisecond, time.Second, seed)
	for i := 0; i < 4; i++ {
		if w := want.Next(); delays[i] != w {
			t.Fatalf("flap delay %d = %v, want %v (schedule must keep growing across accept-then-close flaps)", i, delays[i], w)
		}
	}
	want.Reset()
	if w := want.Next(); delays[4] != w {
		t.Fatalf("post-proven delay = %v, want %v (reset schedule)", delays[4], w)
	}
	if delays[4] >= delays[3] {
		t.Fatalf("post-proven delay %v did not shrink below flap delay %v", delays[4], delays[3])
	}
}

// TestPongDebtCapped is the heartbeat regression test: owed pongs are a
// bool, not a counter. A burst of pings arriving while the writer is
// wedged is answered with exactly one pong — a pong proves liveness
// idempotently — and owed pongs never inflate Backlog().
func TestPongDebtCapped(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	var (
		dialMu  sync.Mutex
		dials   int
		statsCh = make(chan struct{}, 1)
	)
	c, err := DialConfig("unused", ClientConfig{
		Sleep: blockingSleep,
		Dial: func() (net.Conn, error) {
			dialMu.Lock()
			defer dialMu.Unlock()
			dials++
			if dials == 1 {
				return clientEnd, nil
			}
			return nil, errors.New("synthetic dial failure")
		},
		OnStats: func(Stats) {
			select {
			case statsCh <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Wedge the writer: a queued response blocks mid-write because the
	// peer isn't reading yet (net.Pipe is synchronous).
	if err := c.Send(resp(1, "τpong", core.CacheUpdate, false, "up")); err != nil {
		t.Fatal(err)
	}
	// Only once the writer holds the response in flight: a ping that beat
	// it there would be answered first (pongs jump the queue).
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.inflight) == 1
	})
	// A burst of pings arrives while the writer is blocked; a trailing
	// stats reply proves (in-order) that all three were processed.
	for i := 0; i < 3; i++ {
		if _, err := serverEnd.Write([]byte("{\"type\":\"ping\"}\n")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := serverEnd.Write([]byte("{\"type\":\"stats\",\"stats\":{\"decided\":1}}\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-statsCh:
	case <-time.After(5 * time.Second):
		t.Fatal("stats reply never processed")
	}
	if got := c.Backlog(); got != 1 {
		t.Fatalf("backlog = %d, want 1 (owed pongs are liveness, not payload)", got)
	}

	// Release the writer and read what it sends: the wedged response,
	// exactly one pong, then silence.
	br := bufio.NewReader(serverEnd)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if want := "\"type\":\"response\""; !containsStr(first, want) {
		t.Fatalf("first line = %q, want a response", first)
	}
	second, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if want := "\"type\":\"pong\""; !containsStr(second, want) {
		t.Fatalf("second line = %q, want the single owed pong", second)
	}
	_ = serverEnd.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if line, err := br.ReadString('\n'); err == nil {
		t.Fatalf("unexpected third line %q: ping burst must owe exactly one pong", line)
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("read after pong = %v, want timeout (idle writer)", err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// exerciseCodecPair runs the canonical validate + fault + stats flow over
// one server/client codec pairing and checks results (evidence strings
// included, which cross the binary borrow window) arrive intact.
func exerciseCodecPair(t *testing.T, serverCodec, clientCodec Codec) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := serverConfig(reg)
	cfg.Codec = serverCodec
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var (
		mu      sync.Mutex
		results []core.Result
		stats   []Stats
	)
	c, err := DialConfig(s.Addr(), ClientConfig{
		Codec: clientCodec,
		OnResult: func(r core.Result) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		},
		OnStats: func(st Stats) {
			mu.Lock()
			stats = append(stats, st)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A clean trigger, then a value fault (whose result carries evidence).
	_ = c.Send(resp(1, "τok", core.CacheUpdate, false, "up"))
	_ = c.Send(resp(2, "τok", core.SecondaryExec, true, "up"))
	_ = c.Send(resp(3, "τok", core.SecondaryExec, true, "up"))
	_ = c.Send(resp(1, "τbad", core.CacheUpdate, false, "down"))
	_ = c.Send(resp(2, "τbad", core.SecondaryExec, true, "up"))
	_ = c.Send(resp(3, "τbad", core.SecondaryExec, true, "up"))
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(results) == 2
	})
	if err := c.RequestStats(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(stats) == 1
	})

	mu.Lock()
	defer mu.Unlock()
	var fault *core.Result
	for i := range results {
		if results[i].Verdict == core.VerdictFault {
			fault = &results[i]
		}
	}
	if fault == nil {
		t.Fatalf("no fault result in %+v", results)
	}
	if fault.Trigger != "τbad" || fault.Fault != core.FaultValue || fault.Offender != 1 {
		t.Fatalf("fault = %+v", fault)
	}
	if len(fault.Evidence) == 0 {
		t.Fatalf("fault carried no evidence")
	}
	for _, ev := range fault.Evidence {
		if ev.Trigger != "τbad" || ev.Key != "k" {
			t.Fatalf("evidence corrupted across the wire: %+v", ev)
		}
	}
	if stats[0].Decided != 2 || stats[0].Faults != 1 {
		t.Fatalf("stats = %+v, want decided=2 faults=1", stats[0])
	}
}

// TestCodecCompatMatrix proves the handshake's interoperability promises:
// a binary client against a default (auto) server, an old JSON client
// against a binary-stance server, and a binary client refused loudly by a
// strict-JSON server.
func TestCodecCompatMatrix(t *testing.T) {
	t.Run("binary-client/auto-server", func(t *testing.T) {
		exerciseCodecPair(t, CodecAuto, CodecBinary)
	})
	t.Run("json-client/binary-server", func(t *testing.T) {
		exerciseCodecPair(t, CodecBinary, CodecJSON)
	})
	t.Run("binary-client/binary-server", func(t *testing.T) {
		exerciseCodecPair(t, CodecBinary, CodecBinary)
	})
	t.Run("binary-client/strict-json-server", func(t *testing.T) {
		reg := obs.NewRegistry()
		cfg := serverConfig(reg)
		cfg.Codec = CodecJSON
		s, err := Serve("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c, err := DialConfig(s.Addr(), ClientConfig{Codec: CodecBinary, Sleep: fastSleep})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rejected := reg.Counter("jury_wire_line_errors_total", "", obs.L("reason", "codec"))
		waitFor(t, func() bool { return rejected.Value() >= 1 })
		if got := reg.Counter("jury_wire_responses_total", "").Value(); got != 0 {
			t.Fatalf("responses = %d on a refused codec", got)
		}
	})
}

// TestServerSkipsBadBinaryFrames sends an oversized frame and a garbage
// frame ahead of a valid one on a single binary connection: both are
// counted per reason and neither kills the stream.
func TestServerSkipsBadBinaryFrames(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := serverConfig(reg)
	cfg.MaxLineBytes = 256
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var stream []byte
	stream = append(stream, BinMagic)
	// Oversized: a frame declaring 1024 payload bytes against the 256 cap.
	stream = binary.AppendUvarint(stream, 1024)
	stream = append(stream, make([]byte, 1024)...)
	// Malformed: a well-framed 5-byte payload that is not an envelope.
	stream = append(stream, 5, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	// Valid: one real response.
	r := resp(1, "τframe", core.CacheUpdate, false, "up")
	stream = AppendEnvelope(stream, &Envelope{Type: TypeResponse, Response: &r})
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}

	oversized := reg.Counter("jury_wire_line_errors_total", "", obs.L("reason", "oversize"))
	malformed := reg.Counter("jury_wire_line_errors_total", "", obs.L("reason", "malformed"))
	responses := reg.Counter("jury_wire_responses_total", "")
	waitFor(t, func() bool {
		return oversized.Value() == 1 && malformed.Value() == 1 && responses.Value() == 1
	})
	if open := reg.Gauge("jury_wire_conns_open", "").Value(); open != 1 {
		t.Fatalf("conns open = %v, want 1 (bad frames must not kill the stream)", open)
	}
}

// TestClientRetransmitsAfterMidFrameCut is the binary analog of the
// mid-line cut: the link dies partway through a frame batch, the server
// counts the torn read, and the retained batch is retransmitted on the
// next connection with nothing dropped.
func TestClientRetransmitsAfterMidFrameCut(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Serve("127.0.0.1:0", serverConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := s.Addr()

	var (
		dialMu sync.Mutex
		dials  int
	)
	c, err := DialConfig(addr, ClientConfig{
		Codec: CodecBinary,
		Seed:  3,
		Sleep: fastSleep,
		Dial: func() (net.Conn, error) {
			inner, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			dialMu.Lock()
			dials++
			first := dials == 1
			dialMu.Unlock()
			if first {
				fc := wiretest.Wrap(inner)
				fc.CutAfter(30) // handshake byte + a partial first frame
				return fc, nil
			}
			return inner, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_ = c.Send(resp(1, "τcut", core.CacheUpdate, false, "up"))
	_ = c.Send(resp(2, "τcut", core.SecondaryExec, true, "up"))
	_ = c.Send(resp(3, "τcut", core.SecondaryExec, true, "up"))

	waitFor(t, func() bool { return s.Stats().Decided == 1 })
	if c.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0 (the in-flight batch must be retransmitted)", c.Dropped())
	}
	if c.Reconnects() != 1 {
		t.Fatalf("reconnects = %d, want 1", c.Reconnects())
	}
	// The torn frame surfaced as an unexpected-EOF read error, not a
	// silent close.
	readErrs := reg.Counter("jury_wire_line_errors_total", "", obs.L("reason", "read"))
	if readErrs.Value() != 1 {
		t.Fatalf("read errors = %d, want 1 (the cut frame)", readErrs.Value())
	}
}

// TestBinaryBatchCoalescing proves the write-coalescing contract: a
// backlog drains in batches of at most MaxBatch envelopes per socket
// write, and every envelope still arrives exactly once.
func TestBinaryBatchCoalescing(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Serve("127.0.0.1:0", serverConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := DialConfig(s.Addr(), ClientConfig{
		Codec:     CodecBinary,
		MaxBatch:  8,
		QueueSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const total = 300
	for i := 0; i < total; i++ {
		if err := c.Send(resp(1, trigID("τbatch", i), core.CacheUpdate, false, "up")); err != nil {
			t.Fatal(err)
		}
	}
	responses := reg.Counter("jury_wire_responses_total", "")
	waitFor(t, func() bool { return responses.Value() == total })
	if c.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", c.Dropped())
	}
}
