package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/wire/wiretest"
)

// fastSleep is an injected sleeper that honors cancellation but returns
// immediately, collapsing backoff schedules to zero wall time.
func fastSleep(_ time.Duration, cancel <-chan struct{}) bool {
	select {
	case <-cancel:
		return false
	default:
		return true
	}
}

// recordingSleep collects every requested delay (for schedule assertions)
// and returns immediately.
type recordingSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (rs *recordingSleep) sleep(d time.Duration, cancel <-chan struct{}) bool {
	rs.mu.Lock()
	rs.delays = append(rs.delays, d)
	rs.mu.Unlock()
	select {
	case <-cancel:
		return false
	default:
		return true
	}
}

func (rs *recordingSleep) snapshot() []time.Duration {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]time.Duration(nil), rs.delays...)
}

func serverConfig(reg *obs.Registry) ServerConfig {
	return ServerConfig{
		Validator: core.ValidatorConfig{K: 2, Timeout: 500 * time.Millisecond},
		Members:   []store.NodeID{1, 2, 3},
		Switches:  []topo.DPID{1},
		Tick:      time.Millisecond,
		Metrics:   reg,
	}
}

// TestClientSurvivesServerRestart is the headline resilience scenario: a
// juryd restart mid-stream loses at most the bounded-queue backlog, the
// loss is visible on Dropped(), and the retained backlog is delivered to
// the restarted server.
func TestClientSurvivesServerRestart(t *testing.T) {
	reg1 := obs.NewRegistry()
	s1, err := Serve("127.0.0.1:0", serverConfig(reg1))
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr()

	const queueSize = 8
	c, err := DialConfig(addr, ClientConfig{
		QueueSize: queueSize,
		Seed:      7,
		Sleep:     fastSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Phase 1: a full complement validates over the live link.
	if err := c.Send(resp(1, "τr", core.CacheUpdate, false, "up")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(resp(2, "τr", core.SecondaryExec, true, "up")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(resp(3, "τr", core.SecondaryExec, true, "up")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s1.Stats().Decided == 1 })

	// Phase 2: the server dies mid-run.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !c.Connected() })

	// Sends during the outage never block and never fail; the bounded
	// queue sheds its oldest entries once full.
	const during = 20
	for i := 0; i < during; i++ {
		if err := c.Send(resp(1, trigID("τout", i), core.CacheUpdate, false, "up")); err != nil {
			t.Fatalf("send during outage: %v", err)
		}
	}
	wantDropped := int64(during - queueSize)
	waitFor(t, func() bool { return c.Dropped() == wantDropped })
	if got := c.Backlog(); got != queueSize {
		t.Fatalf("backlog = %d, want %d", got, queueSize)
	}

	// Phase 3: the server restarts on the same address; the client
	// reconnects transparently and delivers exactly the retained backlog.
	reg2 := obs.NewRegistry()
	s2 := restartServer(t, addr, reg2)
	defer s2.Close()
	delivered := reg2.Counter("jury_wire_responses_total", "")

	waitFor(t, func() bool { return c.Connected() })
	waitFor(t, func() bool { return delivered.Value() == queueSize })
	if c.Reconnects() < 1 {
		t.Fatalf("reconnects = %d, want >= 1", c.Reconnects())
	}
	if c.Dropped() != wantDropped {
		t.Fatalf("dropped moved after reconnect: %d, want %d", c.Dropped(), wantDropped)
	}
	// Total accounting: everything sent during the outage is either
	// delivered or counted dropped — loss is never silent.
	if delivered.Value()+c.Dropped() != during {
		t.Fatalf("delivered %d + dropped %d != sent %d",
			delivered.Value(), c.Dropped(), during)
	}
}

// restartServer rebinds addr, retrying briefly in case the old listener's
// port is still being released by the kernel.
func restartServer(t *testing.T, addr string, reg *obs.Registry) *Server {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := Serve(addr, serverConfig(reg))
		if err == nil {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func trigID(prefix string, i int) string { return fmt.Sprintf("%s-%d", prefix, i) }

// TestServerRejectsOversizedLineWithoutKillingConn sends a line over the
// configured cap followed by a valid complement on the same connection:
// the oversized line is counted and skipped, the connection survives, and
// validation proceeds.
func TestServerRejectsOversizedLineWithoutKillingConn(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := serverConfig(reg)
	cfg.MaxLineBytes = 512
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

	big := make([]byte, 8*1024)
	for i := range big {
		big[i] = 'a'
	}
	big = append(big, '\n')
	if _, err := conn.Write(big); err != nil {
		t.Fatal(err)
	}
	oversized := reg.Counter("jury_wire_line_errors_total", "", obs.L("reason", "oversize"))
	waitFor(t, func() bool { return oversized.Value() == 1 })

	// Same connection, now well-formed traffic: it must still work.
	for i, r := range []core.Response{
		resp(1, "τo", core.CacheUpdate, false, "up"),
		resp(2, "τo", core.SecondaryExec, true, "up"),
		resp(3, "τo", core.SecondaryExec, true, "up"),
	} {
		line, err := json.Marshal(Envelope{Type: TypeResponse, Response: &r})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append(line, '\n')); err != nil {
			t.Fatalf("write %d after oversize: %v", i, err)
		}
	}
	waitFor(t, func() bool { return s.Stats().Decided == 1 })
	if open := reg.Gauge("jury_wire_conns_open", "").Value(); open != 1 {
		t.Fatalf("conns open = %v, want 1 (conn must survive the oversize)", open)
	}
}

// TestServerCloseUnderAcceptStorm closes the server while clients dial in
// a tight loop: Close must return promptly, and no connection registered
// concurrently with the close may leak past it.
func TestServerCloseUnderAcceptStorm(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Serve("127.0.0.1:0", serverConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()

	stop := make(chan struct{})
	var dialers sync.WaitGroup
	for i := 0; i < 4; i++ {
		dialers.Add(1)
		go func() {
			defer dialers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					continue // listener gone: keep storming until told to stop
				}
				_, _ = conn.Write([]byte("{\"type\":\"stats\"}\n"))
				_ = conn.Close()
			}
		}()
	}

	// Give the storm a moment to get conns in flight.
	time.Sleep(20 * time.Millisecond)

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close did not return under accept storm")
	}
	close(stop)
	dialers.Wait()

	s.mu.Lock()
	leaked := len(s.conns)
	s.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d connections leaked past Close", leaked)
	}
	if open := reg.Gauge("jury_wire_conns_open", "").Value(); open != 0 {
		t.Fatalf("conns open after Close = %v", open)
	}
}

// TestConcurrentSendsUnderRace hammers one client from many goroutines —
// Send, RequestStats, and the heartbeat path all share the single writer —
// and verifies every envelope arrives exactly once. Run with -race this
// is the encoder-sharing regression test.
func TestConcurrentSendsUnderRace(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Serve("127.0.0.1:0", serverConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var (
		statsMu sync.Mutex
		statsN  int
	)
	c, err := DialConfig(s.Addr(), ClientConfig{
		QueueSize: 4096, // roomy: this test asserts zero shedding
		OnStats: func(Stats) {
			statsMu.Lock()
			statsN++
			statsMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		goroutines = 8
		perG       = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r := resp(1, trigID(fmt.Sprintf("τg%d", g), i), core.CacheUpdate, false, "up")
				if err := c.Send(r); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := c.RequestStats(); err != nil {
				t.Errorf("stats: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	delivered := reg.Counter("jury_wire_responses_total", "")
	waitFor(t, func() bool { return delivered.Value() == goroutines*perG })
	waitFor(t, func() bool {
		statsMu.Lock()
		defer statsMu.Unlock()
		return statsN == 20
	})
	if c.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", c.Dropped())
	}
}

// TestHeartbeatReapsHalfOpenPeer drives the heartbeat sweep with an
// injected clock: a raw peer that never answers pings is reaped at the
// idle horizon, while a wire.Client (which answers pings) survives the
// same horizon.
func TestHeartbeatReapsHalfOpenPeer(t *testing.T) {
	var (
		clockMu sync.Mutex
		fake    = time.Unix(9000, 0)
	)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return fake
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		fake = fake.Add(d)
		clockMu.Unlock()
	}

	reg := obs.NewRegistry()
	cfg := serverConfig(reg)
	cfg.Clock = clock
	cfg.HeartbeatEvery = 15 * time.Second
	cfg.IdleTimeout = 60 * time.Second
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	open := reg.Gauge("jury_wire_conns_open", "")
	pings := reg.Counter("jury_wire_pings_sent_total", "")
	pongs := reg.Counter("jury_wire_pongs_received_total", "")
	reaped := reg.Counter("jury_wire_conns_reaped_idle_total", "")

	// A half-open peer: accepts pings into its socket buffer, never
	// replies, never reads.
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A well-behaved client that answers pings.
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, func() bool { return open.Value() == 2 })

	// Past the heartbeat horizon: both idle conns get pinged; only the
	// wire client pongs back.
	advance(16 * time.Second)
	waitFor(t, func() bool { return pings.Value() >= 2 })
	waitFor(t, func() bool { return pongs.Value() >= 1 })

	// Past the idle horizon for the silent peer only (the client's pong
	// refreshed its liveness).
	advance(45 * time.Second)
	waitFor(t, func() bool { return reaped.Value() == 1 })
	waitFor(t, func() bool { return open.Value() == 1 })
	if !c.Connected() {
		t.Fatal("well-behaved client was reaped")
	}
	// The reaped peer's socket is actually closed.
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := raw.Read(buf); err != nil {
			break // EOF (or reset): the server really hung up
		}
	}
}

// TestAcceptBackoffSchedule scripts a burst of Accept failures through a
// fault listener and pins the resulting backoff delays to the seeded
// schedule — no hot spin, reset on the next success.
func TestAcceptBackoffSchedule(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := wiretest.WrapListener(ln)
	const failures = 5
	fl.FailAccepts(failures, errors.New("synthetic accept failure"))

	rs := &recordingSleep{}
	reg := obs.NewRegistry()
	cfg := serverConfig(reg)
	cfg.Sleep = rs.sleep
	s, err := ServeListener(fl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	acceptErrs := reg.Counter("jury_wire_accept_errors_total", "")
	waitFor(t, func() bool { return acceptErrs.Value() == failures })
	waitFor(t, func() bool { return len(rs.snapshot()) >= failures })

	// The schedule is exactly the seeded backoff's: deterministic, capped,
	// never zero (the hot-spin bug).
	want := NewBackoff(acceptBackoffBase, acceptBackoffMax, 1)
	got := rs.snapshot()[:failures]
	for i, d := range got {
		if w := want.Next(); d != w {
			t.Fatalf("delay %d = %v, want %v", i, d, w)
		}
		if d <= 0 {
			t.Fatalf("delay %d is %v: accept loop would hot-spin", i, d)
		}
	}

	// After the scripted failures the listener recovers and real clients
	// connect (the backoff reset on success).
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, func() bool { return reg.Gauge("jury_wire_conns_open", "").Value() == 1 })
}

// TestClientRedialScheduleDeterministic pins the client's redial delays
// to the same-seed backoff schedule.
func TestClientRedialScheduleDeterministic(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	var (
		dialMu sync.Mutex
		dials  int
	)
	rs := &recordingSleep{}
	const seed = 99
	c, err := DialConfig("unused", ClientConfig{
		ReconnectBase: 10 * time.Millisecond,
		ReconnectMax:  time.Second,
		Seed:          seed,
		Sleep:         rs.sleep,
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

	// Kill the link: every redial now fails, each attempt backed off.
	_ = serverEnd.Close()
	const samples = 6
	waitFor(t, func() bool { return len(rs.snapshot()) >= samples })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	want := NewBackoff(10*time.Millisecond, time.Second, seed)
	for i, d := range rs.snapshot()[:samples] {
		if w := want.Next(); d != w {
			t.Fatalf("redial delay %d = %v, want %v", i, d, w)
		}
	}
}

// TestClientCloseCountsUndeliveredBacklog: envelopes still queued when the
// client closes are accounted on Dropped(), not silently discarded.
func TestClientCloseCountsUndeliveredBacklog(t *testing.T) {
	s, err := Serve("127.0.0.1:0", serverConfig(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	c, err := DialConfig(addr, ClientConfig{Sleep: fastSleep})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !c.Connected() })

	const backlog = 5
	for i := 0; i < backlog; i++ {
		if err := c.Send(resp(1, trigID("τz", i), core.CacheUpdate, false, "up")); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Backlog(); got != backlog {
		t.Fatalf("backlog = %d, want %d", got, backlog)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Dropped() != backlog {
		t.Fatalf("dropped = %d, want %d (undelivered backlog must be accounted)", c.Dropped(), backlog)
	}
	if err := c.Send(resp(1, "τpost", core.CacheUpdate, false, "up")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("send after close = %v, want ErrClientClosed", err)
	}
}

// TestServerToleratesInjectedGarbageMidStream interleaves garbage bytes
// into an otherwise healthy client link via the fault wrapper and checks
// the server keeps validating.
func TestServerToleratesInjectedGarbageMidStream(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Serve("127.0.0.1:0", serverConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := s.Addr()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	write := func(r core.Response) {
		t.Helper()
		line, err := json.Marshal(Envelope{Type: TypeResponse, Response: &r})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	write(resp(1, "τm", core.CacheUpdate, false, "up"))
	if _, err := conn.Write([]byte("\x00\x01garbage{{{\n")); err != nil {
		t.Fatal(err)
	}
	write(resp(2, "τm", core.SecondaryExec, true, "up"))
	if _, err := conn.Write([]byte("not json either\n")); err != nil {
		t.Fatal(err)
	}
	write(resp(3, "τm", core.SecondaryExec, true, "up"))

	waitFor(t, func() bool { return s.Stats().Decided == 1 })
	malformed := reg.Counter("jury_wire_line_errors_total", "", obs.L("reason", "malformed"))
	if malformed.Value() != 2 {
		t.Fatalf("malformed = %d, want 2", malformed.Value())
	}
}
