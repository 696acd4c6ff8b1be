package wire

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

func newServer(t *testing.T, timeout time.Duration) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", ServerConfig{
		Validator: core.ValidatorConfig{K: 2, Timeout: timeout},
		Members:   []store.NodeID{1, 2, 3},
		Switches:  []topo.DPID{1},
		Tick:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func resp(ctrl store.NodeID, trig string, kind core.ResponseKind, tainted bool, value string) core.Response {
	return core.Response{
		Controller:  ctrl,
		Primary:     1,
		Trigger:     trigger.ID(trig),
		Kind:        kind,
		Tainted:     tainted,
		Cache:       store.LinksDB,
		Op:          store.OpCreate,
		Key:         "k",
		Value:       value,
		StateDigest: 7,
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

func TestServerValidatesOverTCP(t *testing.T) {
	s := newServer(t, 500*time.Millisecond)
	var (
		mu      sync.Mutex
		results []core.Result
	)
	c, err := DialConfig(s.Addr(), ClientConfig{OnResult: func(r core.Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A clean external trigger: primary cache write + 2 agreeing execs.
	if err := c.Send(resp(1, "τ1", core.CacheUpdate, false, "up")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(resp(2, "τ1", core.SecondaryExec, true, "up")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(resp(3, "τ1", core.SecondaryExec, true, "up")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(results) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if results[0].Verdict != core.VerdictValid {
		t.Fatalf("verdict = %v", results[0].Verdict)
	}
}

func TestServerDetectsFaultOverTCP(t *testing.T) {
	s := newServer(t, 500*time.Millisecond)
	var (
		mu    sync.Mutex
		fault *core.Result
	)
	c, err := DialConfig(s.Addr(), ClientConfig{OnResult: func(r core.Result) {
		if r.Verdict == core.VerdictFault {
			mu.Lock()
			fault = &r
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Primary disagrees with two same-state secondaries.
	_ = c.Send(resp(1, "τ2", core.CacheUpdate, false, "down"))
	_ = c.Send(resp(2, "τ2", core.SecondaryExec, true, "up"))
	_ = c.Send(resp(3, "τ2", core.SecondaryExec, true, "up"))
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fault != nil
	})
	mu.Lock()
	defer mu.Unlock()
	if fault.Fault != core.FaultValue || fault.Offender != 1 {
		t.Fatalf("fault = %+v", fault)
	}
	if len(s.Alarms()) != 1 {
		t.Fatalf("server alarms = %d", len(s.Alarms()))
	}
}

func TestServerTimerExpiryOverWallClock(t *testing.T) {
	s := newServer(t, 30*time.Millisecond)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Internal trigger decides only at timer expiry, driven by the
	// wall-clock tick loop.
	_ = c.Send(resp(1, "τ3", core.CacheUpdate, false, "up"))
	waitFor(t, func() bool { return s.Stats().Decided == 1 })
	if s.Stats().Timeouts != 1 {
		t.Fatalf("timeouts = %d", s.Stats().Timeouts)
	}
}

func TestStatsRequest(t *testing.T) {
	s := newServer(t, 100*time.Millisecond)
	var (
		mu  sync.Mutex
		got *Stats
	)
	c, err := DialConfig(s.Addr(), ClientConfig{OnStats: func(st Stats) {
		mu.Lock()
		got = &st
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RequestStats(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got != nil
	})
}

func TestServerToleratesGarbageLines(t *testing.T) {
	s := newServer(t, 100*time.Millisecond)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if _, err := conn.Write([]byte("this is not json\n{\"type\":\"bogus\"}\n")); err != nil {
		t.Fatal(err)
	}
	// Still functional afterwards.
	_ = c.Send(resp(1, "τ4", core.CacheUpdate, false, "up"))
	waitFor(t, func() bool { return s.Stats().Decided >= 1 })
}

// TestMultipleClients splits each trigger's responses across two clients
// (modules on different hosts) and checks both receive every broadcast
// result. The mixed row puts a JSON and a binary client on one server: the
// two codecs must deliver identical Result streams, evidence included.
func TestMultipleClients(t *testing.T) {
	for _, tc := range []struct {
		name   string
		codecs [2]Codec
	}{
		{"json", [2]Codec{CodecJSON, CodecJSON}},
		{"mixed", [2]Codec{CodecJSON, CodecBinary}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t, 400*time.Millisecond)
			var (
				mu       sync.Mutex
				received [2][]core.Result
				clients  [2]*Client
			)
			for i, codec := range tc.codecs {
				i := i
				c, err := DialConfig(s.Addr(), ClientConfig{
					Codec: codec,
					OnResult: func(r core.Result) {
						mu.Lock()
						received[i] = append(received[i], r)
						mu.Unlock()
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}
			c1, c2 := clients[0], clients[1]
			_ = c1.Send(resp(1, "τ5", core.CacheUpdate, false, "up"))
			_ = c2.Send(resp(2, "τ5", core.SecondaryExec, true, "up"))
			_ = c1.Send(resp(3, "τ5", core.SecondaryExec, true, "up"))
			// A value fault, whose result carries evidence.
			_ = c2.Send(resp(1, "τ6", core.CacheUpdate, false, "down"))
			_ = c1.Send(resp(2, "τ6", core.SecondaryExec, true, "up"))
			_ = c2.Send(resp(3, "τ6", core.SecondaryExec, true, "up"))
			waitFor(t, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(received[0]) == 2 && len(received[1]) == 2 // broadcast to both clients
			})
			mu.Lock()
			defer mu.Unlock()
			if !reflect.DeepEqual(received[0], received[1]) {
				t.Fatalf("clients received different results:\n%s: %+v\n%s: %+v",
					tc.codecs[0], received[0], tc.codecs[1], received[1])
			}
			evidence := 0
			for _, r := range received[1] {
				for _, ev := range r.Evidence {
					if ev.Trigger != r.Trigger || ev.Key != "k" {
						t.Fatalf("evidence corrupted across the wire: %+v", ev)
					}
					evidence++
				}
			}
			if evidence == 0 {
				t.Fatalf("no result carried evidence: %+v", received[1])
			}
		})
	}
}

// TestServeRejectsEmptyMembership: both entry points refuse a deployment
// with no members, and ServeListener, which owns the listener it is
// given, closes it on the way out.
func TestServeRejectsEmptyMembership(t *testing.T) {
	for _, tc := range []struct {
		name  string
		serve func() (*Server, net.Listener, error)
	}{
		{"Serve", func() (*Server, net.Listener, error) {
			s, err := Serve("127.0.0.1:0", ServerConfig{})
			return s, nil, err
		}},
		{"ServeListener", func() (*Server, net.Listener, error) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			s, err := ServeListener(ln, ServerConfig{})
			return s, ln, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ln, err := tc.serve()
			if err == nil {
				_ = s.Close()
				t.Fatal("expected error")
			}
			if ln == nil {
				return
			}
			done := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err == nil {
					_ = conn.Close()
				}
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, net.ErrClosed) {
					t.Fatalf("Accept after the refusal = %v, want net.ErrClosed", err)
				}
			case <-time.After(time.Second):
				_ = ln.Close()
				t.Fatal("ServeListener leaked its listener: Accept still blocks")
			}
		})
	}
}

// TestServerWithInjectedClock freezes the service clock: a pending
// trigger must not time out on wall time, then must time out as soon as
// the injected clock jumps past the validation timeout.
func TestServerWithInjectedClock(t *testing.T) {
	var (
		mu   sync.Mutex
		fake = time.Unix(5000, 0)
	)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return fake
	}
	s, err := Serve("127.0.0.1:0", ServerConfig{
		Validator: core.ValidatorConfig{K: 2, Timeout: 50 * time.Millisecond},
		Members:   []store.NodeID{1, 2, 3},
		Switches:  []topo.DPID{1},
		Tick:      time.Millisecond,
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One lonely primary response: with a live clock this would time out
	// after 50ms; with the clock frozen it must stay pending.
	if err := c.Send(resp(1, "τf", core.CacheUpdate, false, "up")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Pending == 1 })
	time.Sleep(100 * time.Millisecond) // far beyond the 50ms timeout
	if st := s.Stats(); st.Timeouts != 0 || st.Pending != 1 {
		t.Fatalf("frozen clock still produced decisions: %+v", st)
	}

	mu.Lock()
	fake = fake.Add(time.Second)
	mu.Unlock()
	waitFor(t, func() bool { return s.Stats().Timeouts == 1 })
}

// TestServerShardPlaneBroadcastUnderBackpressure is the regression test
// for the plane-mode broadcast deadlock: with depth-1 shard queues, a
// connected client receiving every result, and a sustained submit
// stream, workers deliver results while the dispatcher is blocked on
// their full intake queues. Result delivery must never wait on the
// dispatch lock — under the old locking (broadcast re-acquiring s.mu
// from worker goroutines) this test wedged the server permanently.
func TestServerShardPlaneBroadcastUnderBackpressure(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testBroadcastUnderBackpressure(t, shards)
		})
	}
}

func testBroadcastUnderBackpressure(t *testing.T, shards int) {
	s, err := Serve("127.0.0.1:0", ServerConfig{
		Validator:  core.ValidatorConfig{K: 2, Timeout: 500 * time.Millisecond},
		Members:    []store.NodeID{1, 2, 3},
		Switches:   []topo.DPID{1},
		Tick:       time.Millisecond,
		Shards:     shards,
		QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var (
		rmu     sync.Mutex
		results int
	)
	c, err := DialConfig(s.Addr(), ClientConfig{OnResult: func(core.Result) {
		rmu.Lock()
		results++
		rmu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const triggers = 200
	for i := 0; i < triggers; i++ {
		trig := fmt.Sprintf("τ%d", i)
		if err := c.Send(resp(1, trig, core.CacheUpdate, false, "up")); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(resp(2, trig, core.SecondaryExec, true, "up")); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(resp(3, trig, core.SecondaryExec, true, "up")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		rmu.Lock()
		defer rmu.Unlock()
		return results == triggers
	})
	if st := s.Stats(); st.Decided != triggers || st.Valid != triggers {
		t.Fatalf("stats = %+v, want %d valid decisions", st, triggers)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after backpressure load: %v", err)
	}
}
