package wire

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
)

// TestEnvelopeTraceContextCompat asserts the trace field is compat-safe:
// envelopes without it (old senders) decode clean, envelopes with it
// round-trip, and untraced envelopes don't emit it.
func TestEnvelopeTraceContextCompat(t *testing.T) {
	var legacy Envelope
	if err := json.Unmarshal([]byte(`{"type":"response"}`), &legacy); err != nil {
		t.Fatalf("legacy envelope rejected: %v", err)
	}
	if legacy.Trace != nil {
		t.Fatal("legacy envelope grew a trace context")
	}
	plain, err := json.Marshal(Envelope{Type: TypeResponse})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "trace") {
		t.Fatalf("untraced envelope leaks the trace field: %s", plain)
	}
	env := Envelope{Type: TypeResponse, Trace: &TraceContext{Origin: "jurylive", BaseNS: 1500}}
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var back Envelope
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace == nil || back.Trace.Origin != "jurylive" || back.Trace.BaseNS != 1500 {
		t.Fatalf("trace context round-trip = %+v", back.Trace)
	}
}

// TestServerTraceShiftEstimation asserts a traced server learns each
// client origin's clock-base shift from the first stamped envelope and
// exports a stitchable span trace.
func TestServerTraceShiftEstimation(t *testing.T) {
	s, err := Serve("127.0.0.1:0", ServerConfig{
		Validator: core.ValidatorConfig{K: 2, Timeout: 500 * time.Millisecond},
		Members:   []store.NodeID{1, 2, 3},
		Switches:  []topo.DPID{1},
		Tick:      time.Millisecond,
		Tracing:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	var clock struct {
		mu  sync.Mutex
		now time.Duration
	}
	var (
		mu      sync.Mutex
		results int
	)
	c, err := DialConfig(s.Addr(), ClientConfig{
		Trace: &TraceContext{Origin: "ctrl-A"},
		TraceNow: func() time.Duration {
			clock.mu.Lock()
			defer clock.mu.Unlock()
			return clock.now
		},
		OnResult: func(core.Result) { mu.Lock(); results++; mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clock.mu.Lock()
	clock.now = 42 * time.Millisecond
	clock.mu.Unlock()
	_ = c.Send(resp(1, "τs", core.CacheUpdate, false, "up"))
	_ = c.Send(resp(2, "τs", core.SecondaryExec, true, "up"))
	_ = c.Send(resp(3, "τs", core.SecondaryExec, true, "up"))
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return results == 1
	})
	origins := s.TraceOrigins()
	if _, ok := origins["ctrl-A"]; !ok {
		t.Fatalf("trace origins = %v, want ctrl-A", origins)
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"validate"`) {
		t.Fatalf("server trace has no validate span:\n%s", buf.String())
	}
}

// TestServerWriteTraceUntraced asserts WriteTrace fails loudly when
// tracing was never enabled, instead of writing an empty file.
func TestServerWriteTraceUntraced(t *testing.T) {
	s := newServer(t, 500*time.Millisecond)
	if err := s.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTrace succeeded on an untraced server")
	}
}
