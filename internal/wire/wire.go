// Package wire runs JURY's out-of-band validator as a real network
// service: controller modules stream responses over TCP, and the
// validator pushes alarms back to every connected client. This is the
// deployment shape of Fig. 2 — the validator on a separate host reachable
// over an out-of-band network — whereas the simulation embeds the
// validator in-process.
//
// Two codecs share the socket, selected per connection by a one-byte
// compat handshake (see Codec): the original newline-delimited JSON
// protocol, and a length-prefixed binary framing (AppendEnvelope /
// BinReader) whose hot path allocates nothing — pooled encode buffers,
// batched write coalescing in the client, and decode that borrows from
// the connection's read buffer. Old JSON-only peers interoperate with
// binary-capable ones with no configuration.
//
// The bridge is built to degrade loudly, never silently, when the network
// misbehaves:
//
//   - Framing is explicit: lines are read through a LineReader (frames
//     through a BinReader) with a configurable MaxLineBytes cap. An
//     oversized or malformed line or frame is rejected and counted (per
//     reason, on the obs registry) without killing the connection;
//     genuine read errors are counted before the connection dies.
//   - The Client reconnects: sends go through a bounded outgoing queue
//     with shed-oldest backpressure and a Dropped() counter, and a single
//     writer goroutine re-dials with exponential backoff and seeded
//     jitter whenever the link drops, so a validator restart mid-run
//     loses at most the bounded backlog — and that loss is visible.
//   - The Server backs off on persistent Accept errors, refuses to leak
//     connections past Close, and reaps half-open peers with
//     TypePing/TypePong heartbeats on idle connections.
//
// Wall-clock reads are confined to annotated boundary code (the default
// ServerConfig.Clock, the default backoff sleeper, and socket write
// deadlines); tests inject clocks, sleepers and dialers so every failure
// schedule is deterministic. Package wiretest provides fault-injecting
// net.Conn wrappers to prove the above under the race detector.
package wire

import (
	"time"

	"github.com/jurysdn/jury/internal/core"
)

// MsgType discriminates protocol envelopes.
type MsgType string

// Protocol message types.
const (
	// TypeResponse carries one controller response toward the validator.
	TypeResponse MsgType = "response"
	// TypeResult carries one validation result back to clients.
	TypeResult MsgType = "result"
	// TypeStats carries aggregate counters on request.
	TypeStats MsgType = "stats"
	// TypePing is a server-initiated heartbeat probe on an idle
	// connection; peers answer with TypePong. Any received line counts
	// as liveness, so a busy connection is never probed.
	TypePing MsgType = "ping"
	// TypePong answers a TypePing.
	TypePong MsgType = "pong"
)

// Envelope is one JSON line on the wire.
type Envelope struct {
	Type     MsgType        `json:"type"`
	Response *core.Response `json:"response,omitempty"`
	Result   *core.Result   `json:"result,omitempty"`
	Stats    *Stats         `json:"stats,omitempty"`
	// Trace carries the sender's span context for cross-process trace
	// stitching. Optional and compat-safe: old peers omit it and ignore
	// it; nothing in the validation path depends on it.
	Trace *TraceContext `json:"trace,omitempty"`
}

// TraceContext is the span context a client stamps on its envelopes so
// the validator can align the two processes' virtual clocks and a
// stitcher (obs.Stitch*) can merge their JSONL traces onto one timeline.
type TraceContext struct {
	// Origin names the sending process ("jurylive"); it becomes the
	// Chrome-trace process row after stitching.
	Origin string `json:"origin"`
	// BaseNS is the sender's virtual clock at send time. The receiver
	// pairs it with its own elapsed time on arrival to estimate the
	// clock-base shift between the two processes (wire.Server.TraceOrigins
	// reports the estimate per origin).
	BaseNS int64 `json:"base_ns"` // sender virtual clock at send time
}

// Stats summarizes the validator state.
type Stats struct {
	Decided  int64 `json:"decided"`
	Valid    int64 `json:"valid"`
	Faults   int64 `json:"faults"`
	Timeouts int64 `json:"timeouts"`
	Pending  int   `json:"pending"`
}

// Tunables shared by both ends of the bridge. Zero values in the configs
// select these defaults; negative values disable the knob where
// disabling is meaningful.
const (
	// DefaultMaxLineBytes caps one protocol line (payload, excluding the
	// newline).
	DefaultMaxLineBytes = 1 << 20
	// DefaultHeartbeatEvery is how long a server connection may sit idle
	// before it is probed with a TypePing.
	DefaultHeartbeatEvery = 15 * time.Second
	// DefaultIdleTimeout is how long a server connection may sit idle
	// (no lines received, pings unanswered) before it is reaped.
	DefaultIdleTimeout = 60 * time.Second
	// DefaultWriteTimeout bounds every socket write of the server and
	// the client, so a stalled peer cannot wedge the writer.
	DefaultWriteTimeout = 10 * time.Second
	// DefaultQueueSize is the client's bounded outgoing queue length.
	DefaultQueueSize = 1024
	// DefaultReconnectBase seeds the client's redial backoff.
	DefaultReconnectBase = 50 * time.Millisecond
	// DefaultReconnectMax caps the client's redial backoff.
	DefaultReconnectMax = 5 * time.Second

	// acceptBackoffBase/Max bound the server's Accept-error backoff
	// (e.g. EMFILE storms must not peg a core).
	acceptBackoffBase = 5 * time.Millisecond
	acceptBackoffMax  = time.Second
)

// sleepFunc waits for d or until cancel closes; it reports false when
// cancelled. Both Server and Client take one so tests can collapse every
// backoff schedule to zero wall time while recording it.
type sleepFunc func(d time.Duration, cancel <-chan struct{}) bool

// defaultSleep is the real-time sleeper.
func defaultSleep(d time.Duration, cancel <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cancel:
		return false
	}
}
