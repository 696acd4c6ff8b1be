package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/obs"
)

// ErrClientClosed reports a Send or RequestStats on a closed client.
var ErrClientClosed = errors.New("wire: client closed")

// ClientConfig parameterizes a validator client.
type ClientConfig struct {
	// Codec selects the wire encoding: CodecJSON (the zero value) keeps
	// the newline-delimited JSON protocol; CodecBinary sends the one-byte
	// handshake at connect and speaks length-prefixed binary frames both
	// ways.
	Codec Codec
	// MaxLineBytes caps one received protocol line or binary frame
	// (default DefaultMaxLineBytes).
	MaxLineBytes int
	// QueueSize bounds the outgoing queue (default DefaultQueueSize).
	// When the queue is full the oldest entry is shed and counted on
	// Dropped() — backpressure never blocks the caller and loss is
	// never silent.
	QueueSize int
	// MaxBatch caps how many queued envelopes — lines or frames — one
	// socket write coalesces (default DefaultMaxBatch).
	MaxBatch int
	// ReconnectBase/ReconnectMax bound the redial backoff envelope
	// (defaults DefaultReconnectBase/DefaultReconnectMax).
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// Seed drives the backoff jitter RNG, so a seed fully determines
	// the redial schedule (default 1).
	Seed int64
	// Dial opens one connection to the service; nil selects plain TCP
	// to the address given to DialConfig. Tests wrap the returned conn
	// in wiretest fault injectors here.
	Dial func() (net.Conn, error)
	// Sleep waits between redial attempts; nil selects the real-time
	// sleeper. Tests inject one to record and collapse the schedule.
	Sleep func(d time.Duration, cancel <-chan struct{}) bool
	// Metrics optionally publishes the jury_wire_client_* families.
	Metrics *obs.Registry
	// Trace, when set, is the span-context template stamped onto every
	// outgoing response envelope (Origin copied verbatim, BaseNS refreshed
	// from TraceNow at enqueue time) so the server can stitch this
	// client's trace against its own. Old servers ignore the field.
	Trace *TraceContext
	// TraceNow reads the sender's virtual clock for Trace.BaseNS; nil
	// freezes BaseNS at the template value. Called on the Send caller's
	// goroutine, so a single-goroutine clock (a simnet engine driven by
	// the same event loop that calls Send) is safe.
	TraceNow func() time.Duration
	// OnResult observes pushed validation results.
	OnResult func(core.Result)
	// OnStats observes stats replies.
	OnStats func(Stats)
}

// DefaultMaxBatch is the client's write-coalescing cap: one socket write
// carries at most this many envelopes.
const DefaultMaxBatch = 64

func (cfg *ClientConfig) fillDefaults() {
	if cfg.MaxLineBytes == 0 {
		cfg.MaxLineBytes = DefaultMaxLineBytes
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.ReconnectBase <= 0 {
		cfg.ReconnectBase = DefaultReconnectBase
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = DefaultReconnectMax
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Sleep == nil {
		cfg.Sleep = defaultSleep
	}
}

// clientMetrics are the client-side lifecycle families.
type clientMetrics struct {
	dropped     *obs.Counter
	reconnects  *obs.Counter
	dialErrors  *obs.Counter
	disconnects *obs.Counter
	lineErrors  *obs.Counter
}

func newClientMetrics(reg *obs.Registry) *clientMetrics {
	if reg == nil {
		return &clientMetrics{
			dropped:     &obs.Counter{},
			reconnects:  &obs.Counter{},
			dialErrors:  &obs.Counter{},
			disconnects: &obs.Counter{},
			lineErrors:  &obs.Counter{},
		}
	}
	return &clientMetrics{
		dropped: reg.Counter("jury_wire_client_dropped_total",
			"Outgoing envelopes shed by the bounded queue or abandoned at Close."),
		reconnects: reg.Counter("jury_wire_client_reconnects_total",
			"Successful re-dials after a lost connection."),
		dialErrors: reg.Counter("jury_wire_client_dial_errors_total",
			"Failed dial attempts (each backed off)."),
		disconnects: reg.Counter("jury_wire_client_disconnects_total",
			"Established connections lost."),
		lineErrors: reg.Counter("jury_wire_client_line_errors_total",
			"Received lines or frames rejected (oversized or malformed)."),
	}
}

// queued is one outgoing envelope as the client holds it, in the ring and
// in flight: the bodies a client ever sends (a response, its trace
// context) by value, so queueing a response allocates nothing. An
// Envelope's pointers are aimed at the slot only while it is encoded.
type queued struct {
	// typ is the envelope type as its wire byte (binType), not the MsgType
	// string: escape analysis does not tell a struct's fields apart, so
	// storing the caller's string would drag the caller's body pointers —
	// and with them every sent response — to the heap.
	typ      byte
	resp     core.Response
	trace    TraceContext
	hasResp  bool
	hasTrace bool
}

// hold copies env's bodies into a slot; env's pointers are not retained.
func hold(env Envelope) queued {
	q := queued{typ: binType(env.Type)}
	if env.Response != nil {
		q.resp, q.hasResp = *env.Response, true
	}
	if env.Trace != nil {
		q.trace, q.hasTrace = *env.Trace, true
	}
	return q
}

// envelope returns the wire envelope of a slot, pointing into it: valid
// while the slot stays put, which the retained in-flight batch does until
// its write succeeds.
func (q *queued) envelope() Envelope {
	env := Envelope{}
	env.Type, _ = typeFromBin(q.typ)
	if q.hasResp {
		env.Response = &q.resp
	}
	if q.hasTrace {
		env.Trace = &q.trace
	}
	return env
}

// envRing is the client's bounded outgoing queue: a fixed-capacity ring
// whose backing array is allocated once and never grows. The previous
// slice queue advanced its head with queue[1:] and appended, so shed
// envelopes stayed referenced by the old backing array and sustained
// shed/append cycles regrew it without bound; the ring overwrites the
// oldest slot in place instead.
type envRing struct {
	buf  []queued
	head int // index of the oldest entry
	n    int // live entries
}

func (r *envRing) init(capacity int) { r.buf = make([]queued, capacity) }

// push appends env, shedding the oldest entry in place when full; it
// reports whether an entry was shed.
func (r *envRing) push(env Envelope) (shed bool) {
	if r.n == len(r.buf) {
		r.buf[r.head] = hold(env) // shed oldest: fresh state beats stale state
		r.head = (r.head + 1) % len(r.buf)
		return true
	}
	r.buf[(r.head+r.n)%len(r.buf)] = hold(env)
	r.n++
	return false
}

// pop removes and returns the oldest entry, zeroing its slot so popped
// envelopes do not pin their response bodies until overwritten.
func (r *envRing) pop() (queued, bool) {
	if r.n == 0 {
		return queued{}, false
	}
	q := r.buf[r.head]
	r.buf[r.head] = queued{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return q, true
}

func (r *envRing) len() int { return r.n }

// Client streams responses to a validator service and receives results.
// Sends enqueue into a bounded ring drained by a single writer goroutine
// that owns the connection: when the link drops, the writer re-dials
// with exponential backoff and seeded jitter, and the batch being
// written when the link died is retransmitted first. A validator restart
// mid-run therefore loses at most the bounded backlog, and every shed
// envelope is visible on Dropped().
type Client struct {
	cfg  ClientConfig
	addr string
	m    *clientMetrics

	mu   sync.Mutex
	ring envRing // guarded by mu
	// inflight is the write unit taken but not yet acknowledged by a
	// successful socket write: up to MaxBatch envelopes. Retained across a
	// reconnect and retransmitted first.
	inflight []queued // guarded by mu
	// pongDebt records that a heartbeat ping arrived and a pong is owed.
	// It is a bool, not a counter: a pong proves liveness idempotently,
	// so a flapping link that delivers a burst of pings is answered
	// once instead of burning writes on stale pongs ahead of real data.
	pongDebt bool     // guarded by mu
	conn     net.Conn // guarded by mu
	// proven marks the current connection as having carried at least one
	// successful write or read. The redial backoff only resets after a
	// proven connection: a server that accepts and immediately drops
	// (crash loop) keeps the schedule growing instead of being re-dialed
	// at the base interval forever.
	proven    bool // guarded by mu
	connected bool // guarded by mu
	closed    bool // guarded by mu

	kick chan struct{}
	stop chan struct{}
	done sync.WaitGroup
}

// Dial connects to a validator service with default resilience settings.
// The first dial is synchronous (a bad address fails fast); afterwards
// the client re-dials transparently whenever the link drops.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, ClientConfig{})
}

// DialConfig connects to a validator service. See Dial.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	cfg.fillDefaults()
	c := &Client{
		cfg:  cfg,
		addr: addr,
		m:    newClientMetrics(cfg.Metrics),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	c.ring.init(cfg.QueueSize)
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("wire: dial: %w", err)
	}
	if err := c.handshake(conn); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	c.conn = conn
	c.connected = true
	c.done.Add(2)
	go c.readLoop(conn)
	go c.writeLoop()
	return c, nil
}

func (c *Client) dial() (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial()
	}
	return net.Dial("tcp", c.addr)
}

// handshake announces the binary codec with its magic byte before any
// frame; a JSON client writes nothing (its first '{' is the tell).
func (c *Client) handshake(conn net.Conn) error {
	if c.cfg.Codec != CodecBinary {
		return nil
	}
	armWriteDeadline(conn)
	_, err := conn.Write(binHandshake)
	return err
}

// Send streams one response to the validator. It never blocks on the
// network: the response is queued (by value — enqueue retains neither
// pointer, so nothing here moves to the heap) and the call only fails once
// the client is closed. A full queue sheds its oldest entry (counted on
// Dropped()).
func (c *Client) Send(r core.Response) error {
	env := Envelope{Type: TypeResponse, Response: &r}
	if c.cfg.Trace != nil {
		tc := *c.cfg.Trace
		if c.cfg.TraceNow != nil {
			tc.BaseNS = int64(c.cfg.TraceNow())
		}
		env.Trace = &tc
	}
	return c.enqueue(env)
}

// RequestStats asks the server for a stats snapshot (delivered to
// OnStats). Queued like Send.
func (c *Client) RequestStats() error {
	return c.enqueue(Envelope{Type: TypeStats})
}

func (c *Client) enqueue(env Envelope) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	if c.ring.push(env) {
		c.m.dropped.Inc()
	}
	c.mu.Unlock()
	c.kickWriter()
	return nil
}

func (c *Client) kickWriter() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Dropped returns the number of outgoing envelopes lost to queue
// shedding or abandoned unsent at Close — the client's loss is always
// accounted, never silent.
func (c *Client) Dropped() int64 { return c.m.dropped.Value() }

// Reconnects returns the number of successful re-dials after the
// initial connection.
func (c *Client) Reconnects() int64 { return c.m.reconnects.Value() }

// Connected reports whether the client currently holds an established
// connection.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.connected
}

// Backlog returns the number of envelopes queued or in flight but not
// yet written. Owed heartbeat pongs are liveness state, not payload, and
// are not counted.
func (c *Client) Backlog() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.len() + len(c.inflight)
}

// Close closes the connection, stops the writer and reader, and counts
// any still-undelivered envelopes as dropped. Safe to call more than
// once.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.connected = false
	undelivered := int64(c.ring.len() + len(c.inflight))
	c.ring = envRing{}
	c.inflight = nil
	c.mu.Unlock()
	if undelivered > 0 {
		c.m.dropped.Add(undelivered)
	}
	close(c.stop)
	if conn != nil {
		_ = conn.Close()
	}
	c.done.Wait()
	return nil
}

// writeLoop is the single owner of the outgoing side: it drains the
// queue onto the current connection, and when the link is down it
// re-dials on the backoff schedule. Heartbeat pongs jump the queue so a
// backlogged client still proves liveness. Queued envelopes coalesce into
// one socket write of up to MaxBatch lines or frames, and the whole batch
// is the retransmit unit across a reconnect.
func (c *Client) writeLoop() {
	defer c.done.Done()
	bo := NewBackoff(c.cfg.ReconnectBase, c.cfg.ReconnectMax, c.cfg.Seed)
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		conn := c.conn
		var batch []queued
		if conn != nil {
			batch = c.takeBatchLocked()
		}
		c.mu.Unlock()

		switch {
		case conn == nil:
			if !c.redial(bo) {
				return
			}
		case len(batch) == 0:
			select {
			case <-c.stop:
				return
			case <-c.kick:
			}
		default:
			bufp := getFrameBuf()
			buf := *bufp
			for i := range batch {
				env := batch[i].envelope()
				buf = c.cfg.Codec.appendEnv(buf, &env)
			}
			armWriteDeadline(conn)
			_, err := conn.Write(buf)
			*bufp = buf[:0]
			putFrameBuf(bufp)
			if err != nil {
				// The in-flight batch is retained and retried after the
				// reconnect; only queue shedding loses data.
				c.dropLink(conn)
				continue
			}
			c.mu.Lock()
			c.inflight = c.inflight[:0]
			c.proven = true // first delivered write proves the connection
			c.mu.Unlock()
		}
	}
}

// takeBatchLocked picks the next write unit: the retained in-flight
// batch first, then an owed heartbeat pong, then up to MaxBatch queued
// envelopes. The returned slice is c.inflight, retained until its write
// succeeds. Runs with c.mu held.
func (c *Client) takeBatchLocked() []queued {
	if len(c.inflight) > 0 {
		return c.inflight
	}
	if c.pongDebt {
		c.pongDebt = false
		c.inflight = append(c.inflight[:0], queued{typ: binTypePong})
		return c.inflight
	}
	for len(c.inflight) < c.cfg.MaxBatch {
		q, ok := c.ring.pop()
		if !ok {
			break
		}
		c.inflight = append(c.inflight, q)
	}
	return c.inflight
}

// redial re-establishes the connection on the backoff schedule. The
// schedule only resets after a proven connection (one that carried a
// successful write or read): an accept-then-close flap therefore pays
// the grown backoff before the next dial instead of hot-looping at the
// base interval. Returns false once the client closes.
func (c *Client) redial(bo *Backoff) bool {
	c.mu.Lock()
	proven := c.proven
	c.mu.Unlock()
	if proven {
		bo.Reset()
	} else if !c.cfg.Sleep(bo.Next(), c.stop) {
		return false
	}
	for {
		select {
		case <-c.stop:
			return false
		default:
		}
		conn, err := c.dial()
		if err == nil {
			err = c.handshake(conn)
			if err != nil {
				_ = conn.Close()
			}
		}
		if err != nil {
			c.m.dialErrors.Inc()
			if !c.cfg.Sleep(bo.Next(), c.stop) {
				return false
			}
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			_ = conn.Close()
			return false
		}
		c.conn = conn
		c.connected = true
		c.proven = false // health is proven by traffic, not by the dial
		c.mu.Unlock()
		c.m.reconnects.Inc()
		c.done.Add(1)
		go c.readLoop(conn)
		return true
	}
}

// dropLink tears down one connection and, unless the client is closing,
// kicks the writer into its redial loop. Called by both the writer (on
// write errors) and the reader (on read errors), so a dead link is
// noticed even when nothing is being sent.
func (c *Client) dropLink(conn net.Conn) {
	_ = conn.Close()
	c.mu.Lock()
	lost := false
	if c.conn == conn {
		c.conn = nil
		c.connected = false
		lost = !c.closed
	}
	c.mu.Unlock()
	if lost {
		c.m.disconnects.Inc()
		c.kickWriter()
	}
}

// markProven records that conn carried at least one successful read, so
// the next redial starts from a reset backoff schedule.
func (c *Client) markProven(conn net.Conn) {
	c.mu.Lock()
	if c.conn == conn {
		c.proven = true
	}
	c.mu.Unlock()
}

// readLoop reads pushed results, stats replies and heartbeat pings from
// one connection until it dies. Oversized and malformed lines or frames
// are counted and skipped.
func (c *Client) readLoop(conn net.Conn) {
	defer c.done.Done()
	defer c.dropLink(conn)
	rd := c.cfg.Codec.newReader(conn, c.cfg.MaxLineBytes)
	borrowed := rd.borrows()
	proved := false
	for {
		env, err := rd.ReadEnvelope()
		if err != nil {
			if isOversize(err) || isMalformed(err) {
				c.m.lineErrors.Inc()
				continue
			}
			return
		}
		if !proved {
			proved = true
			c.markProven(conn)
		}
		c.handleEnvelope(env, borrowed)
	}
}

// handleEnvelope dispatches one received envelope. borrowed marks
// envelopes decoded into the binary reader's scratch (BinDecoder's
// ownership contract): anything handed to a callback, which may retain
// it, is deep-copied first.
func (c *Client) handleEnvelope(env *Envelope, borrowed bool) {
	switch env.Type {
	case TypeResult:
		if cb := c.cfg.OnResult; env.Result != nil && cb != nil {
			r := *env.Result
			if borrowed {
				r = CloneResult(r)
			}
			cb(r)
		}
	case TypeStats:
		if cb := c.cfg.OnStats; env.Stats != nil && cb != nil {
			cb(*env.Stats) // value copy; Stats holds no strings
		}
	case TypePing:
		c.mu.Lock()
		c.pongDebt = true // capped at one: a pong is idempotent liveness
		c.mu.Unlock()
		c.kickWriter()
	}
}
