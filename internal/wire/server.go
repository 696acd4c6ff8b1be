package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/shard"
	"github.com/jurysdn/jury/internal/slab"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
)

// ServerConfig parameterizes a validator service.
type ServerConfig struct {
	// Validator carries K, timeout, adaptive settings.
	Validator core.ValidatorConfig
	// Members lists the controller IDs of the deployment; mastership is
	// not tracked over the wire, so sanity checks fall back to "any
	// alive controller" semantics.
	Members []store.NodeID
	// Switches lists known datapaths for the membership map.
	Switches []topo.DPID
	// AlarmsOnly pushes only fault results to clients (default: all
	// results are pushed).
	AlarmsOnly bool
	// Shards is the width of the validation plane (internal/shard) the
	// service fronts: this many worker goroutines, each owning one
	// validator, responses dispatched by FNV over the trigger taint ID.
	// Zero or one is one worker — the paper's single decision loop.
	Shards int
	// QueueDepth bounds each shard's intake queue (default
	// shard.DefaultQueueDepth) in queue items — one per batch a reader
	// hands over, so at most QueueDepth × maxIngestBatch responses.
	// Deployments tune it through ValidatorServiceConfig.QueueDepth
	// (`jury serve -queue-depth`).
	QueueDepth int
	// Tick is the wall-clock granularity at which validator timers fire
	// (default 5ms).
	Tick time.Duration
	// Clock supplies real time for the tick loop and heartbeat
	// bookkeeping; nil selects the host wall clock. Tests inject a fake
	// clock to drive the service deterministically.
	Clock func() time.Time

	// MaxLineBytes caps one protocol line (default DefaultMaxLineBytes).
	// Oversized lines are rejected and counted without killing the
	// connection.
	MaxLineBytes int
	// HeartbeatEvery probes idle connections with TypePing (default
	// DefaultHeartbeatEvery; negative disables heartbeats and reaping).
	HeartbeatEvery time.Duration
	// IdleTimeout reaps connections idle past this horizon — half-open
	// TCP peers that answer no pings (default DefaultIdleTimeout;
	// negative disables reaping).
	IdleTimeout time.Duration
	// Tracing arms a per-trigger span tracer on every shard's virtual
	// clock; WriteTrace reads the merged trace back.
	Tracing bool
	// Metrics is the registry the plane's families and the
	// connection-lifecycle families (jury_wire_*) are published on — the
	// page WriteMetrics renders; nil creates a private one.
	Metrics *obs.Registry
	// Sleep waits between Accept retries; nil selects the real-time
	// sleeper. Tests inject one to pin the backoff schedule.
	Sleep func(d time.Duration, cancel <-chan struct{}) bool
}

func (cfg *ServerConfig) fillDefaults() {
	if cfg.Tick <= 0 {
		cfg.Tick = 5 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.MaxLineBytes == 0 {
		cfg.MaxLineBytes = DefaultMaxLineBytes
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.Sleep == nil {
		cfg.Sleep = defaultSleep
	}
}

// serverMetrics are the connection-lifecycle families the server
// publishes. Counters and gauges are atomics, so the exposition
// goroutine can scrape them while connections churn.
type serverMetrics struct {
	open          *obs.Gauge
	accepted      *obs.Counter
	acceptErrors  *obs.Counter
	responses     *obs.Counter
	oversized     *obs.Counter
	malformed     *obs.Counter
	readErrors    *obs.Counter
	pushErrors    *obs.Counter
	pushWrites    *obs.Counter
	reapedIdle    *obs.Counter
	pingsSent     *obs.Counter
	pongsReceived *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	lineErr := func(reason string) *obs.Counter {
		return reg.Counter("jury_wire_line_errors_total",
			"Protocol lines rejected or connections lost, by reason.",
			obs.L("reason", reason))
	}
	return &serverMetrics{
		open: reg.Gauge("jury_wire_conns_open",
			"Client connections currently registered."),
		accepted: reg.Counter("jury_wire_conns_accepted_total",
			"Client connections accepted."),
		acceptErrors: reg.Counter("jury_wire_accept_errors_total",
			"Accept failures (backed off, never hot-spun)."),
		responses: reg.Counter("jury_wire_responses_total",
			"Controller responses received over the wire."),
		oversized:  lineErr("oversize"),
		malformed:  lineErr("malformed"),
		readErrors: lineErr("read"),
		pushErrors: reg.Counter("jury_wire_push_errors_total",
			"Result/ping/stats writes that failed and dropped the connection."),
		pushWrites: reg.Counter("jury_wire_push_writes_total",
			"Socket writes carrying pushed results, pings or stats replies (one per flush)."),
		reapedIdle: reg.Counter("jury_wire_conns_reaped_idle_total",
			"Half-open connections reaped by the idle-timeout heartbeat."),
		pingsSent: reg.Counter("jury_wire_pings_sent_total",
			"Heartbeat pings sent to idle connections."),
		pongsReceived: reg.Counter("jury_wire_pongs_received_total",
			"Heartbeat pongs received."),
	}
}

// Hand-off bounds. Both are fixed: neither is a knob.
const (
	// maxIngestBatch caps the responses one reader hands the plane in one
	// call, so a shard's QueueDepth items bound its backlog at
	// QueueDepth × maxIngestBatch responses.
	maxIngestBatch = 256
	// pushFlushBytes is the early-flush bound on a connection's pending
	// output: a burst of verdicts shares one write up to this size, past
	// it the write goes out without waiting for the queue item to finish.
	pushFlushBytes = 32 << 10
)

// srvConn is one registered client connection.
type srvConn struct {
	conn net.Conn
	// codec is the connection's wire encoding: JSON until the peer's first
	// byte announces what it speaks, then that, so pushes mirror the client
	// once it has spoken.
	codec Codec // guarded by connsMu
	// out is the connection's pending output: pushes are encoded onto it
	// and leave in one write per flush. The buffer is reused across
	// flushes, so the steady-state push path allocates nothing.
	out []byte // guarded by connsMu
	// lastSeen is the service-clock reading (UnixNano) of the last read
	// that delivered anything. An atomic, so the read path records
	// liveness without the registry lock — a reader must never wait behind
	// a write to some other, stalled peer.
	lastSeen atomic.Int64
	// lastPing is when the last heartbeat probe went out.
	lastPing time.Time // guarded by connsMu
}

// Server hosts a validation plane behind a TCP listener.
//
// The unit of hand-off through the service is a batch: a reader hands the
// plane everything one socket read delivered in one call, and the verdicts
// a worker decides while processing one queue item leave in one write.
//
// Two locks split the server and never nest. mu serializes the plane's
// dispatch side (SubmitBatch, Advance, TraceSpans, Stop — its contract
// requires one dispatcher at a time) and guards traceShifts. connsMu guards
// the connection registry, every connection's pending output and every
// socket write; its holders never dispatch and only do deadline-bounded
// work. Readers take connsMu only to answer a stats request or a ping —
// never per frame, so a write stalled on one peer cannot freeze ingest
// from the others. Decisions land on the plane's worker goroutines, which
// take only connsMu (broadcast appends, flush writes): a worker delivering
// a result must not wait on mu, because a dispatcher may hold mu while
// blocked on that same worker's full intake queue (backpressure). Stats,
// alarms and the metrics scrape read the plane's lock-free stats side and
// take neither lock.
type Server struct {
	ln  net.Listener
	cfg ServerConfig
	m   *serverMetrics

	mu sync.Mutex
	// traceShifts maps each client origin to the estimated clock-base
	// shift (receiver elapsed − sender BaseNS at first sight), the ShiftNS
	// obs.Stitch needs to align that origin's trace onto this server's
	// timeline.
	traceShifts map[string]int64 // guarded by mu
	// plane is immutable after construction; mu serializes its dispatch
	// side, its stats side is lock-free by contract.
	plane   *shard.Plane
	started time.Time

	connsMu sync.Mutex
	conns   map[net.Conn]*srvConn // guarded by connsMu
	closed  bool                  // guarded by connsMu

	stop      chan struct{}
	closeOnce sync.Once
	done      sync.WaitGroup
}

// Serve starts a validator service on addr ("127.0.0.1:0" for an ephemeral
// port). The returned server owns background goroutines; call Close.
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	return ServeListener(ln, cfg)
}

// ServeListener starts a validator service on an existing listener,
// taking ownership of it. Tests use it to inject fault-wrapped
// listeners.
func ServeListener(ln net.Listener, cfg ServerConfig) (*Server, error) {
	cfg.fillDefaults()
	if len(cfg.Members) == 0 {
		_ = ln.Close()
		return nil, fmt.Errorf("wire: no cluster members configured")
	}
	members := cluster.NewMembership(cluster.AnyControllerOneMaster, cfg.Members, cfg.Switches)
	plane, err := shard.New(shard.Config{
		Shards:     cfg.Shards,
		QueueDepth: cfg.QueueDepth,
		Validator:  cfg.Validator,
		Tracing:    cfg.Tracing,
		Members:    members,
		Metrics:    cfg.Metrics,
	})
	if err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("wire: shard plane: %w", err)
	}
	s := &Server{
		ln:          ln,
		cfg:         cfg,
		m:           newServerMetrics(plane.Metrics()),
		traceShifts: make(map[string]int64),
		plane:       plane,
		started:     cfg.Clock(),
		conns:       make(map[net.Conn]*srvConn),
		stop:        make(chan struct{}),
	}
	plane.SetOnResult(s.broadcast, s.flush)
	s.done.Add(2)
	go s.acceptLoop()
	go s.tickLoop()
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the validator counters (atomic aggregates;
// no lock).
func (s *Server) Stats() Stats {
	st := s.plane.Stats()
	return Stats{
		Decided:  st.Decided,
		Valid:    st.Valid,
		Faults:   st.Faults,
		Timeouts: st.Timeouts,
		Pending:  st.Pending,
	}
}

// WriteMetrics renders the service's metrics registry in Prometheus text
// format: the plane's jury_validator_* and jury_shard_* families and,
// when ServerConfig.Metrics was nil, the jury_wire_* connection-lifecycle
// families. Every family is an atomic, a function over atomics or an
// internally locked histogram, so the scrape takes no server lock and
// cannot stall dispatch. Pass it as the Write hook of an obs exposition
// endpoint.
func (s *Server) WriteMetrics(w io.Writer) error {
	return s.plane.Metrics().WritePrometheus(w)
}

// TraceOrigins returns the estimated clock-base shift for every client
// origin that has stamped a TraceContext, keyed by origin name. Feed a
// shift as StitchInput.ShiftNS to align that origin's JSONL trace onto
// this server's timeline.
func (s *Server) TraceOrigins() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.traceShifts))
	for k, v := range s.traceShifts {
		out[k] = v
	}
	return out
}

// WriteTrace writes the service's span trace as JSONL (the obs.Stitch
// input format): every shard's spans, merged. The spans are collected
// under the dispatch lock and written outside it. Errors unless the
// server was started with Tracing.
func (s *Server) WriteTrace(w io.Writer) error {
	if !s.plane.Tracing() {
		return fmt.Errorf("wire: server has no tracer; start it with ServerConfig.Tracing")
	}
	s.mu.Lock()
	spans := s.plane.TraceSpans()
	s.mu.Unlock()
	return obs.WriteSpansJSONL(w, spans)
}

// Alarms returns the validator's retained alarms (merged immutable
// snapshots; no lock).
func (s *Server) Alarms() []core.Result { return s.plane.Alarms() }

// Close stops the service and waits for its goroutines. Safe to call
// more than once. The closed flag flips under connsMu before anything
// else, so a connection accepted concurrently can never be registered
// after the sweep and leak a blocked reader past Close. The plane stops
// before the sockets are torn down: a worker finishes the queue item it is
// on — flush included — so a verdict decided just before Close still
// reaches its clients.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.connsMu.Lock()
		s.closed = true
		s.connsMu.Unlock()
		close(s.stop)
		err = s.ln.Close()
		// Stop, not Close: draining would expire every still-open trigger
		// into an omission alarm that no controller caused. Readers still running dispatch into a stopped plane,
		// which is a no-op.
		s.mu.Lock()
		s.plane.Stop()
		s.mu.Unlock()
		s.connsMu.Lock()
		s.flushLocked()
		for conn := range s.conns {
			s.dropConnLocked(conn)
		}
		s.connsMu.Unlock()
		s.done.Wait()
	})
	return err
}

// acceptLoop accepts connections until the listener closes. Persistent
// Accept errors (EMFILE, ENFILE, ECONNABORTED storms) back off on a
// capped exponential schedule that resets on the next success, instead
// of hot-spinning on a core.
func (s *Server) acceptLoop() {
	defer s.done.Done()
	bo := NewBackoff(acceptBackoffBase, acceptBackoffMax, 1)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.m.acceptErrors.Inc()
			if !s.cfg.Sleep(bo.Next(), s.stop) {
				return
			}
			continue
		}
		bo.Reset()
		sc := &srvConn{conn: conn}
		s.connsMu.Lock()
		if s.closed {
			s.connsMu.Unlock()
			_ = conn.Close()
			return
		}
		now := s.cfg.Clock()
		sc.lastSeen.Store(now.UnixNano())
		sc.lastPing = now
		s.conns[conn] = sc
		s.connsMu.Unlock()
		s.m.accepted.Inc()
		s.m.open.Add(1)
		s.done.Add(1)
		go s.serveConn(sc)
	}
}

// tickLoop advances the validator's virtual clock with wall time so
// per-trigger timers expire, and runs the heartbeat sweep.
func (s *Server) tickLoop() {
	defer s.done.Done()
	ticker := time.NewTicker(s.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			now := s.cfg.Clock()
			s.mu.Lock()
			s.plane.Advance(now.Sub(s.started))
			s.mu.Unlock()
			s.connsMu.Lock()
			s.heartbeatSweep(now)
			s.connsMu.Unlock()
		}
	}
}

// heartbeatSweep pings idle connections and reaps half-open peers whose
// idle time passed IdleTimeout (a dead TCP peer never answers, so its
// lastSeen stops moving). Runs with s.connsMu held from the tick loop.
func (s *Server) heartbeatSweep(now time.Time) {
	if s.cfg.HeartbeatEvery <= 0 {
		return
	}
	for conn, sc := range s.conns {
		idle := now.Sub(time.Unix(0, sc.lastSeen.Load()))
		if s.cfg.IdleTimeout > 0 && idle >= s.cfg.IdleTimeout {
			s.m.reapedIdle.Inc()
			s.dropConnLocked(conn)
			continue
		}
		if idle >= s.cfg.HeartbeatEvery && now.Sub(sc.lastPing) >= s.cfg.HeartbeatEvery {
			sc.lastPing = now
			s.m.pingsSent.Inc()
			s.replyLocked(sc, &Envelope{Type: TypePing})
		}
	}
}

// pushLocked appends one envelope to a connection's pending output in the
// connection's resolved codec — no syscall; a flush writes it. Runs with
// s.connsMu held.
func (s *Server) pushLocked(sc *srvConn, env *Envelope) {
	sc.out = sc.codec.appendEnv(sc.out, env)
	if len(sc.out) >= pushFlushBytes {
		s.flushConnLocked(sc)
	}
}

// replyLocked pushes one envelope that must not wait for a worker — a
// stats reply, a pong, a heartbeat ping — and flushes the connection at
// once. Whatever was already pending leaves ahead of it in the same write,
// so order is preserved. Runs with s.connsMu held.
func (s *Server) replyLocked(sc *srvConn, env *Envelope) {
	s.pushLocked(sc, env)
	s.flushConnLocked(sc)
}

// flushConnLocked writes a connection's pending output — one deadline,
// one write; a failed or timed-out write drops the connection. Runs with
// s.connsMu held.
func (s *Server) flushConnLocked(sc *srvConn) {
	if len(sc.out) == 0 {
		return
	}
	s.m.pushWrites.Inc() // before the write: a reader of the bytes sees them counted
	armWriteDeadline(sc.conn)
	_, err := sc.conn.Write(sc.out)
	sc.out = sc.out[:0]
	if err != nil {
		s.m.pushErrors.Inc()
		s.dropConnLocked(sc.conn)
	}
}

// flushLocked flushes every connection with pending output. Runs with
// s.connsMu held.
func (s *Server) flushLocked() {
	for _, sc := range s.conns {
		s.flushConnLocked(sc)
	}
}

// flush is the plane's flush hook: the worker that finished a queue item
// which decided something writes out what broadcast buffered, so a lone
// verdict leaves in the same worker iteration that decided it and a burst
// shares a syscall. Like broadcast it takes only connsMu.
func (s *Server) flush() {
	s.connsMu.Lock()
	s.flushLocked()
	s.connsMu.Unlock()
}

// dropConnLocked closes and unregisters one connection. Runs with
// s.connsMu held; the connection's reader observes the close and exits.
func (s *Server) dropConnLocked(conn net.Conn) {
	if _, ok := s.conns[conn]; !ok {
		return
	}
	delete(s.conns, conn)
	s.m.open.Add(-1)
	_ = conn.Close()
}

// serveConn resolves the connection's codec from its first byte (the
// compat handshake: BinMagic announces binary frames, anything else is a
// JSON line) and reads protocol envelopes until the connection dies.
// Responses accumulate while a complete envelope is already buffered and
// are dispatched as one batch the moment the next read could block: the
// reader never waits for bytes with responses in hand. Framing and decode
// failures are counted per reason and never silent: an oversized line or
// frame is skipped, a malformed one is tolerated, and a genuine read error
// (a frame torn by the close included) surfaces in
// jury_wire_line_errors_total{reason="read"} before the connection is torn
// down.
func (s *Server) serveConn(sc *srvConn) {
	defer s.done.Done()
	defer func() {
		s.connsMu.Lock()
		s.dropConnLocked(sc.conn)
		s.connsMu.Unlock()
	}()
	br := bufio.NewReaderSize(sc.conn, 64*1024)
	first, err := br.Peek(1)
	if err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			s.m.readErrors.Inc()
		}
		return
	}
	codec := CodecJSON
	if first[0] == BinMagic {
		_, _ = br.Discard(1)
		codec = CodecBinary
		s.connsMu.Lock()
		sc.codec = codec // pushes mirror the peer from here on
		s.connsMu.Unlock()
	}
	rd := codec.newReader(br, s.cfg.MaxLineBytes)
	in := ingest{s: s, sc: sc, borrowed: rd.borrows()}
	for {
		env, err := rd.ReadEnvelope()
		switch {
		case err == nil && env.Type == TypeResponse:
			in.add(env)
			if len(in.batch) >= maxIngestBatch || !rd.FrameBuffered() {
				in.dispatch()
			}
		case err == nil:
			in.control(env)
		case isOversize(err):
			s.m.oversized.Inc()
			in.control(nil)
		case isMalformed(err):
			s.m.malformed.Inc()
			in.control(nil)
		default:
			in.dispatch()
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.m.readErrors.Inc()
			}
			return
		}
	}
}

// ingest is one reader's hand-off state: the batch of responses it has
// decoded but not yet dispatched, reused across reads. Reader-goroutine
// state; nothing in it is shared.
type ingest struct {
	s     *Server
	sc    *srvConn
	batch []core.Response
	// borrowed marks a reader whose envelopes' strings alias its buffer:
	// the validator retains submitted responses and the shift map retains
	// origin keys, so those are copied before the borrow window closes.
	borrowed bool
	// strs is the reader's slab: a batched response's fresh strings are
	// carved from it (core.Response.CarveStrings), so a response costs a
	// share of one allocation per slab, not one of its own. owned is the
	// last carved copy of each string field, so a field that repeats the
	// previous response's — a secondary's Trigger, Cache, Key and Value —
	// costs no copy at all.
	strs  slab.Strings
	owned [6]string
	// origin is the last trace origin this reader registered, so the
	// steady state compares one string and takes no lock.
	origin string
}

// add appends one response envelope to the batch.
func (in *ingest) add(env *Envelope) {
	if env.Response == nil {
		return
	}
	in.batch = append(in.batch, *env.Response)
	if in.borrowed {
		in.batch[len(in.batch)-1].CarveStrings(&in.owned, &in.strs)
	}
	if tc := env.Trace; tc != nil && tc.Origin != "" && tc.Origin != in.origin {
		in.origin = strings.Clone(tc.Origin)
		in.s.noteOrigin(in.origin, tc.BaseNS)
	}
}

// noteOrigin fixes an origin's clock-base shift at first sight: our
// elapsed time minus the sender's virtual clock at send time. One sample
// suffices — both clocks advance at the same rate, only their bases
// differ.
func (s *Server) noteOrigin(origin string, baseNS int64) {
	elapsed := s.cfg.Clock().Sub(s.started)
	s.mu.Lock()
	if _, ok := s.traceShifts[origin]; !ok {
		s.traceShifts[origin] = int64(elapsed) - baseNS
	}
	s.mu.Unlock()
}

// dispatch hands the plane everything the reader has in hand as one
// batch. The clock is read
// once: it stamps the connection's liveness and is the arrival time every
// response of the batch is submitted at.
func (in *ingest) dispatch() {
	if len(in.batch) == 0 {
		return
	}
	s := in.s
	now := s.cfg.Clock()
	in.sc.lastSeen.Store(now.UnixNano())
	s.m.responses.Add(int64(len(in.batch)))
	s.mu.Lock()
	s.plane.SubmitBatch(in.batch, now.Sub(s.started))
	s.mu.Unlock()
	// SubmitBatch copied every response, so the batch's entries are stale:
	// cleared, they pin no slab their strings were carved from.
	clear(in.batch)
	in.batch = in.batch[:0]
}

// control handles everything a reader receives that is not a response to
// batch — a non-response envelope, a rejected line or frame (env nil) —
// after first dispatching what is in hand, so ordering is preserved.
func (in *ingest) control(env *Envelope) {
	in.dispatch()
	s := in.s
	in.sc.lastSeen.Store(s.cfg.Clock().UnixNano())
	if env == nil {
		return
	}
	switch env.Type {
	case TypeStats:
		st := s.Stats()
		s.reply(in.sc, &Envelope{Type: TypeStats, Stats: &st})
	case TypePing:
		s.reply(in.sc, &Envelope{Type: TypePong})
	case TypePong:
		s.m.pongsReceived.Inc()
	}
}

// reply answers one connection at once, if it is still registered.
func (s *Server) reply(sc *srvConn, env *Envelope) {
	s.connsMu.Lock()
	if _, ok := s.conns[sc.conn]; ok {
		s.replyLocked(sc, env)
	}
	s.connsMu.Unlock()
}

// broadcast appends a result to every connected client's pending output;
// the worker that decided it flushes when its queue item is finished (see
// flush). The plane invokes it from worker goroutines with no server lock
// held. It takes only connsMu and never calls into the dispatch side, so a
// worker delivering a result cannot deadlock against a dispatcher blocked
// on that worker's full intake queue.
func (s *Server) broadcast(r core.Result) {
	if s.cfg.AlarmsOnly && r.Verdict != core.VerdictFault {
		return
	}
	env := Envelope{Type: TypeResult, Result: &r}
	s.connsMu.Lock()
	for _, sc := range s.conns {
		s.pushLocked(sc, &env)
	}
	s.connsMu.Unlock()
}

// armWriteDeadline bounds the next write on conn by DefaultWriteTimeout,
// so a stalled peer surfaces as a failed write (a dropped connection on
// the server, a reconnect on the client) instead of a wedged writer.
// Socket deadlines are kernel-absolute, so this is a real-time boundary
// even when the service clock is injected.
func armWriteDeadline(conn net.Conn) {
	_ = conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
}
