package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/shard"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
)

// ServerConfig parameterizes a validator service.
type ServerConfig struct {
	// Codec is the service's codec stance. CodecAuto (the default)
	// mirrors each connection's first byte — a BinMagic handshake
	// switches that connection to binary frames, anything else keeps
	// JSON lines — so old JSON-only clients interoperate with no
	// configuration. CodecJSON is strict: a binary handshake is refused
	// and counted (jury_wire_line_errors_total{reason="codec"}).
	// CodecBinary additionally speaks binary on pushes that race ahead
	// of a peer's first byte (heartbeats to a silent client); JSON peers
	// are still mirrored once they speak.
	Codec Codec
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
	// shard.DefaultQueueDepth). Deployments tune it through
	// ValidatorServiceConfig.QueueDepth (juryd -queue-depth).
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
	// WriteTimeout bounds one push write so a stalled peer cannot wedge
	// the event loop (default DefaultWriteTimeout; negative disables).
	WriteTimeout time.Duration
	// Tracing arms a per-trigger span tracer on every shard's virtual
	// clock; WriteTrace reads the merged trace back.
	Tracing bool
	// FlightRing, when positive, arms a flight recorder of that capacity
	// on every shard: the last N trigger lifecycle events are always on
	// hand, and a fault verdict dumps them to OnFlightDump. FlightSnapshot
	// reads the rings on demand (juryd's shutdown dump and -flight-dump
	// flag).
	FlightRing int
	// OnFlightDump receives each dump-on-alarm flight snapshot (merged
	// oldest-first) with the reason that fired it. Calls are serialized
	// and rate-limited to one dump per newly recorded event. The hook
	// must not call back into the server.
	OnFlightDump func(reason string, events []obs.Event)
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
		cfg.Clock = time.Now //jurylint:allow wallclock -- default clock at the real-time boundary
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
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
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
	codecRejected *obs.Counter
	pushErrors    *obs.Counter
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
		oversized:     lineErr("oversize"),
		malformed:     lineErr("malformed"),
		readErrors:    lineErr("read"),
		codecRejected: lineErr("codec"),
		pushErrors: reg.Counter("jury_wire_push_errors_total",
			"Result/ping/stats writes that failed and dropped the connection."),
		reapedIdle: reg.Counter("jury_wire_conns_reaped_idle_total",
			"Half-open connections reaped by the idle-timeout heartbeat."),
		pingsSent: reg.Counter("jury_wire_pings_sent_total",
			"Heartbeat pings sent to idle connections."),
		pongsReceived: reg.Counter("jury_wire_pongs_received_total",
			"Heartbeat pongs received."),
	}
}

// srvConn is one registered client connection.
type srvConn struct {
	conn net.Conn
	enc  *json.Encoder
	// codec is the connection's resolved wire encoding. It starts from
	// the server's stance (binary only under CodecBinary) and is
	// overwritten by the codec the peer's first byte announces, so
	// pushes always mirror what the client speaks once it has spoken.
	codec Codec // guarded by connsMu
	// wbuf is the binary push scratch, reused across pushes so the
	// steady-state encode path allocates nothing.
	wbuf []byte // guarded by connsMu
	// lastSeen is the clock reading of the last received line; lastPing
	// is when the last heartbeat probe went out. Both are protected by
	// the server's connsMu.
	lastSeen time.Time // guarded by connsMu
	lastPing time.Time // guarded by connsMu
}

// Server hosts a validation plane behind a TCP listener.
//
// Two locks split the server and never nest. mu serializes the plane's
// dispatch side (Submit, Advance, TraceSpans — its contract requires one
// dispatcher at a time) and guards traceShifts. connsMu guards the
// connection registry and every socket write, including the result
// broadcast; its holders never dispatch and only do deadline-bounded
// work. Decisions land on the plane's worker goroutines, which take only
// connsMu: a worker delivering a result must not wait on mu, because a
// dispatcher may hold mu while blocked on that same worker's full intake
// queue (backpressure). Stats, alarms, flight snapshots and the metrics
// scrape read the plane's lock-free stats side and take neither lock.
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
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("wire: no cluster members configured")
	}
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
		return nil, fmt.Errorf("wire: no cluster members configured")
	}
	members := cluster.NewMembership(cluster.AnyControllerOneMaster, cfg.Members, cfg.Switches)
	if cfg.Tracing && cfg.Validator.Tracer == nil {
		// The plane treats the tracer as a template and arms one per shard.
		cfg.Validator.Tracer = obs.NewTracer(nil)
	}
	plane, err := shard.New(shard.Config{
		Shards:       cfg.Shards,
		QueueDepth:   cfg.QueueDepth,
		Validator:    cfg.Validator,
		Members:      members,
		Metrics:      cfg.Metrics,
		FlightRing:   cfg.FlightRing,
		OnFlightDump: cfg.OnFlightDump,
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
	plane.SetOnResult(s.broadcast)
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
	return Stats{
		Decided:  s.plane.Decided(),
		Valid:    s.plane.Valid(),
		Faults:   s.plane.Faults(),
		Timeouts: s.plane.Timeouts(),
		Pending:  s.plane.Pending(),
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

// FlightSnapshot returns the flight recorders' merged rings (oldest
// first), or nil when ServerConfig.FlightRing was zero. Safe from any
// goroutine.
func (s *Server) FlightSnapshot() []obs.Event { return s.plane.FlightSnapshot() }

// Alarms returns the validator's retained alarms (merged immutable
// snapshots; no lock).
func (s *Server) Alarms() []core.Result { return s.plane.Alarms() }

// Close stops the service and waits for its goroutines. Safe to call
// more than once. The closed flag flips under connsMu before the
// connection sweep, so a connection accepted concurrently can never be
// registered after the sweep and leak a blocked reader past Close.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.connsMu.Lock()
		s.closed = true
		conns := make([]net.Conn, 0, len(s.conns))
		for conn := range s.conns {
			conns = append(conns, conn)
		}
		s.connsMu.Unlock()
		close(s.stop)
		err = s.ln.Close()
		for _, conn := range conns {
			_ = conn.Close()
		}
		s.done.Wait()
		// All dispatchers (reader goroutines, tick loop) are gone; this is
		// the plane's final serialized dispatch call. Stop, not Close:
		// draining would expire every still-open trigger into an omission
		// alarm (and a flight dump) that no controller caused.
		s.plane.Stop()
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
		sc := &srvConn{conn: conn, enc: json.NewEncoder(conn), codec: s.preHandshakeCodec()}
		s.connsMu.Lock()
		if s.closed {
			s.connsMu.Unlock()
			_ = conn.Close()
			return
		}
		now := s.cfg.Clock()
		sc.lastSeen = now
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
	ticker := time.NewTicker(s.cfg.Tick) //jurylint:allow wallclock -- real-time service cadence
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.mu.Lock()
			s.advance()
			s.mu.Unlock()
			s.connsMu.Lock()
			s.heartbeatSweep()
			s.connsMu.Unlock()
		}
	}
}

// advance moves every shard's virtual clock up to the current elapsed
// clock time. Dispatch side: every call site holds s.mu.
func (s *Server) advance() {
	s.plane.Advance(s.cfg.Clock().Sub(s.started))
}

// heartbeatSweep pings idle connections and reaps half-open peers whose
// idle time passed IdleTimeout (a dead TCP peer never answers, so its
// lastSeen stops moving). Runs with s.connsMu held from the tick loop.
func (s *Server) heartbeatSweep() {
	if s.cfg.HeartbeatEvery <= 0 {
		return
	}
	now := s.cfg.Clock()
	for conn, sc := range s.conns {
		idle := now.Sub(sc.lastSeen)
		if s.cfg.IdleTimeout > 0 && idle >= s.cfg.IdleTimeout {
			s.m.reapedIdle.Inc()
			s.dropConnLocked(conn)
			continue
		}
		if idle >= s.cfg.HeartbeatEvery && now.Sub(sc.lastPing) >= s.cfg.HeartbeatEvery {
			sc.lastPing = now
			s.m.pingsSent.Inc()
			s.pushLocked(conn, sc, Envelope{Type: TypePing})
		}
	}
}

// preHandshakeCodec is the codec a fresh connection is pushed with
// before its first byte resolves what it actually speaks: JSON unless
// the server is configured binary-first.
func (s *Server) preHandshakeCodec() Codec {
	if s.cfg.Codec == CodecBinary {
		return CodecBinary
	}
	return CodecJSON
}

// pushLocked encodes one envelope to a registered connection under a
// write deadline, in the connection's resolved codec; a failed or
// timed-out write drops the connection. Runs with s.connsMu held.
func (s *Server) pushLocked(conn net.Conn, sc *srvConn, env Envelope) {
	armWriteDeadline(conn, s.cfg.WriteTimeout)
	var err error
	if sc.codec == CodecBinary {
		sc.wbuf = AppendEnvelope(sc.wbuf[:0], &env)
		_, err = conn.Write(sc.wbuf)
	} else {
		err = sc.enc.Encode(env)
	}
	if err != nil {
		s.m.pushErrors.Inc()
		s.dropConnLocked(conn)
	}
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
// Framing and decode failures are counted per reason and never silent:
// an oversized line or frame is skipped, a malformed one is tolerated,
// and a genuine read error surfaces in
// jury_wire_line_errors_total{reason="read"} before the connection is
// torn down.
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
	if first[0] == BinMagic {
		if s.cfg.Codec == CodecJSON {
			// A strict-JSON deployment refuses the binary handshake
			// loudly instead of scanning frames as garbled lines.
			s.m.codecRejected.Inc()
			return
		}
		_, _ = br.Discard(1)
		s.setConnCodec(sc, CodecBinary)
		s.serveFrames(sc, br)
		return
	}
	s.setConnCodec(sc, CodecJSON)
	s.serveLines(sc, br)
}

// setConnCodec records the codec the peer's first byte announced, so
// pushes mirror it from here on.
func (s *Server) setConnCodec(sc *srvConn, codec Codec) {
	s.connsMu.Lock()
	sc.codec = codec
	s.connsMu.Unlock()
}

// serveLines is the JSON read side: newline-delimited envelopes.
func (s *Server) serveLines(sc *srvConn, r *bufio.Reader) {
	lr := NewLineReader(r, s.cfg.MaxLineBytes)
	for {
		line, err := lr.ReadLine()
		if err != nil {
			switch {
			case errors.Is(err, ErrLineTooLong):
				s.m.oversized.Inc()
				s.touch(sc)
				continue
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
				return // clean close, or dropped by Close/sweep
			default:
				s.m.readErrors.Inc()
				return
			}
		}
		s.touch(sc)
		if len(line) == 0 {
			continue
		}
		var env Envelope
		if err := json.Unmarshal(line, &env); err != nil {
			s.m.malformed.Inc()
			continue // tolerate malformed lines from misbehaving peers
		}
		s.handleEnvelope(sc, &env, false)
	}
}

// serveFrames is the binary read side: length-prefixed frames decoded
// into borrowed envelopes (BinDecoder's ownership contract — anything
// the dispatch retains is cloned in handleEnvelope).
func (s *Server) serveFrames(sc *srvConn, r *bufio.Reader) {
	br := NewBinReader(r, s.cfg.MaxLineBytes)
	for {
		env, err := br.ReadEnvelope()
		if err != nil {
			switch {
			case errors.Is(err, ErrFrameTooLong):
				s.m.oversized.Inc()
				s.touch(sc)
				continue
			case errors.Is(err, ErrMalformedFrame):
				s.m.malformed.Inc()
				s.touch(sc)
				continue
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
				return
			default:
				s.m.readErrors.Inc()
				return
			}
		}
		s.touch(sc)
		s.handleEnvelope(sc, env, true)
	}
}

// handleEnvelope dispatches one received envelope. borrowed marks
// envelopes whose strings alias the binary reader's frame buffer: the
// validator retains submitted responses and the shift map retains origin
// keys, so those are deep-copied before crossing the borrow window.
func (s *Server) handleEnvelope(sc *srvConn, env *Envelope, borrowed bool) {
	switch env.Type {
	case TypeResponse:
		if env.Response == nil {
			return
		}
		s.m.responses.Inc()
		resp := *env.Response
		if borrowed {
			resp = CloneResponse(resp)
		}
		s.mu.Lock()
		s.advance()
		if tc := env.Trace; tc != nil && tc.Origin != "" {
			// First sight of an origin fixes its clock-base shift:
			// our elapsed time minus the sender's virtual clock at
			// send time. One sample suffices — both clocks advance
			// at the same rate, only their bases differ.
			if _, ok := s.traceShifts[tc.Origin]; !ok {
				elapsed := s.cfg.Clock().Sub(s.started)
				s.traceShifts[strings.Clone(tc.Origin)] = int64(elapsed) - tc.BaseNS
			}
		}
		s.plane.Submit(resp)
		s.mu.Unlock()
	case TypeStats:
		st := s.Stats()
		s.connsMu.Lock()
		if cur, ok := s.conns[sc.conn]; ok {
			s.pushLocked(sc.conn, cur, Envelope{Type: TypeStats, Stats: &st})
		}
		s.connsMu.Unlock()
	case TypePing:
		s.connsMu.Lock()
		if cur, ok := s.conns[sc.conn]; ok {
			s.pushLocked(sc.conn, cur, Envelope{Type: TypePong})
		}
		s.connsMu.Unlock()
	case TypePong:
		s.m.pongsReceived.Inc()
	}
}

// touch records liveness for the heartbeat sweep.
func (s *Server) touch(sc *srvConn) {
	s.connsMu.Lock()
	sc.lastSeen = s.cfg.Clock()
	s.connsMu.Unlock()
}

// broadcast pushes a result to every connected client; a client whose
// write fails is dropped from the registry so later broadcasts stop
// encoding to a dead peer. The plane invokes it from worker goroutines
// with no server lock held. It takes only connsMu and never calls into
// the dispatch side, so a worker delivering a result cannot deadlock
// against a dispatcher blocked on that worker's full intake queue.
func (s *Server) broadcast(r core.Result) {
	if s.cfg.AlarmsOnly && r.Verdict != core.VerdictFault {
		return
	}
	env := Envelope{Type: TypeResult, Result: &r}
	s.connsMu.Lock()
	defer s.connsMu.Unlock()
	for conn, sc := range s.conns {
		s.pushLocked(conn, sc, env)
	}
}

// armWriteDeadline bounds the next write on conn. Socket deadlines are
// kernel-absolute, so this is a real-time boundary even when the service
// clock is injected.
//
//jurylint:allow wallclock -- socket deadlines are inherently wall-clock
func armWriteDeadline(conn net.Conn, d time.Duration) {
	if d > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(d))
	}
}
