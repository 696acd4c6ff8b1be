// Package ofconn carries OpenFlow 1.0 over real TCP connections, bridging
// the simulation-grade components (dataplane switches, controllers) across
// process or host boundaries: a ControllerEnd listens for switch
// connections and feeds a controller's southbound pipeline; a SwitchEnd
// dials out on behalf of a switch. Both ends pump their discrete-event
// engines with wall time, so the same event-driven components that run
// deterministically under simulation also run live.
package ofconn

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/topo"
)

// Accept-error backoff bounds: persistent failures (EMFILE, ECONNABORTED
// storms) retry on a doubling schedule instead of hot-spinning a core.
const (
	acceptBackoffBase = 5 * time.Millisecond
	acceptBackoffMax  = time.Second
)

// realSleep waits d or until cancel closes, reporting whether the full
// wait elapsed.
func realSleep(d time.Duration, cancel <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cancel:
		return false
	}
}

// Pump advances a discrete-event engine with wall-clock time, serializing
// all access to the event-driven components behind a mutex. Components
// created on the pumped engine must only be touched through Do.
type Pump struct {
	mu      sync.Mutex
	eng     *simnet.Engine // guarded by mu
	clock   func() time.Time
	started time.Time
	stop    chan struct{}
	done    sync.WaitGroup
}

// NewPump starts pumping eng every tick on the host clock.
func NewPump(eng *simnet.Engine, tick time.Duration) *Pump {
	return NewPumpWithClock(eng, tick, nil)
}

// NewPumpWithClock starts pumping eng every tick, reading elapsed real
// time from clock. A nil clock selects the host wall clock — the pump is
// the real-time boundary of the system; tests inject a fake clock to
// drive the bridge deterministically.
func NewPumpWithClock(eng *simnet.Engine, tick time.Duration, clock func() time.Time) *Pump {
	if tick <= 0 {
		tick = 2 * time.Millisecond
	}
	if clock == nil {
		clock = time.Now
	}
	p := &Pump{eng: eng, clock: clock, started: clock(), stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-ticker.C:
				p.mu.Lock()
				p.advance()
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// advance runs the engine up to the current elapsed clock time. Run's
// error is deliberately dropped: the only failures are ErrStopped and an
// event-budget overrun, both benign for a live pump that fires again on
// the next tick.
//
// Every call site holds p.mu.
//
//jurylint:allow errcrit -- benign Run errors for a live pump; see above
func (p *Pump) advance() {
	_ = p.eng.Run(p.clock().Sub(p.started))
}

// Do runs fn with exclusive access to the pumped engine's components,
// advancing virtual time to wall time first.
func (p *Pump) Do(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advance()
	fn()
}

// Close stops the pump.
func (p *Pump) Close() {
	close(p.stop)
	p.done.Wait()
}

// ControllerEnd accepts OpenFlow switch connections for a controller. The
// first message on each connection must be a HELLO whose XID carries the
// datapath id (a simple session-binding convention for this bridge).
type ControllerEnd struct {
	ln   net.Listener
	pump *Pump
	// handle feeds a southbound message into the controller; send
	// transmits a message back to the connected switch.
	handle func(dpid topo.DPID, msg openflow.Message, send func(openflow.Message))
	// sleep waits between Accept retries (injected by tests to pin the
	// backoff schedule).
	sleep func(d time.Duration, cancel <-chan struct{}) bool

	acceptErrs atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu

	done      sync.WaitGroup
	stop      chan struct{}
	closeOnce sync.Once
}

// ListenController starts accepting switch connections on addr.
func ListenController(
	addr string,
	pump *Pump,
	handle func(dpid topo.DPID, msg openflow.Message, send func(openflow.Message)),
) (*ControllerEnd, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ofconn: listen: %w", err)
	}
	return NewControllerEnd(ln, pump, handle), nil
}

// NewControllerEnd starts accepting switch connections on an existing
// listener, taking ownership of it. Tests use it to inject fault-wrapped
// listeners.
func NewControllerEnd(
	ln net.Listener,
	pump *Pump,
	handle func(dpid topo.DPID, msg openflow.Message, send func(openflow.Message)),
) *ControllerEnd {
	return newControllerEnd(ln, pump, handle, realSleep)
}

func newControllerEnd(
	ln net.Listener,
	pump *Pump,
	handle func(dpid topo.DPID, msg openflow.Message, send func(openflow.Message)),
	sleep func(d time.Duration, cancel <-chan struct{}) bool,
) *ControllerEnd {
	ce := &ControllerEnd{
		ln:     ln,
		pump:   pump,
		handle: handle,
		sleep:  sleep,
		conns:  make(map[net.Conn]struct{}),
		stop:   make(chan struct{}),
	}
	ce.done.Add(1)
	go ce.acceptLoop()
	return ce
}

// Addr returns the listen address.
func (ce *ControllerEnd) Addr() string { return ce.ln.Addr().String() }

// AcceptErrors returns the number of Accept failures retried so far.
func (ce *ControllerEnd) AcceptErrors() int64 { return ce.acceptErrs.Load() }

// Close stops the listener and all connections. Safe to call more than
// once. The closed flag flips under mu before the connection sweep, so a
// connection accepted concurrently can never be registered after the
// sweep and leak a blocked reader past Close.
func (ce *ControllerEnd) Close() error {
	var err error
	ce.closeOnce.Do(func() {
		ce.mu.Lock()
		ce.closed = true
		conns := make([]net.Conn, 0, len(ce.conns))
		for conn := range ce.conns {
			conns = append(conns, conn)
		}
		ce.mu.Unlock()
		close(ce.stop)
		err = ce.ln.Close()
		for _, conn := range conns {
			_ = conn.Close()
		}
	})
	ce.done.Wait()
	return err
}

func (ce *ControllerEnd) acceptLoop() {
	defer ce.done.Done()
	backoff := acceptBackoffBase
	for {
		conn, err := ce.ln.Accept()
		if err != nil {
			select {
			case <-ce.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure: back off instead of hot-spinning,
			// doubling up to the cap until the next success.
			ce.acceptErrs.Add(1)
			if !ce.sleep(backoff, ce.stop) {
				return
			}
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffBase
		ce.mu.Lock()
		if ce.closed {
			ce.mu.Unlock()
			_ = conn.Close()
			return
		}
		ce.conns[conn] = struct{}{}
		ce.mu.Unlock()
		ce.done.Add(1)
		go ce.serve(conn)
	}
}

func (ce *ControllerEnd) serve(conn net.Conn) {
	defer ce.done.Done()
	defer func() {
		ce.mu.Lock()
		delete(ce.conns, conn)
		ce.mu.Unlock()
		_ = conn.Close()
	}()
	var (
		writeMu sync.Mutex
		dpid    topo.DPID
		bound   bool
	)
	send := func(msg openflow.Message) {
		writeMu.Lock()
		defer writeMu.Unlock()
		_ = openflow.WriteMessage(conn, msg) //jurylint:allow errcrit -- best-effort push; a dead conn is reaped by the read loop
	}
	for {
		msg, err := openflow.ReadMessage(conn)
		if err != nil {
			return
		}
		if !bound {
			hello, ok := msg.(*openflow.Hello)
			if !ok {
				return // protocol violation: first message must bind
			}
			dpid = topo.DPID(hello.XID)
			bound = true
			send(&openflow.Hello{XID: hello.XID})
			continue
		}
		ce.pump.Do(func() { ce.handle(dpid, msg, send) })
	}
}

// SwitchEnd connects a switch to a remote controller over TCP.
type SwitchEnd struct {
	conn net.Conn
	pump *Pump
	// OnMessage receives controller-to-switch messages (run under the
	// pump's lock).
	OnMessage func(openflow.Message)

	writeMu sync.Mutex
	done    sync.WaitGroup
}

// DialSwitch connects to a controller end and binds the session to dpid.
func DialSwitch(addr string, dpid topo.DPID, pump *Pump, onMessage func(openflow.Message)) (*SwitchEnd, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ofconn: dial: %w", err)
	}
	se := &SwitchEnd{conn: conn, pump: pump, OnMessage: onMessage}
	// Bind: HELLO with the dpid as XID.
	if err := openflow.WriteMessage(conn, &openflow.Hello{XID: uint32(dpid)}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("ofconn: bind: %w", err)
	}
	if _, err := openflow.ReadMessage(conn); err != nil { // HELLO reply
		_ = conn.Close()
		return nil, fmt.Errorf("ofconn: handshake: %w", err)
	}
	se.done.Add(1)
	go se.readLoop()
	return se, nil
}

// Send transmits a switch-to-controller message.
func (se *SwitchEnd) Send(msg openflow.Message) error {
	se.writeMu.Lock()
	defer se.writeMu.Unlock()
	return openflow.WriteMessage(se.conn, msg)
}

// Close closes the connection and waits for the reader.
func (se *SwitchEnd) Close() error {
	err := se.conn.Close()
	se.done.Wait()
	return err
}

func (se *SwitchEnd) readLoop() {
	defer se.done.Done()
	for {
		msg, err := openflow.ReadMessage(se.conn)
		if err != nil {
			return
		}
		se.pump.Do(func() {
			if se.OnMessage != nil {
				se.OnMessage(msg)
			}
		})
	}
}
