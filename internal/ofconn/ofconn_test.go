package ofconn

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/dataplane"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/wire/wiretest"
)

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

// TestLiveSwitchControllerBridge runs a real controller and a real switch
// in separate event domains connected by a real TCP socket: the switch's
// PACKET_IN crosses the wire, the controller's FLOW_MOD and PACKET_OUT
// come back, and the rule lands in the switch's table.
func TestLiveSwitchControllerBridge(t *testing.T) {
	// Controller domain.
	ctrlEng := simnet.NewEngine(1)
	ctrlPump := NewPump(ctrlEng, time.Millisecond)
	defer ctrlPump.Close()
	sc := store.NewCluster(ctrlEng, store.DefaultConfig(store.Eventual))
	members := cluster.NewMembership(cluster.SingleController, []store.NodeID{1}, []topo.DPID{1})
	profile := controller.ONOSProfile()
	profile.PausePeriod = 0
	profile.LLDPPeriod = 0
	var ctrl *controller.Controller
	ctrlPump.Do(func() {
		ctrl = controller.New(ctrlEng, 1, profile, sc.AddNode(1), members)
	})

	ce, err := ListenController("127.0.0.1:0", ctrlPump,
		func(dpid topo.DPID, msg openflow.Message, send func(openflow.Message)) {
			if _, ok := ctrl.Membership().Master(dpid); !ok {
				return
			}
			ctrl.HandleSouthbound(dpid, msg, nil)
			_ = send // downlink wired below via ConnectSwitch
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()

	// Switch domain.
	swEng := simnet.NewEngine(2)
	swPump := NewPump(swEng, time.Millisecond)
	defer swPump.Close()
	var (
		mu  sync.Mutex
		sw  *dataplane.Switch
		se  *SwitchEnd
		got []openflow.Message
	)
	swPump.Do(func() {
		sw = dataplane.NewSwitch(swEng, 1)
		sw.SetPorts([]uint16{1, 2})
	})
	se, err = DialSwitch(ce.Addr(), 1, swPump, func(msg openflow.Message) {
		mu.Lock()
		got = append(got, msg)
		mu.Unlock()
		sw.HandleControllerMessage(msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	swPump.Do(func() {
		sw.SetSendUp(func(msg openflow.Message) { _ = se.Send(msg) })
	})

	// Wire the controller's downlink through the live connection: the
	// ControllerEnd send closure isn't reachable here, so register the
	// downlink explicitly via ConnectSwitch using the session.
	ctrlPump.Do(func() {
		ctrl.ConnectSwitch(1, func(msg openflow.Message) {
			// Runs inside the controller pump: write without blocking it.
			m := msg
			go func() { _ = writeToSwitch(ce, m) }()
		})
	})
	_ = got

	// The handshake completes over the wire: the controller learns the
	// switch (SwitchDB) from the FEATURES_REPLY that crossed TCP.
	waitFor(t, func() bool {
		okCh := false
		ctrlPump.Do(func() {
			_, okCh = ctrl.Node().Get(store.SwitchDB, topo.DPID(1).String())
		})
		return okCh
	})

	// Teach the controller a host binding, then inject a packet at the
	// switch: PACKET_IN over TCP → reactive forwarding → FLOW_MOD +
	// PACKET_OUT over TCP → rule installed in the real switch table.
	h2 := topo.HostMAC(2)
	rec := `{"mac":"` + h2.String() + `","ip":"10.0.0.2","dpid":1,"port":2}`
	ctrlPump.Do(func() {
		ctrl.Node().Write(store.EdgesDB, store.OpCreate, h2.String(), rec, nil)
	})
	frame := openflow.TCPPacket(topo.HostMAC(1), h2, topo.HostIP(1), topo.HostIP(2), 1000, 80, 0x02, 0)
	swPump.Do(func() { sw.Inject(frame, 1) })

	waitFor(t, func() bool {
		n := 0
		swPump.Do(func() { n = len(sw.Table()) })
		return n == 1
	})
	var entry *dataplane.FlowEntry
	swPump.Do(func() { entry = sw.Table()[0] })
	if entry.Actions[0].Port != 2 {
		t.Fatalf("installed rule forwards to %d, want 2", entry.Actions[0].Port)
	}
}

// writeToSwitch sends a controller→switch message to the single bound
// session of the ControllerEnd (test helper: one switch connected).
func writeToSwitch(ce *ControllerEnd, msg openflow.Message) error {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	for conn := range ce.conns {
		return openflow.WriteMessage(conn, msg)
	}
	return nil
}

func TestControllerEndRejectsUnboundTraffic(t *testing.T) {
	eng := simnet.NewEngine(1)
	pump := NewPump(eng, time.Millisecond)
	defer pump.Close()
	handled := 0
	ce, err := ListenController("127.0.0.1:0", pump,
		func(topo.DPID, openflow.Message, func(openflow.Message)) { handled++ })
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	// A client that skips the HELLO binding gets dropped.
	se, err := DialSwitch(ce.Addr(), 42, pump, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	// Proper binding works: a PACKET_IN reaches the handler.
	if err := se.Send(&openflow.PacketIn{InPort: 1, Data: openflow.TCPPacket(topo.HostMAC(1), topo.HostMAC(2), topo.HostIP(1), topo.HostIP(2), 1, 2, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		n := 0
		pump.Do(func() { n = handled })
		return n == 1
	})
}

func TestPumpAdvancesVirtualTime(t *testing.T) {
	eng := simnet.NewEngine(1)
	pump := NewPump(eng, time.Millisecond)
	defer pump.Close()
	fired := false
	pump.Do(func() {
		eng.Schedule(5*time.Millisecond, func() { fired = true })
	})
	waitFor(t, func() bool {
		ok := false
		pump.Do(func() { ok = fired })
		return ok
	})
}

// TestPumpWithInjectedClock drives the bridge off a fake clock: virtual
// time advances exactly as far as the injected clock says, independent of
// the host clock.
func TestPumpWithInjectedClock(t *testing.T) {
	var (
		mu   sync.Mutex
		fake = time.Unix(1000, 0)
	)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return fake
	}
	eng := simnet.NewEngine(1)
	pump := NewPumpWithClock(eng, time.Millisecond, clock)
	defer pump.Close()

	fired := false
	pump.Do(func() {
		eng.Schedule(time.Hour, func() { fired = true })
	})
	pump.Do(func() {
		if fired {
			t.Fatal("event fired before the injected clock advanced")
		}
		if now := eng.Now(); now != 0 {
			t.Fatalf("virtual time moved to %v with a frozen clock", now)
		}
	})

	mu.Lock()
	fake = fake.Add(2 * time.Hour)
	mu.Unlock()
	pump.Do(func() {})
	pump.Do(func() {
		if !fired {
			t.Fatal("event did not fire after the injected clock advanced past it")
		}
		if now := eng.Now(); now != 2*time.Hour {
			t.Fatalf("virtual time = %v, want 2h", now)
		}
	})
}

// TestControllerEndAcceptBackoff scripts a burst of Accept failures and
// verifies the loop backs off on a doubling schedule (never hot-spins),
// recovers once accepts succeed again, and counts every failure.
func TestControllerEndAcceptBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := wiretest.WrapListener(ln)
	const failures = 4
	fl.FailAccepts(failures, errors.New("synthetic accept failure"))

	var (
		mu     sync.Mutex
		delays []time.Duration
	)
	sleep := func(d time.Duration, cancel <-chan struct{}) bool {
		mu.Lock()
		delays = append(delays, d)
		mu.Unlock()
		select {
		case <-cancel:
			return false
		default:
			return true
		}
	}
	eng := simnet.NewEngine(1)
	pump := NewPump(eng, time.Millisecond)
	defer pump.Close()
	handled := 0
	ce := newControllerEnd(fl, pump,
		func(topo.DPID, openflow.Message, func(openflow.Message)) { handled++ }, sleep)
	defer ce.Close()

	waitFor(t, func() bool { return ce.AcceptErrors() == failures })
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delays) >= failures
	})
	mu.Lock()
	got := append([]time.Duration(nil), delays[:failures]...)
	mu.Unlock()
	want := acceptBackoffBase
	for i, d := range got {
		if d != want {
			t.Fatalf("delay %d = %v, want %v", i, d, want)
		}
		if want *= 2; want > acceptBackoffMax {
			want = acceptBackoffMax
		}
	}

	// The listener recovered: a real switch can still connect and bind.
	se, err := DialSwitch(ce.Addr(), 7, pump, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if err := se.Send(&openflow.PacketIn{InPort: 1, Data: openflow.TCPPacket(topo.HostMAC(1), topo.HostMAC(2), topo.HostIP(1), topo.HostIP(2), 1, 2, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		n := 0
		pump.Do(func() { n = handled })
		return n == 1
	})
}

// TestControllerEndCloseUnderAcceptStorm closes the end while clients
// dial in a tight loop: Close must return promptly and no connection may
// be registered after its sweep.
func TestControllerEndCloseUnderAcceptStorm(t *testing.T) {
	eng := simnet.NewEngine(1)
	pump := NewPump(eng, time.Millisecond)
	defer pump.Close()
	ce, err := ListenController("127.0.0.1:0", pump,
		func(topo.DPID, openflow.Message, func(openflow.Message)) {})
	if err != nil {
		t.Fatal(err)
	}
	addr := ce.Addr()

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
					continue
				}
				_ = conn.Close()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)

	closed := make(chan error, 1)
	go func() { closed <- ce.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ControllerEnd.Close did not return under accept storm")
	}
	close(stop)
	dialers.Wait()

	ce.mu.Lock()
	leaked := len(ce.conns)
	ce.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d connections leaked past Close", leaked)
	}
	// Idempotent: a second Close is a no-op, not a panic.
	if err := ce.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestLockDisciplineWrites has several goroutines send on one session at
// each end of the bridge, over conns that count their writes in a plain
// field, i.e. conns that are not safe for concurrent writers. Both ends
// promise to serialize their writes (writeMu), so under -race a dropped
// write lock races on the counter.
func TestLockDisciplineWrites(t *testing.T) {
	eng := simnet.NewEngine(1)
	pump := NewPump(eng, time.Millisecond)
	defer pump.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sends := make(chan func(openflow.Message), 1)
	ce := NewControllerEnd(countingListener{ln}, pump,
		func(_ topo.DPID, _ openflow.Message, send func(openflow.Message)) {
			select {
			case sends <- send:
			default:
			}
		})
	defer ce.Close()
	se, err := DialSwitch(ce.Addr(), 7, pump, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if err := se.Send(&openflow.BarrierRequest{XID: 1}); err != nil {
		t.Fatal(err)
	}
	toSwitch := <-sends

	a, b := net.Pipe()
	defer a.Close()
	go func() { _, _ = io.Copy(io.Discard, b) }()
	toController := &SwitchEnd{conn: &countingConn{Conn: a}}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				toSwitch(&openflow.BarrierReply{XID: uint32(j)})
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := toController.Send(&openflow.BarrierRequest{XID: uint32(j)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// countingConn counts its writes in a plain field, so it is not safe for
// concurrent writers.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// countingListener hands out countingConns.
type countingListener struct{ net.Listener }

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c}, nil
}
