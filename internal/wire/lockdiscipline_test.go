package wire

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/wire/wiretest"
)

// witness stands in for a user that honours a lock discipline: until
// stop is called it repeatedly takes mu and runs touch, which reads and
// rewrites (with the same values) every field mu guards. Under -race, an
// access to those fields made without mu then races with it, whether or
// not the code under test has a natural concurrent partner for it.
func witness(mu *sync.Mutex, touch func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			mu.Lock()
			touch()
			mu.Unlock()
		}
	}()
	return func() { close(quit); <-done }
}

// TestLockDisciplineClient drives every path of the client's writer —
// coalescing, successful writes, idling, cuts and redials — while
// senders, Backlog/Connected pollers and a witness for mu run beside it.
// Under -race, a dropped lock around any field mu guards shows up.
func TestLockDisciplineClient(t *testing.T) {
	s, err := Serve("127.0.0.1:0", serverConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialConfig(s.Addr(), ClientConfig{
		QueueSize: 1 << 12,
		MaxBatch:  8,
		// Real sleeps: the redial backoff leaves the writer outside mu
		// long enough for the witness to get in.
		ReconnectBase: 50 * time.Microsecond,
		ReconnectMax:  time.Millisecond,
		// Every connection dies after a few kilobytes, so the writer
		// keeps redialing while the senders run.
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				return nil, err
			}
			fc := wiretest.Wrap(conn)
			fc.CutAfter(16 << 10)
			return fc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := witness(&c.mu, func() {
		ring, inflight, debt, conn := c.ring, c.inflight, c.pongDebt, c.conn
		proven, connected, closed := c.proven, c.connected, c.closed
		c.ring, c.inflight, c.pongDebt, c.conn = ring, inflight, debt, conn
		c.proven, c.connected, c.closed = proven, connected, closed
	})
	defer stop()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				_ = c.Send(resp(1, trigID(fmt.Sprintf("lock%d", g), i), core.CacheUpdate, false, "up"))
			}
		}()
	}
	for _, poll := range []func(){func() { _ = c.Backlog() }, func() { _ = c.Connected() }} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				poll()
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return c.Backlog() == 0 })
	// Trickle: each lone envelope is a short batch, and the writer idles
	// between them.
	for i := 0; i < 50; i++ {
		_ = c.Send(resp(1, trigID("trickle", i), core.CacheUpdate, false, "up"))
		waitFor(t, func() bool { return c.Backlog() == 0 })
	}
	if c.Reconnects() == 0 {
		t.Fatal("no redial happened; the cut schedule did not exercise reconnects")
	}
}

// TestLockDisciplineServer has traced clients with fresh origins connect
// and stream while TraceOrigins and WriteTrace poll, beside a witness for
// mu. Under -race, dropping mu from the origin table or from the trace
// read (which must not overlap dispatch) shows up.
func TestLockDisciplineServer(t *testing.T) {
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
	defer s.Close()
	stop := witness(&s.mu, func() {
		m := s.traceShifts
		_ = m[""]
		s.traceShifts = m
	})
	done := make(chan struct{})
	var polls sync.WaitGroup
	for _, poll := range []func(){
		func() { _ = s.TraceOrigins() },
		func() { _ = s.WriteTrace(io.Discard) },
	} {
		polls.Add(1)
		go func() {
			defer polls.Done()
			for {
				select {
				case <-done:
					return
				default:
					poll()
				}
			}
		}()
	}
	// Twenty clients, each with its own origin, connect and stream while
	// the pollers run. They close only once the server has seen every
	// origin: a close with pushed results unread resets the socket, which
	// may discard what the server has not read yet.
	clients := make([]*Client, 20)
	defer func() {
		close(done)
		polls.Wait()
		stop()
		for _, c := range clients {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	var dial sync.WaitGroup
	for g := 0; g < 4; g++ {
		dial.Add(1)
		go func() {
			defer dial.Done()
			for k := g; k < len(clients); k += 4 {
				c, err := DialConfig(s.Addr(), ClientConfig{Trace: &TraceContext{Origin: fmt.Sprintf("ctrl-%d", k)}})
				if err != nil {
					t.Error(err)
					return
				}
				clients[k] = c
				for i := 0; i < 50; i++ {
					id := trigID(fmt.Sprintf("lock%d", k), i)
					_ = c.Send(resp(1, id, core.CacheUpdate, false, "up"))
					_ = c.Send(resp(2, id, core.SecondaryExec, true, "up"))
					_ = c.Send(resp(3, id, core.SecondaryExec, true, "up"))
				}
			}
		}()
	}
	dial.Wait()
	waitFor(t, func() bool { return len(s.TraceOrigins()) == len(clients) })
}
