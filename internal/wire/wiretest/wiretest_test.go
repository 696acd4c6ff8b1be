package wiretest

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func pipePair() (*Conn, net.Conn) {
	a, b := net.Pipe()
	return Wrap(a), b
}

func TestWrapIsTransparent(t *testing.T) {
	fc, peer := pipePair()
	defer fc.Close()
	defer peer.Close()
	go func() { _, _ = fc.Write([]byte("hello")) }()
	buf := make([]byte, 16)
	n, err := peer.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
}

func TestCutAfterSplitsMidWrite(t *testing.T) {
	fc, peer := pipePair()
	defer peer.Close()
	fc.CutAfter(3)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := peer.Read(buf)
		got <- buf[:n]
	}()
	n, err := fc.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, ErrCut) {
		t.Fatalf("write = %d, %v; want 3, ErrCut", n, err)
	}
	if prefix := <-got; string(prefix) != "abc" {
		t.Fatalf("peer saw %q, want %q", prefix, "abc")
	}
	// The connection is dead afterwards.
	if _, err := fc.Write([]byte("more")); !errors.Is(err, ErrCut) {
		t.Fatalf("post-cut write = %v, want ErrCut", err)
	}
}

func TestPartialWritesShortWrite(t *testing.T) {
	fc, peer := pipePair()
	defer fc.Close()
	defer peer.Close()
	fc.PartialWrites(2)
	go func() {
		buf := make([]byte, 16)
		_, _ = io.ReadFull(peer, buf[:2])
	}()
	n, err := fc.Write([]byte("abcd"))
	if n != 2 || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("write = %d, %v; want 2, io.ErrShortWrite", n, err)
	}
}

func TestInjectGarbagePrependsToReads(t *testing.T) {
	fc, peer := pipePair()
	defer fc.Close()
	defer peer.Close()
	fc.InjectGarbage([]byte("junk"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(fc, buf); err != nil || string(buf) != "junk" {
		t.Fatalf("read = %q, %v", buf, err)
	}
	go func() { _, _ = peer.Write([]byte("real")) }()
	if _, err := io.ReadFull(fc, buf); err != nil || string(buf) != "real" {
		t.Fatalf("read = %q, %v", buf, err)
	}
}

func TestStallBlocksUntilRelease(t *testing.T) {
	fc, peer := pipePair()
	defer fc.Close()
	defer peer.Close()
	release := fc.Stall()
	wrote := make(chan struct{})
	go func() {
		_, _ = fc.Write([]byte("x"))
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("write completed while stalled")
	case <-time.After(20 * time.Millisecond):
	}
	go func() {
		buf := make([]byte, 1)
		_, _ = peer.Read(buf)
	}()
	release()
	release() // idempotent
	select {
	case <-wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("write never completed after release")
	}
}

func TestListenerFailAccepts(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := WrapListener(inner)
	defer fl.Close()
	boom := errors.New("boom")
	fl.FailAccepts(2, boom)
	for i := 0; i < 2; i++ {
		if _, err := fl.Accept(); !errors.Is(err, boom) {
			t.Fatalf("accept %d = %v, want boom", i, err)
		}
	}
	// Scripted failures exhausted: Accept delegates to the real listener.
	go func() {
		conn, err := net.Dial("tcp", fl.Addr().String())
		if err == nil {
			_ = conn.Close()
		}
	}()
	conn, err := fl.Accept()
	if err != nil {
		t.Fatalf("accept after failures: %v", err)
	}
	_ = conn.Close()
	if fl.Accepts() != 3 {
		t.Fatalf("accepts = %d, want 3", fl.Accepts())
	}
}

// TestLockDisciplineConn arms every fault while other goroutines read
// and write through the conn: the package's promise that
// faults "may be armed mid-stream from another goroutine". Under -race,
// a dropped lock around any fault field races with the other side.
func TestLockDisciplineConn(t *testing.T) {
	fc, peer := pipePair()
	fc.CutAfter(1 << 40) // armed but never reached: Write takes the decrement path
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // the peer drains what fc writes...
		defer wg.Done()
		buf := make([]byte, 64)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	go func() { // ...and feeds what fc reads.
		defer wg.Done()
		for {
			if _, err := peer.Write([]byte("data")); err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			if _, err := fc.Write([]byte("payload")); err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		for {
			if _, err := fc.Read(buf); err != nil {
				return
			}
		}
	}()
	// One goroutine per arming call: a call that dropped its lock would
	// then share no synchronization at all with the I/O goroutines.
	var arm sync.WaitGroup
	for _, f := range []func(){
		func() { fc.CutAfter(1 << 40) },
		func() { fc.PartialWrites(1 << 20) },
		func() { fc.InjectGarbage([]byte("g")) },
		func() { fc.Stall()() },
	} {
		arm.Add(1)
		go func() {
			defer arm.Done()
			for i := 0; i < 2000; i++ {
				f()
			}
		}()
	}
	arm.Wait()
	_ = fc.Close()
	_ = peer.Close()
	wg.Wait()
}

// TestLockDisciplineListener accepts, scripts failures and reads the
// Accept count, each from its own goroutine.
func TestLockDisciplineListener(t *testing.T) {
	fl := WrapListener(refusing{})
	boom := errors.New("boom")
	var wg sync.WaitGroup
	for _, f := range []func(){
		func() { _, _ = fl.Accept() },
		func() { fl.FailAccepts(1, boom) },
		func() { _ = fl.Accepts() },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				f()
			}
		}()
	}
	wg.Wait()
	if fl.Accepts() != 2000 {
		t.Fatalf("accepts = %d, want 2000", fl.Accepts())
	}
}

// refusing is a listener whose Accept fails at once, so an accept loop
// over it never blocks.
type refusing struct{ net.Listener }

func (refusing) Accept() (net.Conn, error) { return nil, errors.New("refused") }
