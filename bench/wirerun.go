package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/wire"
)

const (
	// ringSize bounds how far apart the sequence numbers of two triggers
	// in flight may be: an omission trigger waits 50 ms while the other
	// window slots keep turning over, a few thousand triggers at most.
	ringSize = 1 << 16
	// drainDeadline is how long a trigger may wait for its verdict once
	// sending has stopped before it counts as failed.
	drainDeadline = 2 * time.Second
)

// inflight is a sent trigger waiting for its verdict.
type inflight struct {
	seq    uint64
	sentNS int64 // loop clock at the first Client.Send
	n      int   // responses sent for it
	class  class
	live   bool
}

// window is what one measure window observed.
type window struct {
	a, b     snapshot
	sliceLen time.Duration
	slices   []int64 // verdicts received per slice
	verdicts int64   // verdicts received between a and b
	latNS    []int64 // first Send → OnResult, per verdict inside a slice
	// edgeCPU[i] and edgeLat[i] are the process CPU time and len(latNS)
	// when slice i opened (i = len(slices): when the last one closed),
	// read by the first verdict past the edge; edges counts those read.
	edgeCPU []float64
	edgeLat []int
	edges   int
	// Traced windows only.
	detectNS  []int64 // Result.DetectionTime
	transitNS []int64 // latency minus detection time
}

// loop is one client connection driving one validator service in a
// closed loop: a new trigger is sent only when fewer than sp.window
// await their verdict.
type loop struct {
	sp    spec
	g     *gen
	srv   *wire.Server
	c     *wire.Client
	conn  connCounters
	t0    time.Time // loop clock origin
	slots chan struct{}
	stats chan struct{} // one token per stats reply
	// strace is the sending goroutine's view of the traced window.
	strace *tracer

	mu       sync.Mutex
	ring     []inflight // guarded by mu
	sent     int64      // guarded by mu
	verdicts int64      // guarded by mu
	wrong    int64      // guarded by mu
	stalled  int64      // guarded by mu
	win      *window    // guarded by mu; non-nil while measuring
	winStart int64      // guarded by mu
	tr       *tracer    // guarded by mu; the reader's view of the traced window
}

// setUp builds the table, starts the service, connects and warms up with
// the workload's fixed trigger count.
func setUp(sp spec, opt options) (*loop, error) {
	g, err := newGen(sp, opt.seed, buildTable(sp))
	if err != nil {
		return nil, err
	}
	l := &loop{
		sp: sp, g: g, t0: time.Now(),
		slots: make(chan struct{}, sp.window),
		stats: make(chan struct{}, 1),
		ring:  make([]inflight, ringSize),
	}
	l.srv, err = jury.ServeValidator("127.0.0.1:0", jury.ValidatorServiceConfig{
		ClusterSize: sp.n, K: sp.n - 1,
		ValidationTimeout: validationTimeout, Shards: sp.shards,
	})
	if err != nil {
		return nil, fmt.Errorf("serve validator: %w", err)
	}
	addr := l.srv.Addr()
	l.c, err = wire.DialConfig(addr, wire.ClientConfig{
		Codec: wire.CodecBinary,
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: conn, n: &l.conn}, nil
		},
		OnResult: l.onResult,
		OnStats: func(wire.Stats) {
			select {
			case l.stats <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		_ = l.srv.Close()
		return nil, fmt.Errorf("dial validator: %w", err)
	}
	warm := int64(float64(sp.warmup) * opt.scale)
	for l.g.seq < uint64(warm) {
		if err := l.sendOne(); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

func (l *loop) now() int64 { return int64(time.Since(l.t0)) }

// sendOne sends Ψ-only updates up to and including the next trigger.
func (l *loop) sendOne() error {
	tr := l.strace
	for {
		rs, cl, seq := l.g.next()
		if cl == classPsi {
			// Ψ-only updates take no window slot, and the heavy-tailed
			// arrival process can put a thousand of them between two
			// flows: hold them back rather than let the client's bounded
			// queue shed.
			for l.c.Backlog() > wire.DefaultQueueSize/2 {
				time.Sleep(50 * time.Microsecond)
			}
			if err := l.c.Send(rs[0]); err != nil {
				return err
			}
			continue
		}
		select {
		case l.slots <- struct{}{}:
		default:
			t := time.NewTimer(drainDeadline)
			select {
			case l.slots <- struct{}{}:
				t.Stop()
			case <-t.C:
				return fmt.Errorf("no verdict for %v with %d triggers in flight", drainDeadline, l.sp.window)
			}
		}
		start := l.now()
		l.mu.Lock()
		e := &l.ring[seq%ringSize]
		if e.live {
			l.wrong++ // its verdict can no longer be matched
		}
		*e = inflight{seq: seq, sentNS: start, n: len(rs), class: cl, live: true}
		l.sent++
		l.mu.Unlock()
		end := start
		for i := range rs {
			err := l.c.Send(rs[i])
			if err != nil {
				return err
			}
			if tr != nil {
				s := end
				end = l.now()
				tr.add(spanSend, seq, s, end)
			}
		}
		if tr != nil {
			tr.add(spanSubmit, seq, start, end)
			if b := l.c.Backlog(); b > tr.backlogMax {
				tr.backlogMax = b
			}
		}
		return nil
	}
}

// onResult runs on the client's reader goroutine for every pushed
// verdict: it checks the verdict's class, records the latency and frees
// the trigger's window slot.
func (l *loop) onResult(r core.Result) {
	now := l.now()
	seq, ok := parseTriggerID(r.Trigger)
	l.mu.Lock()
	e := &l.ring[seq%ringSize]
	if !ok || !e.live || e.seq != seq {
		l.wrong++ // a verdict nobody is waiting for
		l.mu.Unlock()
		return
	}
	e.live = false
	l.verdicts++
	switch {
	case e.class.matches(r):
	case r.TimedOut && r.Responses < e.n:
		// The validator ruled at θτ on part of the trigger's responses:
		// the box stalled for longer than 50 ms between the first and the
		// last of them. That verdict is right for what arrived in time.
		l.stalled++
	default:
		l.wrong++
	}
	if w := l.win; w != nil {
		w.verdicts++
		i := int((now - l.winStart) / int64(w.sliceLen))
		for w.edges <= i && w.edges <= len(w.slices) {
			w.edgeCPU[w.edges], w.edgeLat[w.edges] = cpuTimeUS(), len(w.latNS)
			w.edges++
		}
		if i < len(w.slices) {
			w.slices[i]++
			w.latNS = append(w.latNS, now-e.sentNS)
		}
		if tr := l.tr; tr != nil && seq > tr.base {
			det := int64(r.DetectionTime)
			tr.add(spanTrigger, seq, e.sentNS, now)
			tr.add(spanValidate, seq, now-det, now)
			tr.add(spanTransit, seq, e.sentNS, now-det)
			w.detectNS = append(w.detectNS, det)
			w.transitNS = append(w.transitNS, now-e.sentNS-det)
		}
	}
	l.mu.Unlock()
	<-l.slots
}

// measure keeps the closed loop running for the given time and returns
// what it observed. With a tracer the window is traced.
func (l *loop) measure(seconds float64, tr *tracer) (*window, error) {
	dur := time.Duration(seconds * float64(time.Second))
	w := &window{sliceLen: min(time.Second, dur)}
	w.slices = make([]int64, int(dur/w.sliceLen))
	w.edgeCPU, w.edgeLat = make([]float64, len(w.slices)+1), make([]int, len(w.slices)+1)
	// Room for 100k verdicts per second, so that recording latencies
	// does not show up in the allocation metrics.
	w.latNS = make([]int64, 0, int(seconds*100e3)+1024)
	if tr != nil {
		tr.t0, tr.base = l.t0, l.g.seq
		w.detectNS = make([]int64, 0, cap(w.latNS))
		w.transitNS = make([]int64, 0, cap(w.latNS))
	}
	reconnects := l.c.Reconnects()
	w.a = takeSnapshot(&l.conn)
	w.edgeCPU[0], w.edges = w.a.cpuUS, 1
	l.mu.Lock()
	l.win, l.winStart, l.tr = w, int64(w.a.at.Sub(l.t0)), tr
	l.mu.Unlock()
	l.strace, l.g.tr = tr, tr
	var err error
	for deadline := w.a.at.Add(dur); err == nil && time.Now().Before(deadline); {
		err = l.sendOne()
	}
	l.strace, l.g.tr = nil, nil
	l.mu.Lock()
	l.win, l.tr = nil, nil
	l.mu.Unlock()
	w.b = takeSnapshot(&l.conn)
	for ; w.edges <= len(w.slices); w.edges++ { // no verdict came past these edges
		w.edgeCPU[w.edges], w.edgeLat[w.edges] = w.b.cpuUS, len(w.latNS)
	}
	if err == nil && l.c.Reconnects() != reconnects {
		err = fmt.Errorf("client reconnected inside the measure window")
	}
	if err == nil && w.verdicts == 0 {
		err = fmt.Errorf("no verdict inside the measure window")
	}
	return w, err
}

// drain waits for the verdicts still owed, up to drainDeadline.
func (l *loop) drain() {
	for deadline := time.Now().Add(drainDeadline); time.Now().Before(deadline); {
		l.mu.Lock()
		owed := l.sent - l.verdicts
		l.mu.Unlock()
		if owed == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (l *loop) close() {
	_ = l.c.Close()
	_ = l.srv.Close()
}

// outcome drains, and returns the triggers sent and how many of them
// failed: no verdict by the drain deadline, a verdict of the wrong class,
// or a response shed by the client's queue. Verdicts the validator had to
// give on partial evidence after a stall are logged; more than one in
// 10 000 of them is not a stalling box but lost responses, and fails.
func (l *loop) outcome() (attempted, failed int64) {
	l.drain()
	l.mu.Lock()
	defer l.mu.Unlock()
	failed = l.sent - l.verdicts + l.wrong + l.c.Dropped()
	if l.stalled*10000 > l.sent {
		failed += l.stalled
	}
	if failed > 0 || l.stalled > 0 {
		log.Printf("%s: %d triggers sent, %d without verdict, %d wrong verdicts, %d responses dropped by the client, %d verdicts on partial evidence after a stall",
			l.sp.name, l.sent, l.sent-l.verdicts, l.wrong, l.c.Dropped(), l.stalled)
	}
	return l.sent, failed
}

// runWire runs one wire workload: the set-ups, the measure window, the
// drain, and in a traced run the layer replays.
func runWire(sp spec, opt options) (result, error) {
	res := result{Metrics: map[string]metric{}}
	l, setupS, err := repeatSetUp(opt, func() (*loop, error) { return setUp(sp, opt) }, func(l *loop) {
		a, f := l.outcome()
		l.close()
		res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
	})
	if err != nil {
		return res, err
	}
	defer l.close()

	if opt.trace {
		if err := l.traced(opt, &res); err != nil {
			return res, err
		}
	} else {
		w, err := l.measure(opt.seconds, nil)
		if err != nil {
			return res, err
		}
		e2e := w.endToEnd()
		e2e["setup_s"] = metric{median(setupS), "s"}
		res.Metrics = e2e
		log.Printf("%s: warmup=%d triggers, %d verdicts in %d slices of %v, heap %.0f→%.0f MB, set-ups %.3v s",
			sp.name, int(float64(sp.warmup)*opt.scale), w.verdicts, len(w.slices), w.sliceLen,
			float64(w.a.mem.HeapInuse)/1e6, float64(w.b.mem.HeapInuse)/1e6, setupS)
		log.Printf("%s: per slice: verdicts/s %.0f, latency p50 us %.1f, cpu us/verdict %.1f",
			sp.name, w.rates(), w.latencies(), w.cpus())
	}
	a, f := l.outcome()
	res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
	return res, nil
}

// rates is verdicts per second in each slice of the window.
func (w *window) rates() []float64 {
	per := make([]float64, len(w.slices))
	for i, n := range w.slices {
		per[i] = float64(n) / w.sliceLen.Seconds()
	}
	return per
}

// latencies is the median first-Send → OnResult latency inside each
// slice, in microseconds.
func (w *window) latencies() []float64 {
	var per []float64
	for i := range w.slices {
		if lat := w.latNS[w.edgeLat[i]:w.edgeLat[i+1]]; len(lat) > 0 {
			per = append(per, median(micros(lat)))
		}
	}
	return per
}

// cpus is CPU microseconds (user and system; client, server and bench
// together) per verdict in each slice.
func (w *window) cpus() []float64 {
	var per []float64
	for i, n := range w.slices {
		if n > 0 {
			per = append(per, (w.edgeCPU[i+1]-w.edgeCPU[i])/float64(n))
		}
	}
	return per
}

func (w *window) throughput() float64    { return upperDecile(w.rates()) }
func (w *window) cpuPerVerdict() float64 { return lowerDecile(w.cpus()) }

// perVerdict divides a window total by the verdicts received in it.
func (w *window) perVerdict(total float64) float64 { return total / float64(w.verdicts) }

// endToEnd computes the end-to-end metrics of an untraced window.
func (w *window) endToEnd() map[string]metric {
	return map[string]metric{
		"triggers_per_s":          {w.throughput(), "1/s"},
		"verdict_latency_p50_us":  {lowerDecile(w.latencies()), "us"},
		"cpu_us_per_trigger":      {w.cpuPerVerdict(), "us"},
		"allocs_per_trigger":      {w.perVerdict(float64(w.b.mem.Mallocs - w.a.mem.Mallocs)), "count"},
		"alloc_bytes_per_trigger": {w.perVerdict(float64(w.b.mem.TotalAlloc - w.a.mem.TotalAlloc)), "B"},
		"wire_bytes_per_trigger":  {w.perVerdict(float64(w.b.rx - w.a.rx + w.b.tx - w.a.tx)), "B"},
	}
}

// statsRTT times n RequestStats → OnStats round trips on the idle
// connection: the transport floor without the validator.
func (l *loop) statsRTT(n int) ([]float64, error) {
	var us []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := l.c.RequestStats(); err != nil {
			return nil, err
		}
		t := time.NewTimer(drainDeadline)
		select {
		case <-l.stats:
			t.Stop()
		case <-t.C:
			return nil, fmt.Errorf("no stats reply in %v", drainDeadline)
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return us, nil
}

// scrapeServer reads the service's metrics page n times and returns the
// last page's samples and the median time one scrape took.
func (l *loop) scrapeServer(n int) (map[string]float64, float64, error) {
	var (
		page bytes.Buffer
		ms   []float64
	)
	for i := 0; i < n; i++ {
		page.Reset()
		start := time.Now()
		if err := l.srv.WriteMetrics(&page); err != nil {
			return nil, 0, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return scrape(page.Bytes()), median(ms), nil
}
