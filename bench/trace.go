package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names. Every span the bench records is around a call it makes
// into a layer, or a per-trigger interval seen from the client:
//
//	loadgen.next      one Source.Next call on the way to the trigger
//	trigger           first Client.Send → OnResult (the root)
//	├─ client.submit  first Client.Send → last Client.Send returned
//	│  └─ client.send one Client.Send
//	├─ validate       Result.DetectionTime as reported by the server
//	└─ transit        the root minus validate: wire, queues, hand-offs
//	sim.run           one Simulation.Run step (sim-onos7)
const (
	spanTrigger = iota
	spanLoadgen
	spanSubmit
	spanSend
	spanValidate
	spanTransit
	spanSimRun
	numSpans
)

var spanNames = [numSpans]string{"trigger", "loadgen.next", "client.submit", "client.send", "validate", "transit", "sim.run"}
var spanParents = [numSpans]string{"", "", "trigger", "client.submit", "trigger", "trigger", ""}

// span is one line of the trace file. Times are microseconds on the
// loop clock (since the connection's set-up began). The server's clock is not aligned with the
// client's, so validate is anchored to end where its trigger ends.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Trigger uint64  `json:"trigger,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// keepTriggers bounds the spans kept whole for the trace file; totals
// cover every span of the window.
const keepTriggers = 5000

// tracer holds a traced window's spans in memory. Both the sending
// goroutine and the client's reader add to it; everything else reads it
// after the window has closed.
type tracer struct {
	t0    time.Time // the loop clock's origin
	mu    sync.Mutex
	base  uint64 // last trigger sequence before the window
	count [numSpans]int64
	sumNS [numSpans]int64
	spans []span
	// backlogMax is the deepest Client.Backlog the sender saw after a
	// trigger's sends (sender-only).
	backlogMax int
}

// now is the span clock: nanoseconds since t0.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records one span of trigger seq over [startNS, endNS] on the span
// clock.
func (t *tracer) add(kind int, seq uint64, startNS, endNS int64) {
	t.mu.Lock()
	t.count[kind]++
	t.sumNS[kind] += endNS - startNS
	if seq-t.base <= keepTriggers {
		t.spans = append(t.spans, span{
			Name: spanNames[kind], Parent: spanParents[kind], Trigger: seq,
			StartUS: float64(startNS) / 1e3, EndUS: float64(endNS) / 1e3,
		})
	}
	t.mu.Unlock()
}

// meanNS is the mean duration of a span kind.
func (t *tracer) meanNS(kind int) float64 {
	return ratio(float64(t.sumNS[kind]), float64(t.count[kind]))
}

// write stores the kept spans as JSON lines in dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
