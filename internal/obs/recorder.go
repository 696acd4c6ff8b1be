package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// EventKind classifies one flight-recorder event on a trigger's lifecycle.
type EventKind uint8

// Flight-recorder event kinds, in trigger-lifecycle order.
const (
	// EvSubmit: a pending trigger opened (first response arrived).
	EvSubmit EventKind = iota + 1
	// EvResponse: one controller response appended to a pending trigger
	// (Detail "late" when it arrived after the verdict).
	EvResponse
	// EvPsi: an untainted response updated a controller's Ψ entry.
	EvPsi
	// EvTimer: the validation deadline expired and forced a decision.
	EvTimer
	// EvVerdict: the trigger decided (Verdict/Fault carry the outcome).
	EvVerdict
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvSubmit:
		return "submit"
	case EvResponse:
		return "response"
	case EvPsi:
		return "psi"
	case EvTimer:
		return "timer"
	case EvVerdict:
		return "verdict"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// MarshalJSON renders the kind as its name, so dumps read without a
// decoder ring.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts the name form written by MarshalJSON.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for _, cand := range []EventKind{EvSubmit, EvResponse, EvPsi, EvTimer, EvVerdict} {
		if cand.String() == s {
			*k = cand
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one flight-recorder entry: a single step of a trigger's life
// inside the validator. Events are plain values (strings share backing
// arrays with their sources), so recording one is an assignment — no
// allocation on the steady-state path.
type Event struct {
	// Seq is the recorder-local append order (1-based), the tiebreak for
	// events recorded at the same virtual instant on the same shard.
	Seq uint64 `json:"seq"`
	// AtNS is the virtual timestamp of the event.
	AtNS int64 `json:"at_ns"` // dump format is virtual ns by contract
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Trigger is the taint/trigger ID the event belongs to (τ).
	Trigger string `json:"trigger,omitempty"`
	// Shard is the shard whose recorder captured the event.
	Shard int `json:"shard"`
	// Origin names the process that recorded the event (for stitched
	// multi-process dumps); empty in single-process dumps.
	Origin string `json:"origin,omitempty"`
	// Ctrl is the responding controller's node ID (EvResponse, EvPsi).
	Ctrl int64 `json:"ctrl,omitempty"`
	// Verdict and Fault carry the decision on EvVerdict events.
	Verdict string `json:"verdict,omitempty"`
	Fault   string `json:"fault,omitempty"`
	// Detail carries event-specific context ("late", the fault reason).
	Detail string `json:"detail,omitempty"`
	// Arg is an event-specific scalar: the armed timeout for EvSubmit,
	// the response count for EvVerdict.
	Arg int64 `json:"arg,omitempty"`
}

// Recorder is an always-on flight recorder: a fixed-size ring buffer of
// the most recent validator events, cheap enough to leave running in
// production and snapshotted to JSONL only when a dump predicate fires
// (non-benign verdict, queue high-watermark, overflow). A nil *Recorder
// is the disabled recorder: Record is a nil-check and nothing else, so
// instrumented hot paths cost nothing when flight recording is off.
//
// Record never allocates in steady state: the ring is pre-allocated at
// construction and entries are overwritten in place
// (TestSubmitRecorderBoundedAlloc pins the Submit hot path with a live
// recorder at zero allocations). Recorder is safe for concurrent use —
// appends take a mutex so a dump goroutine can snapshot while the owner
// keeps recording — but the intended shape is one recorder per shard
// with a single writer, merged at dump time via MergeEvents.
type Recorder struct {
	mu     sync.Mutex
	ring   []Event // guarded by mu
	total  uint64  // guarded by mu
	shard  int     // guarded by mu
	origin string  // guarded by mu
}

// DefaultFlightRing is the ring capacity when NewRecorder is given a
// non-positive one.
const DefaultFlightRing = 4096

// NewRecorder creates a flight recorder retaining the last capacity
// events (DefaultFlightRing when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultFlightRing
	}
	return &Recorder{ring: make([]Event, capacity)}
}

// Enabled reports whether the recorder records events.
func (r *Recorder) Enabled() bool { return r != nil }

// SetShard stamps every subsequently recorded event with the shard index
// (per-shard rings in the parallel plane).
func (r *Recorder) SetShard(i int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.shard = i
	r.mu.Unlock()
}

// SetOrigin stamps every subsequently recorded event with the process
// origin (for multi-process dump stitching).
func (r *Recorder) SetOrigin(o string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.origin = o
	r.mu.Unlock()
}

// Record appends one event, overwriting the oldest entry once the ring
// is full. Seq, Shard and Origin are filled in; everything else is the
// caller's. Nil-safe and allocation-free.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.total++
	e.Seq = r.total
	e.Shard = r.shard
	e.Origin = r.origin
	r.ring[(r.total-1)%uint64(len(r.ring))] = e
	r.mu.Unlock()
}

// Total returns the number of events ever recorded (retained or evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Snapshot copies the retained events oldest-first. This is the dump
// path: it allocates, so call it from dump predicates, not hot paths.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.ring))
	if r.total < n {
		n = r.total
	}
	out := make([]Event, 0, n)
	start := r.total - n
	for i := uint64(0); i < n; i++ {
		out = append(out, r.ring[(start+i)%uint64(len(r.ring))])
	}
	return out
}

// MergeEvents merges per-shard (or per-process) snapshots into one
// deterministic dump order: virtual time, then shard, then the shard's
// own append order. Wall-clock interleaving of the recorders never shows
// in the merged output for a deterministic run.
func MergeEvents(snaps ...[]Event) []Event {
	var out []Event
	for _, s := range snaps {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AtNS != out[j].AtNS {
			return out[i].AtNS < out[j].AtNS
		}
		if out[i].Origin != out[j].Origin {
			return out[i].Origin < out[j].Origin
		}
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteEventsJSONL writes one canonical JSON object per event — the
// flight-dump format. Byte-deterministic for a deterministic event list.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	for _, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("obs: marshal event: %w", err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("obs: write event: %w", err)
		}
	}
	return nil
}
