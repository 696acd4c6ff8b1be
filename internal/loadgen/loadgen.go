// Package loadgen synthesizes the event stream the end-to-end benchmark
// (bench/) turns into validator input: heavy-tailed flow arrivals plus
// host-join, host-leave and link-flap churn, generated lazily on a
// virtual clock. Endpoints are integer indices (resolved through
// topo.HostMAC on demand), so a Source over 2^24 hosts costs the same
// bytes as one over 2^4, and pulling an event allocates nothing.
//
// Determinism: every stochastic stream (arrivals, endpoint picks, joins,
// leaves, flaps) owns a private RNG seeded by
// sweep.DeriveSeed(cfg.Seed, "loadgen/<stream>"), so streams are
// mutually independent and the event sequence is a pure function of the
// Config. A Source is single-goroutine and reads no clock, so loadgen is
// held to the sim contract (TestSourceStreamGolden pins its stream).
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/jurysdn/jury/internal/sweep"
)

// EventKind discriminates the events a Source emits.
type EventKind uint8

const (
	FlowArrival EventKind = iota // a new flow's first packet: a PACKET_IN trigger
	HostJoin                     // a host (re)appearing: an ARP/discovery trigger
	HostLeave                    // a host disappearing from the edge
	LinkFlap                     // a port-status transition on a fabric link
)

// kindNames is indexed by EventKind.
var kindNames = [...]string{"flow_arrival", "host_join", "host_leave", "link_flap"}

// String returns the snake_case kind name.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one synthesized workload event. Events are plain values —
// emitting one allocates nothing.
type Event struct {
	At   time.Duration // virtual timestamp; consumers must not compare against wall time
	Kind EventKind
	// Src and Dst are 1-based virtual host indices (FlowArrival); Src
	// alone is the host of HostJoin/HostLeave. See topo.HostMAC.
	Src, Dst uint64
	// Link is a canonical link index (LinkFlap only); Up is the new
	// port status.
	Link int
	Up   bool
}

// Config parameterizes a Source.
type Config struct {
	// Hosts is the virtual endpoint population (≥ 2). Hosts are never
	// materialized: the value only bounds the index space events draw
	// from, so 2^24 costs no more than 16.
	Hosts uint64
	// Links bounds the link index space for flap events; 0 disables
	// flaps even when Churn.FlapRate is set.
	Links int
	// MeanRate is the flow-arrival rate in flows per second of virtual
	// time (> 0).
	MeanRate float64
	// Churn drives the side streams; zero disables them.
	Churn ChurnSpec
	// Seed roots every per-stream RNG via sweep.DeriveSeed.
	Seed int64
}

// ChurnSpec drives the host-churn and link-flap point processes, in events
// per second of virtual time. Each is an independent exponential stream:
// a non-positive rate disables it entirely.
type ChurnSpec struct {
	JoinRate  float64 // host joins (discovery)
	LeaveRate float64 // host leaves
	FlapRate  float64 // link flaps (port down/up transitions)
}

const (
	// arrivalAlpha is the Pareto shape of the flow interarrivals: finite
	// mean, infinite variance — the burstiness that tells production
	// load from a Poisson process.
	arrivalAlpha = 1.5
	// sentinel is "never": far enough out that no horizon reaches it.
	sentinel = time.Duration(math.MaxInt64)
)

// Source is the pull-based event iterator. Call Next from one goroutine
// only.
type Source struct {
	cfg    Config
	flapUp bool // the last flap's port status

	// One private RNG per stochastic stream, each derived from
	// (Seed, stream name): consuming one stream never perturbs another.
	arrival, pick, join, leave, flap *rand.Rand

	// Next pending time per stream; disabled streams sit at sentinel.
	nextArrival, nextJoin, nextLeave, nextFlap time.Duration
}

// NewSource validates cfg, derives the per-stream RNGs and returns a
// Source positioned before its first event.
func NewSource(cfg Config) (*Source, error) {
	if cfg.Hosts < 2 {
		return nil, fmt.Errorf("loadgen: need >= 2 hosts, got %d", cfg.Hosts)
	}
	if cfg.MeanRate <= 0 {
		return nil, fmt.Errorf("loadgen: MeanRate must be positive, got %v", cfg.MeanRate)
	}
	stream := func(name string) *rand.Rand {
		return rand.New(rand.NewSource(sweep.DeriveSeed(cfg.Seed, "loadgen/"+name)))
	}
	s := &Source{cfg: cfg, arrival: stream("arrival"), pick: stream("pick"),
		join: stream("join"), leave: stream("leave"), flap: stream("flap")}
	s.nextArrival = s.arrivalAfter(0)
	s.nextJoin = expAfter(s.join, 0, cfg.Churn.JoinRate)
	s.nextLeave = expAfter(s.leave, 0, cfg.Churn.LeaveRate)
	s.nextFlap = sentinel
	if cfg.Links > 0 {
		s.nextFlap = expAfter(s.flap, 0, cfg.Churn.FlapRate)
	}
	return s, nil
}

// arrivalAfter returns now + a unit-mean Pareto(arrivalAlpha) gap, drawn
// by inversion and scaled to MeanRate.
func (s *Source) arrivalAfter(now time.Duration) time.Duration {
	u := 1 - s.arrival.Float64() // (0, 1]: avoids the Inf at u=0
	d := time.Duration((arrivalAlpha - 1) / arrivalAlpha * math.Pow(u, -1/arrivalAlpha) /
		s.cfg.MeanRate * float64(time.Second))
	if d < 1 {
		d = 1 // strictly advancing: sub-nanosecond gaps round up
	}
	return now + d
}

// expAfter returns now + an exponential interarrival, or sentinel when
// the stream is disabled (rate ≤ 0).
func expAfter(r *rand.Rand, now time.Duration, rate float64) time.Duration {
	if rate <= 0 {
		return sentinel
	}
	d := time.Duration(r.ExpFloat64() / rate * float64(time.Second))
	if d < 1 {
		d = 1
	}
	return now + d
}

// Next synthesizes and returns the next event in virtual-time order.
// The stream is infinite. Ties resolve by fixed stream priority —
// FlowArrival, HostJoin, HostLeave, LinkFlap — so the sequence is
// deterministic.
func (s *Source) Next() Event {
	at, kind := s.nextArrival, FlowArrival
	if s.nextJoin < at {
		at, kind = s.nextJoin, HostJoin
	}
	if s.nextLeave < at {
		at, kind = s.nextLeave, HostLeave
	}
	if s.nextFlap < at {
		at, kind = s.nextFlap, LinkFlap
	}

	ev := Event{At: at, Kind: kind}
	switch kind {
	case FlowArrival:
		ev.Src = 1 + uint64(s.pick.Int63())%s.cfg.Hosts
		ev.Dst = 1 + uint64(s.pick.Int63())%s.cfg.Hosts
		if ev.Dst == ev.Src { // deterministic collision fix-up
			ev.Dst = 1 + ev.Src%s.cfg.Hosts
		}
		s.nextArrival = s.arrivalAfter(at)
	case HostJoin:
		ev.Src = 1 + uint64(s.join.Int63())%s.cfg.Hosts
		s.nextJoin = expAfter(s.join, at, s.cfg.Churn.JoinRate)
	case HostLeave:
		ev.Src = 1 + uint64(s.leave.Int63())%s.cfg.Hosts
		s.nextLeave = expAfter(s.leave, at, s.cfg.Churn.LeaveRate)
	case LinkFlap:
		ev.Link = int(s.flap.Int63()) % s.cfg.Links
		s.flapUp = !s.flapUp
		ev.Up = s.flapUp
		s.nextFlap = expAfter(s.flap, at, s.cfg.Churn.FlapRate)
	}
	return ev
}
