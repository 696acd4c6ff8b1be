// Package loadgen is the streaming workload engine: it synthesizes
// Clos-scale traffic — heavy-tailed flow arrivals, host churn, link
// flaps, diurnal load swings — lazily on the simnet virtual clock, with
// memory proportional to the *active* flow set rather than the host
// population. internal/workload materializes per-host generator state
// and tops out around 10^4 endpoints; loadgen addresses endpoints by
// integer index (resolved through topo.HostMAC on demand), so a Source
// over 2^24 hosts costs the same bytes as one over 2^4. The end-to-end
// benchmark (bench/) drives its streams from a Source.
//
// Determinism: every stochastic stream (arrivals, sizes, endpoint picks,
// joins, leaves, flaps) owns a private RNG seeded by
// sweep.DeriveSeed(cfg.Seed, "loadgen/<stream>"), so streams are
// mutually independent and the event sequence is a pure function of the
// Config — byte-identical across processes and pull interleavings.
//
// jurylint classifies loadgen as a concurrency bridge: the Source
// itself is single-goroutine (pull-based, driven from simnet callbacks)
// but its obs counters are scraped concurrently by exporters, so it
// uses the registry's atomic instruments rather than the sim-only
// exemptions.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/sweep"
)

// EventKind discriminates the events a Source emits.
type EventKind uint8

const (
	// FlowArrival is a new flow's first packet: a PACKET_IN trigger at
	// the source host's edge port.
	FlowArrival EventKind = iota
	// FlowEnd marks a tracked flow's last byte leaving the network.
	FlowEnd
	// HostJoin is a host (re)appearing: an ARP/discovery trigger that
	// updates the host store.
	HostJoin
	// HostLeave is a host disappearing from the edge.
	HostLeave
	// LinkFlap is a port-status transition on a fabric link.
	LinkFlap
)

// kindNames is indexed by EventKind; also the metric label values.
var kindNames = [...]string{"flow_arrival", "flow_end", "host_join", "host_leave", "link_flap"}

// String returns the snake_case kind name used in metrics and traces.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one synthesized workload event. Events are plain values —
// emitting one allocates nothing.
type Event struct {
	At   time.Duration `json:"at_ns"` // virtual timestamp; consumers must not compare against wall time
	Kind EventKind     `json:"kind"`
	// Src and Dst are 1-based virtual host indices (FlowArrival/FlowEnd);
	// Src alone identifies the host for HostJoin/HostLeave. Resolve to
	// an address with topo.HostMAC.
	Src uint64 `json:"src,omitempty"`
	Dst uint64 `json:"dst,omitempty"`
	// Bytes is the flow size (FlowArrival/FlowEnd only).
	Bytes uint64 `json:"bytes,omitempty"`
	// Link is a canonical link index (LinkFlap only); Up is the new
	// port status.
	Link int  `json:"link,omitempty"`
	Up   bool `json:"up,omitempty"`
}

// Config parameterizes a Source. The zero value is invalid; NewSource
// applies the documented defaults to zero fields.
type Config struct {
	// Hosts is the virtual endpoint population (≥ 2). Hosts are never
	// materialized: the value only bounds the index space events draw
	// from, so 2^24 costs no more than 16.
	Hosts uint64
	// Links bounds the link index space for flap events; 0 disables
	// flaps even when Churn.FlapRate is set.
	Links int
	// MeanRate is the peak flow-arrival rate in flows per second of
	// virtual time (required, > 0). The diurnal factor scales it down
	// off-peak.
	MeanRate float64
	// ArrivalAlpha is the Pareto shape of the interarrival process;
	// smaller is burstier. Default 1.5 (finite mean, infinite variance).
	ArrivalAlpha float64
	// SizeMu and SizeSigma parameterize the lognormal flow-size body.
	// Defaults exp(9.2)≈10 kB median with σ=1.5 — the classic
	// mice-and-elephants mix.
	SizeMu, SizeSigma float64
	// Sizes overrides the flow-size sampler; nil uses the lognormal.
	Sizes Sampler
	// BandwidthBps converts flow size to duration (last byte at
	// size·8/bandwidth). Default 100e6 (100 Mbit/s access links).
	BandwidthBps float64
	// Diurnal modulates MeanRate over the virtual day; zero disables.
	Diurnal DiurnalSpec
	// Churn drives host-join/leave and link-flap side streams; zero
	// disables them.
	Churn ChurnSpec
	// MaxActive bounds the tracked-flow heap — the only structure that
	// grows with load. Flows arriving past the bound still emit
	// FlowArrival (the trigger path must saturate) but skip FlowEnd and
	// count as untracked. Default 65536.
	MaxActive int
	// Seed roots every per-stream RNG via sweep.DeriveSeed.
	Seed int64
	// Metrics, when non-nil, registers the jury_loadgen_* families.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.ArrivalAlpha == 0 {
		c.ArrivalAlpha = 1.5
	}
	if c.SizeMu == 0 {
		c.SizeMu = 9.2
	}
	if c.SizeSigma == 0 {
		c.SizeSigma = 1.5
	}
	if c.BandwidthBps == 0 {
		c.BandwidthBps = 100e6
	}
	if c.MaxActive == 0 {
		c.MaxActive = 1 << 16
	}
	return c
}

// flowEnd is a tracked flow awaiting its FlowEnd event.
type flowEnd struct {
	at       time.Duration
	src, dst uint64
	bytes    uint64
}

// Source is the pull-based event iterator. It is single-goroutine: call
// Next (or Drive) from one goroutine only; the atomic obs instruments
// are the sole state shared with metric scrapers.
type Source struct {
	cfg   Config
	inter Pareto // unit-mean interarrival kernel
	sizes Sampler

	// One private RNG per stochastic stream, each derived from
	// (Seed, stream name): consuming one stream never perturbs another.
	arrival, size, pick *rand.Rand
	join, leave, flap   *rand.Rand

	// Next pending time per stream; disabled streams sit at sentinel.
	nextArrival time.Duration
	nextJoin    time.Duration
	nextLeave   time.Duration
	nextFlap    time.Duration

	// active is a manual min-heap by flowEnd.at with capacity MaxActive,
	// preallocated so the steady-state pull path never allocates.
	active []flowEnd

	flapUp    bool
	generated uint64
	untracked uint64

	events     [len(kindNames)]*obs.Counter
	activeG    *obs.Gauge
	untrackedC *obs.Counter
}

// sentinel is "never": far enough out that no horizon reaches it.
const sentinel = time.Duration(math.MaxInt64)

// NewSource validates cfg, derives the per-stream RNGs and returns a
// Source positioned before its first event.
func NewSource(cfg Config) (*Source, error) {
	cfg = cfg.withDefaults()
	if cfg.Hosts < 2 {
		return nil, fmt.Errorf("loadgen: need >= 2 hosts, got %d", cfg.Hosts)
	}
	if cfg.MeanRate <= 0 {
		return nil, fmt.Errorf("loadgen: MeanRate must be positive, got %v", cfg.MeanRate)
	}
	if cfg.ArrivalAlpha <= 1 {
		return nil, fmt.Errorf("loadgen: ArrivalAlpha must exceed 1 (finite-mean interarrivals), got %v", cfg.ArrivalAlpha)
	}
	s := &Source{
		cfg:    cfg,
		inter:  UnitPareto(cfg.ArrivalAlpha),
		sizes:  cfg.Sizes,
		active: make([]flowEnd, 0, cfg.MaxActive),
	}
	if s.sizes == nil {
		s.sizes = Lognormal{Mu: cfg.SizeMu, Sigma: cfg.SizeSigma}
	}
	stream := func(name string) *rand.Rand {
		return rand.New(rand.NewSource(sweep.DeriveSeed(cfg.Seed, "loadgen/"+name)))
	}
	s.arrival = stream("arrival")
	s.size = stream("size")
	s.pick = stream("pick")
	s.join = stream("join")
	s.leave = stream("leave")
	s.flap = stream("flap")

	s.nextArrival = s.gap(s.arrival, 0, s.rate(0))
	s.nextJoin = s.expAfter(s.join, 0, cfg.Churn.JoinRate)
	s.nextLeave = s.expAfter(s.leave, 0, cfg.Churn.LeaveRate)
	if cfg.Links > 0 {
		s.nextFlap = s.expAfter(s.flap, 0, cfg.Churn.FlapRate)
	} else {
		s.nextFlap = sentinel
	}

	if reg := cfg.Metrics; reg != nil {
		for k, name := range kindNames {
			s.events[k] = reg.Counter("jury_loadgen_events_total",
				"Workload events synthesized, by kind.", obs.L("kind", name))
		}
		s.activeG = reg.Gauge("jury_loadgen_active_flows",
			"Flows currently tracked for FlowEnd emission.")
		s.untrackedC = reg.Counter("jury_loadgen_untracked_flows_total",
			"Flows admitted past MaxActive: triggered but never ended.")
	}
	return s, nil
}

// rate returns the instantaneous arrival rate at virtual time t, floored
// so a zero-trough diurnal cannot stall the stream at +Inf gaps.
func (s *Source) rate(t time.Duration) float64 {
	r := s.cfg.MeanRate * s.cfg.Diurnal.Factor(t)
	if min := s.cfg.MeanRate * 1e-6; r < min {
		r = min
	}
	return r
}

// gap returns now + a heavy-tailed interarrival at the given rate.
func (s *Source) gap(r *rand.Rand, now time.Duration, rate float64) time.Duration {
	d := time.Duration(s.inter.Sample(r) / rate * float64(time.Second))
	if d < 1 {
		d = 1 // strictly advancing: sub-nanosecond gaps round up
	}
	return now + d
}

// expAfter returns now + an exponential interarrival, or sentinel when
// the stream is disabled (rate ≤ 0).
func (s *Source) expAfter(r *rand.Rand, now time.Duration, rate float64) time.Duration {
	if rate <= 0 {
		return sentinel
	}
	d := time.Duration(r.ExpFloat64() / rate * float64(time.Second))
	if d < 1 {
		d = 1
	}
	return now + d
}

// pickHost draws a 1-based host index.
func (s *Source) pickHost() uint64 { return 1 + uint64(s.pick.Int63())%s.cfg.Hosts }

// Next synthesizes and returns the next event in virtual-time order.
// The stream is infinite; callers stop by horizon (see Drive). Ties
// resolve by fixed stream priority — FlowEnd, FlowArrival, HostJoin,
// HostLeave, LinkFlap — so the sequence is deterministic.
func (s *Source) Next() Event {
	at := s.nextArrival
	kind := FlowArrival
	if len(s.active) > 0 && s.active[0].at <= at {
		at = s.active[0].at
		kind = FlowEnd
	}
	if s.nextJoin < at {
		at = s.nextJoin
		kind = HostJoin
	}
	if s.nextLeave < at {
		at = s.nextLeave
		kind = HostLeave
	}
	if s.nextFlap < at {
		at = s.nextFlap
		kind = LinkFlap
	}

	ev := Event{At: at, Kind: kind}
	switch kind {
	case FlowEnd:
		f := s.popActive()
		ev.Src, ev.Dst, ev.Bytes = f.src, f.dst, f.bytes
		if s.activeG != nil {
			s.activeG.Add(-1)
		}
	case FlowArrival:
		src := s.pickHost()
		dst := s.pickHost()
		if dst == src { // deterministic collision fix-up, still uniform-ish
			dst = 1 + src%s.cfg.Hosts
		}
		bytes := uint64(s.sizes.Sample(s.size))
		if bytes < 64 {
			bytes = 64 // no sub-minimum frames
		}
		ev.Src, ev.Dst, ev.Bytes = src, dst, bytes
		end := at + time.Duration(float64(bytes)*8/s.cfg.BandwidthBps*float64(time.Second))
		if len(s.active) < cap(s.active) {
			s.pushActive(flowEnd{at: end, src: src, dst: dst, bytes: bytes})
			if s.activeG != nil {
				s.activeG.Add(1)
			}
		} else {
			s.untracked++
			if s.untrackedC != nil {
				s.untrackedC.Inc()
			}
		}
		s.nextArrival = s.gap(s.arrival, at, s.rate(at))
	case HostJoin:
		ev.Src = 1 + uint64(s.join.Int63())%s.cfg.Hosts
		s.nextJoin = s.expAfter(s.join, at, s.cfg.Churn.JoinRate)
	case HostLeave:
		ev.Src = 1 + uint64(s.leave.Int63())%s.cfg.Hosts
		s.nextLeave = s.expAfter(s.leave, at, s.cfg.Churn.LeaveRate)
	case LinkFlap:
		ev.Link = int(s.flap.Int63()) % s.cfg.Links
		s.flapUp = !s.flapUp
		ev.Up = s.flapUp
		s.nextFlap = s.expAfter(s.flap, at, s.cfg.Churn.FlapRate)
	}

	s.generated++
	if c := s.events[kind]; c != nil {
		c.Inc()
	}
	return ev
}

// pushActive inserts into the tracked-flow min-heap. Manual sift-up on a
// preallocated slice: container/heap would box every element into an
// interface and allocate on the hot path.
func (s *Source) pushActive(f flowEnd) {
	s.active = append(s.active, f)
	i := len(s.active) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.active[parent].at <= s.active[i].at {
			break
		}
		s.active[parent], s.active[i] = s.active[i], s.active[parent]
		i = parent
	}
}

// popActive removes and returns the earliest-ending tracked flow.
func (s *Source) popActive() flowEnd {
	top := s.active[0]
	last := len(s.active) - 1
	s.active[0] = s.active[last]
	s.active = s.active[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s.active) && s.active[l].at < s.active[small].at {
			small = l
		}
		if r < len(s.active) && s.active[r].at < s.active[small].at {
			small = r
		}
		if small == i {
			break
		}
		s.active[i], s.active[small] = s.active[small], s.active[i]
		i = small
	}
	return top
}

// Generated returns the total events emitted so far.
func (s *Source) Generated() uint64 { return s.generated }

// Active returns the tracked-flow count — the only load-proportional
// state the Source holds.
func (s *Source) Active() int { return len(s.active) }

// Untracked returns how many flows overflowed MaxActive (arrived but
// will never emit FlowEnd).
func (s *Source) Untracked() uint64 { return s.untracked }

// Drive feeds the source into a simnet engine one event at a time: each
// callback schedules only its successor, so the engine's queue holds at
// most one loadgen event regardless of load (the lazy-synthesis
// contract). Generation stops at the first event past horizon; run the
// engine with eng.Run(horizon) as usual.
func (s *Source) Drive(eng *simnet.Engine, horizon time.Duration, fn func(Event)) {
	var step func()
	step = func() {
		ev := s.Next()
		if ev.At > horizon {
			return
		}
		eng.At(ev.At, func() {
			fn(ev)
			step()
		})
	}
	step()
}
