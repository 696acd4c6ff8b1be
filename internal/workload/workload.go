// Package workload generates the traffic that drives the evaluation: an
// open-loop new-flow generator with arbitrary rate profiles (the
// tcpreplay-style load of §VII-B1), a Cbench-style closed-burst generator
// (Fig. 4e), statistical models of the three benign traces of Fig. 4d
// (LBNL enterprise, UNIV university, SMIA cyber-defense exercise), and the
// host-join / link-teardown churn of the detection experiments (§VII-A).
package workload

import (
	"strings"
	"time"

	"github.com/jurysdn/jury/internal/dataplane"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/topo"
)

// RateProfile returns the target new-flow injection rate (flows/second) at
// virtual time t.
type RateProfile func(t time.Duration) float64

// ConstantRate returns a flat profile.
func ConstantRate(perSecond float64) RateProfile {
	return func(time.Duration) float64 { return perSecond }
}

// SquareBurst alternates between base and peak: each period spends
// duty·period at peak. The detection experiments use this to reach the
// paper's "peak PACKET_IN rate" while keeping the time-average stable.
func SquareBurst(base, peak float64, period time.Duration, duty float64) RateProfile {
	if duty < 0 {
		duty = 0
	}
	if duty > 1 {
		duty = 1
	}
	return func(t time.Duration) float64 {
		if period <= 0 {
			return base
		}
		phase := float64(t%period) / float64(period)
		if phase < duty {
			return peak
		}
		return base
	}
}

// Driver injects synthetic traffic into a fabric. Each "flow" is a TCP SYN
// from a fresh spoofed source MAC/IP toward a real host, so every packet
// misses the TCAM and elicits a PACKET_IN (as with Cbench and the paper's
// tcpreplay methodology).
type Driver struct {
	eng    *simnet.Engine
	fabric *dataplane.Fabric
	hosts  []*dataplane.Host

	// PayloadBytes pads each injected frame.
	PayloadBytes int
	// SpoofSources uses a fresh source MAC per flow (every packet
	// misses). When false, flows reuse the real host MACs, so repeat
	// pairs hit installed rules.
	SpoofSources bool
	// LocalPairs injects each flow at the destination host's own edge
	// switch, so every flow costs exactly one PACKET_IN and elicits
	// exactly one FLOW_MOD — the clean per-switch load of the
	// throughput experiments (Figs. 4f-4h). When false, flows enter at
	// a random edge switch and miss hop-by-hop along the path.
	LocalPairs bool

	flowSeq   uint64
	joinSeq   uint64
	flows     int64
	stopped   bool
	arrivalEv simnet.Timer

	// The arrival process Start set, and its callbacks, bound once so
	// scheduling an arrival allocates no closure.
	profile      RateProfile
	until        time.Duration
	arrive, idle func()
}

// NewDriver creates a traffic driver over the fabric's hosts.
func NewDriver(eng *simnet.Engine, fabric *dataplane.Fabric) *Driver {
	d := &Driver{
		eng:          eng,
		fabric:       fabric,
		hosts:        fabric.Hosts(),
		PayloadBytes: 64,
		SpoofSources: true,
	}
	d.arrive = func() {
		d.InjectFlow()
		d.scheduleNext()
	}
	d.idle = d.scheduleNext
	return d
}

// Flows returns the number of flows injected.
func (d *Driver) Flows() int64 { return d.flows }

// Warmup makes every real host ARP for its successor so the controllers
// learn all attachment points before measurement starts.
func (d *Driver) Warmup() {
	for i, h := range d.hosts {
		next := d.hosts[(i+1)%len(d.hosts)]
		_ = h.SendARPRequest(next.Info().IP) //jurylint:allow errcrit -- the fabric attached h, so its switch is known and the inject cannot fail
	}
}

// Start begins flow arrivals following profile until until (absolute
// virtual time). Arrivals are a non-homogeneous Poisson process.
func (d *Driver) Start(profile RateProfile, until time.Duration) {
	d.stopped = false
	d.profile, d.until = profile, until
	d.scheduleNext()
}

// Stop cancels future arrivals.
func (d *Driver) Stop() {
	d.stopped = true
	d.arrivalEv.Cancel()
}

func (d *Driver) scheduleNext() {
	if d.stopped {
		return
	}
	now := d.eng.Now()
	if now >= d.until {
		return
	}
	rate := d.profile(now)
	if rate <= 0 {
		// Idle: re-check shortly.
		d.arrivalEv = d.eng.Schedule(10*time.Millisecond, d.idle)
		return
	}
	gap := time.Duration(d.eng.Rand().ExpFloat64() / rate * float64(time.Second))
	if gap < time.Microsecond {
		gap = time.Microsecond
	}
	d.arrivalEv = d.eng.Schedule(gap, d.arrive)
}

// InjectFlow injects one new TCP flow toward a random real host.
func (d *Driver) InjectFlow() {
	if len(d.hosts) == 0 {
		return
	}
	rng := d.eng.Rand()
	dst := d.hosts[rng.Intn(len(d.hosts))]
	ingress := dst
	if !d.LocalPairs {
		ingress = d.hosts[rng.Intn(len(d.hosts))]
	}
	d.flowSeq++
	d.flows++
	var (
		srcMAC openflow.MAC
		srcIP  openflow.IPv4
	)
	if d.SpoofSources {
		srcMAC = openflow.MAC{0x00, 0xAA, byte(d.flowSeq >> 24), byte(d.flowSeq >> 16), byte(d.flowSeq >> 8), byte(d.flowSeq)}
		srcIP = openflow.IPv4{172, 16, byte(d.flowSeq >> 8), byte(d.flowSeq)}
	} else {
		srcMAC = ingress.Info().MAC
		srcIP = ingress.Info().IP
	}
	frame := openflow.TCPPacket(
		srcMAC, dst.Info().MAC, srcIP, dst.Info().IP,
		uint16(10000+d.flowSeq%50000), 80, 0x02 /* SYN */, d.PayloadBytes)
	_ = d.fabric.InjectAtSwitch(ingress.Info().Attach, frame) //jurylint:allow errcrit -- fails only for an unknown switch; the port is a fabric-attached host's
}

// InjectHostJoin simulates a new host joining: a gratuitous ARP request
// from a fresh MAC/IP at a random edge port.
func (d *Driver) InjectHostJoin() {
	if len(d.hosts) == 0 {
		return
	}
	rng := d.eng.Rand()
	at := d.hosts[rng.Intn(len(d.hosts))].Info().Attach
	d.joinSeq++
	mac := openflow.MAC{0x00, 0xBB, byte(d.joinSeq >> 24), byte(d.joinSeq >> 16), byte(d.joinSeq >> 8), byte(d.joinSeq)}
	ip := openflow.IPv4{192, 168, byte(d.joinSeq >> 8), byte(d.joinSeq)}
	frame := openflow.ARPPacket(openflow.ARPRequest, mac, ip, openflow.MAC{}, openflow.IPv4{192, 168, 0, 1})
	_ = d.fabric.InjectAtSwitch(at, frame) //jurylint:allow errcrit -- fails only for an unknown switch; the port is a fabric-attached host's
}

// StartChurn schedules periodic host joins and link flaps until until.
// Either period may be zero to disable that churn class.
func (d *Driver) StartChurn(joinEvery, flapEvery time.Duration, until time.Duration) {
	if joinEvery > 0 {
		var tick func()
		tick = func() {
			if d.stopped || d.eng.Now() >= until {
				return
			}
			d.InjectHostJoin()
			d.eng.Schedule(joinEvery, tick)
		}
		d.eng.Schedule(joinEvery, tick)
	}
	if flapEvery > 0 {
		links := d.fabric.Topology().Links()
		if len(links) == 0 {
			return
		}
		var flap func()
		flap = func() {
			if d.stopped || d.eng.Now() >= until {
				return
			}
			l := links[d.eng.Rand().Intn(len(links))]
			d.fabric.SetLinkDown(l.Src, true)
			// Restore after a short outage so the topology heals.
			src := l.Src
			d.eng.Schedule(flapEvery/2, func() { d.fabric.SetLinkDown(src, false) })
			d.eng.Schedule(flapEvery, flap)
		}
		d.eng.Schedule(flapEvery, flap)
	}
}

// Cbench drives closed bursts at one switch: every period it injects a
// burst of unique-source packets back to back, reproducing the bursty
// PACKET_IN pattern that overwhelms the controller in Fig. 4e.
type Cbench struct {
	eng    *simnet.Engine
	fabric *dataplane.Fabric
	at     topo.Port
	dst    *dataplane.Host

	// BurstSize packets are injected each period.
	BurstSize int
	// Period between bursts.
	Period time.Duration
	// Spread is the window over which a burst's packets are injected.
	Spread time.Duration

	seq     uint64
	packets int64
	stopped bool
}

// NewCbench creates a burst generator injecting at the first host port of
// the fabric, targeting the first host.
func NewCbench(eng *simnet.Engine, fabric *dataplane.Fabric) *Cbench {
	hosts := fabric.Hosts()
	var (
		at  topo.Port
		dst *dataplane.Host
	)
	if len(hosts) > 0 {
		at = hosts[0].Info().Attach
		dst = hosts[len(hosts)-1]
	}
	return &Cbench{
		eng:    eng,
		fabric: fabric,
		at:     at,
		dst:    dst,

		BurstSize: 4096,
		Period:    time.Second,
		Spread:    100 * time.Millisecond,
	}
}

// Packets returns the number of packets injected.
func (c *Cbench) Packets() int64 { return c.packets }

// Start begins bursting until until.
func (c *Cbench) Start(until time.Duration) {
	c.stopped = false
	var burst func()
	burst = func() {
		if c.stopped || c.eng.Now() >= until || c.dst == nil {
			return
		}
		gap := c.Spread / time.Duration(c.BurstSize)
		for i := 0; i < c.BurstSize; i++ {
			c.seq++
			seq := c.seq
			c.eng.Schedule(time.Duration(i)*gap, func() { c.inject(seq) })
		}
		c.eng.Schedule(c.Period, burst)
	}
	burst()
}

// Stop halts bursting.
func (c *Cbench) Stop() { c.stopped = true }

func (c *Cbench) inject(seq uint64) {
	c.packets++
	srcMAC := openflow.MAC{0x00, 0xCB, byte(seq >> 24), byte(seq >> 16), byte(seq >> 8), byte(seq)}
	srcIP := openflow.IPv4{172, 20, byte(seq >> 8), byte(seq)}
	frame := openflow.TCPPacket(srcMAC, c.dst.Info().MAC, srcIP, c.dst.Info().IP,
		uint16(10000+seq%50000), 80, 0x02, 0)
	_ = c.fabric.InjectAtSwitch(c.at, frame) //jurylint:allow errcrit -- fails only for an unknown switch; the port is a fabric-attached host's
}

// TraceSpec is a statistical model of a benign packet trace.
type TraceSpec struct {
	Name string
	// MeanFlowRate is the average new-flow rate (flows/second).
	MeanFlowRate float64
	// BurstFactor is the peak-to-mean ratio of the rate process.
	BurstFactor float64
	// BurstPeriod and BurstDuty shape the ON/OFF burst pattern.
	BurstPeriod time.Duration
	BurstDuty   float64
	// JoinEvery / FlapEvery are host-join and link-flap periods (0=off).
	JoinEvery time.Duration
	FlapEvery time.Duration
}

// Profile derives the trace's rate profile.
func (t TraceSpec) Profile() RateProfile {
	duty := t.BurstDuty
	if duty <= 0 || duty >= 1 {
		return ConstantRate(t.MeanFlowRate)
	}
	peak := t.MeanFlowRate * t.BurstFactor
	base := (t.MeanFlowRate - peak*duty) / (1 - duty)
	if base < 0 {
		base = 0
	}
	return SquareBurst(base, peak, t.BurstPeriod, duty)
}

// The three benign traces of Fig. 4d, modeled statistically: LBNL is an
// enterprise trace (moderate, smooth), UNIV a university data-center trace
// (heavier, bursty), SMIA a cyber-defense exercise (scan-heavy, extremely
// bursty with host churn).
func LBNLTrace() TraceSpec {
	return TraceSpec{
		Name:         "LBNL",
		MeanFlowRate: 220,
		BurstFactor:  2.0,
		BurstPeriod:  2 * time.Second,
		BurstDuty:    0.25,
		JoinEvery:    5 * time.Second,
	}
}

// UNIVTrace models the IMC-2010 university data-center trace.
func UNIVTrace() TraceSpec {
	return TraceSpec{
		Name:         "UNIV",
		MeanFlowRate: 420,
		BurstFactor:  2.6,
		BurstPeriod:  1500 * time.Millisecond,
		BurstDuty:    0.2,
		JoinEvery:    4 * time.Second,
	}
}

// SMIATrace models the FOI cyber-defense-exercise trace.
func SMIATrace() TraceSpec {
	return TraceSpec{
		Name:         "SMIA",
		MeanFlowRate: 340,
		BurstFactor:  3.5,
		BurstPeriod:  time.Second,
		BurstDuty:    0.12,
		JoinEvery:    2 * time.Second,
		FlapEvery:    0,
	}
}

// Traces returns the three benign trace models.
func Traces() []TraceSpec {
	return []TraceSpec{LBNLTrace(), UNIVTrace(), SMIATrace()}
}

// TraceByName returns the benign trace model whose name matches name,
// ignoring case.
func TraceByName(name string) (TraceSpec, bool) {
	for _, spec := range Traces() {
		if strings.EqualFold(spec.Name, name) {
			return spec, true
		}
	}
	return TraceSpec{}, false
}
