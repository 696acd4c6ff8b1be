// Package experiment packages the paper's evaluation runs (§VII) as
// reusable functions: every figure and table has a runner here, shared by
// the benchmark harness (bench_test.go) and the figure regenerator
// (`jury fig`).
package experiment

import (
	"fmt"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/faults"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/workload"
)

// SchemaVersion salts the sweep result cache of every figure campaign.
// Bump it whenever a change anywhere in the simulation or in the result
// schema makes previously cached figures stale — old entries are then
// orphaned instead of being served.
const SchemaVersion = "jury-experiment-v1"

// DetectionConfig parameterizes a detection-time calibration run
// (Figs. 4a-4d). Its canonical JSON is the point's sweep key, so a
// campaign leaves Seed zero and sets it from the seed sweep.Run hands
// the point.
type DetectionConfig struct {
	Kind jury.ControllerKind
	N    int
	K    int
	// M timing-faulty (slow) replicas.
	M int
	// Rate profile: base/peak flows per second with a bursty duty cycle,
	// matching "different PACKET_IN rates ... peak ~5.5K" (§VII-A).
	BaseRate float64
	PeakRate float64
	// Trace, when non-empty, drives a benign trace model instead
	// (Fig. 4d): "LBNL", "UNIV" or "SMIA".
	Trace string
	// Timeout is the validation deadline; calibration runs use a large
	// value so the consensus-time distribution is unclipped.
	Timeout  time.Duration
	Duration time.Duration
	Seed     int64
}

// DetectionResult summarizes one detection run.
type DetectionResult struct {
	Config     DetectionConfig
	PacketIns  float64 // measured PACKET_IN rate
	Decided    int64
	Timeouts   int64
	Faults     int64
	FPRate     float64
	Detections obs.Snapshot
}

// Detection runs one detection-time experiment.
func Detection(cfg DetectionConfig) (*DetectionResult, error) {
	if cfg.N == 0 {
		cfg.N = 7
	}
	if cfg.Duration == 0 {
		cfg.Duration = 15 * time.Second
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	sim, err := jury.New(jury.Config{
		Seed:              cfg.Seed,
		Kind:              cfg.Kind,
		ClusterSize:       cfg.N,
		EnableJury:        true,
		K:                 cfg.K,
		ValidationTimeout: cfg.Timeout,
	})
	if err != nil {
		return nil, err
	}
	sim.Boot()
	for i := 0; i < cfg.M; i++ {
		// The slowest (faulty) replicas are the highest-ID controllers.
		target := sim.Controller(cfg.N - i)
		if cfg.Kind == jury.ODL {
			faults.InjectTimingDelay(target, 80*time.Millisecond, 250*time.Millisecond)
		} else {
			faults.InjectTimingDelay(target, 10*time.Millisecond, 50*time.Millisecond)
		}
	}
	start := sim.Now()
	until := start + cfg.Duration
	var profile workload.RateProfile
	join, flap := 2*time.Second, 5*time.Second
	switch {
	case cfg.Trace != "":
		spec, ok := workload.TraceByName(cfg.Trace)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown trace %q", cfg.Trace)
		}
		profile = spec.Profile()
		join, flap = spec.JoinEvery, spec.FlapEvery
		sim.Driver.LocalPairs = false
	default:
		profile = workload.SquareBurst(cfg.BaseRate, cfg.PeakRate, 2*time.Second, 0.35)
		sim.Driver.LocalPairs = true
	}
	sim.Driver.Start(profile, until)
	sim.Driver.StartChurn(join, flap, until)
	if err := sim.Run(cfg.Duration + time.Second); err != nil {
		return nil, err
	}
	v := sim.Validator()
	return &DetectionResult{
		Config:     cfg,
		PacketIns:  sim.PacketIns.MeanRate(start, until),
		Decided:    v.Decided(),
		Timeouts:   v.Timeouts(),
		Faults:     v.Faults(),
		FPRate:     v.FalsePositiveRate(),
		Detections: v.DetectionsExternal.Snapshot(),
	}, nil
}

// ThroughputPoint is one (offered, measured) sample of Figs. 4f-4h.
type ThroughputPoint struct {
	N         int
	JuryK     int // -1 when JURY is disabled
	Offered   float64
	PacketIns float64
	FlowMods  float64
	Drops     uint64
}

// ThroughputConfig parameterizes one Throughput point (Figs. 4f-4h).
type ThroughputConfig struct {
	Kind jury.ControllerKind
	N    int
	// JuryK < 0 disables JURY (vanilla baseline).
	JuryK    int
	Offered  float64
	Duration time.Duration
}

// Throughput measures FLOW_MOD vs PACKET_IN throughput for one
// configuration. JuryK < 0 disables JURY (Figs. 4f/4g); otherwise JURY
// runs with that replication factor (Fig. 4h).
func Throughput(cfg ThroughputConfig, seed int64) (ThroughputPoint, error) {
	scfg := jury.Config{Seed: seed, Kind: cfg.Kind, ClusterSize: cfg.N}
	if cfg.JuryK >= 0 {
		scfg.EnableJury = true
		scfg.K = cfg.JuryK
	}
	sim, err := jury.New(scfg)
	if err != nil {
		return ThroughputPoint{}, err
	}
	sim.Boot()
	start := sim.Now()
	until := start + cfg.Duration
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(cfg.Offered), until)
	if err := sim.Run(cfg.Duration + time.Second); err != nil {
		return ThroughputPoint{}, err
	}
	var drops uint64
	for _, c := range sim.Controllers {
		drops += c.IngressDrops()
	}
	return ThroughputPoint{
		N:         cfg.N,
		JuryK:     cfg.JuryK,
		Offered:   cfg.Offered,
		PacketIns: sim.PacketIns.MeanRate(start, until),
		FlowMods:  sim.FlowMods.MeanRate(start, until),
		Drops:     drops,
	}, nil
}

// CbenchResult carries the per-second series of Fig. 4e.
type CbenchResult struct {
	Seconds   []int
	PacketIns []float64
	FlowMods  []float64
}

// CbenchConfig parameterizes one Cbench overload run (Fig. 4e).
type CbenchConfig struct {
	Burst    int
	Duration time.Duration
}

// Cbench drives closed bursts against a single overloadable controller and
// records the per-second PACKET_IN and FLOW_MOD rates (Fig. 4e).
func Cbench(cfg CbenchConfig, seed int64) (*CbenchResult, error) {
	profile := controller.ONOSProfile()
	profile.QueueCap = 8192
	profile.InflateAt = 2048
	profile.InflateSlope = 0.006
	sim, err := jury.New(jury.Config{
		Seed:        seed,
		Kind:        jury.ONOS,
		Profile:     &profile,
		ClusterSize: 1,
		Topology:    jury.SingleSwitch,
	})
	if err != nil {
		return nil, err
	}
	sim.Boot()
	cb := workload.NewCbench(sim.Engine, sim.Fabric)
	cb.BurstSize = cfg.Burst
	cb.Period = time.Second
	cb.Spread = 900 * time.Millisecond
	start := sim.Now()
	cb.Start(start + cfg.Duration)
	if err := sim.Run(cfg.Duration + time.Second); err != nil {
		return nil, err
	}
	res := &CbenchResult{}
	pins := sim.PacketIns.Rates()
	fms := sim.FlowMods.Rates()
	for i := int(start / time.Second); i < len(pins); i++ {
		res.Seconds = append(res.Seconds, i-int(start/time.Second))
		res.PacketIns = append(res.PacketIns, pins[i])
		var fm float64
		if i < len(fms) {
			fm = fms[i]
		}
		res.FlowMods = append(res.FlowMods, fm)
	}
	return res, nil
}

// DecapsulationConfig parameterizes one decapsulation-overhead run
// (Fig. 4i).
type DecapsulationConfig struct {
	Rate     float64
	Duration time.Duration
}

// Decapsulation measures the ODL-path decapsulation overhead distribution
// (Fig. 4i) at the given flow rate.
func Decapsulation(cfg DecapsulationConfig, seed int64) (obs.Snapshot, error) {
	sim, err := jury.New(jury.Config{
		Seed:        seed,
		Kind:        jury.ODL,
		ClusterSize: 7,
		EnableJury:  true,
		K:           6,
	})
	if err != nil {
		return obs.Snapshot{}, err
	}
	sim.Boot()
	until := sim.Now() + cfg.Duration
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(cfg.Rate), until)
	if err := sim.Run(cfg.Duration + time.Second); err != nil {
		return obs.Snapshot{}, err
	}
	var all obs.Distribution
	for i := 1; i <= 7; i++ {
		if m, ok := sim.System.Module(store.NodeID(i)); ok {
			for _, s := range m.DecapTimes.Samples() {
				all.Add(s)
			}
		}
	}
	return all.Snapshot(), nil
}

// OverheadResult carries the §VII-B2 traffic accounting.
type OverheadResult struct {
	K                     int
	PacketIns             float64
	InterControllerMbps   float64
	JuryReplicationMbps   float64
	JuryValidatorMbps     float64
	JuryShareOfControlPct float64
}

// Overhead measures network-overhead proportions at one replication factor.
func Overhead(kind jury.ControllerKind, n, k int, rate float64, dur time.Duration, seed int64) (OverheadResult, error) {
	sim, err := jury.New(jury.Config{
		Seed: seed, Kind: kind, ClusterSize: n, EnableJury: true, K: k,
	})
	if err != nil {
		return OverheadResult{}, err
	}
	sim.Boot()
	start := sim.Now()
	until := start + dur
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(rate), until)
	if err := sim.Run(dur + time.Second); err != nil {
		return OverheadResult{}, err
	}
	secs := dur.Seconds()
	mbps := func(bytes int64) float64 { return float64(bytes) * 8 / secs / 1e6 }
	res := OverheadResult{
		K:                   k,
		PacketIns:           sim.PacketIns.MeanRate(start, until),
		InterControllerMbps: mbps(sim.Store.ReplicationBytes()),
		JuryReplicationMbps: mbps(sim.System.ReplicationBytes()),
		JuryValidatorMbps:   mbps(sim.System.ValidatorBytes()),
	}
	if res.InterControllerMbps > 0 {
		res.JuryShareOfControlPct = (res.JuryReplicationMbps + res.JuryValidatorMbps) / res.InterControllerMbps * 100
	}
	return res, nil
}

// PacketOutThroughput measures the PACKET_OUT fast path (the §VII-B1
// aside: PACKET_OUT saturates at ~220K/s, far above FLOW_MOD's ~5K/s) by
// driving ARP requests toward known bindings, which cost only a proxy
// PACKET_OUT.
func PacketOutThroughput(rate float64, dur time.Duration, seed int64) (float64, error) {
	sim, err := jury.New(jury.Config{Seed: seed, Kind: jury.ONOS, ClusterSize: 1, Topology: jury.SingleSwitch})
	if err != nil {
		return 0, err
	}
	sim.Boot()
	start := sim.Now()
	until := start + dur
	hosts := sim.Fabric.Hosts()
	// Repeated ARP requests for already-known bindings: proxy replies
	// only, no FlowsDB writes.
	var arpTick func()
	gap := time.Duration(float64(time.Second) / rate)
	if gap <= 0 {
		gap = time.Microsecond
	}
	i := 0
	arpTick = func() {
		if sim.Now() >= until {
			return
		}
		h := hosts[i%len(hosts)]
		other := hosts[(i+1)%len(hosts)]
		i++
		_ = h.SendARPRequest(other.Info().IP) //jurylint:allow errcrit -- the fabric attached h, so its switch is known and the inject cannot fail
		sim.Engine.Schedule(gap, arpTick)
	}
	sim.Engine.Schedule(0, arpTick)
	if err := sim.Run(dur + time.Second); err != nil {
		return 0, err
	}
	return sim.PacketOuts.MeanRate(start, until), nil
}
