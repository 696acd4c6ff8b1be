package jury

import (
	"fmt"
	"strings"
	"time"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/obs"
)

// Report is a consolidated snapshot of a simulation's measurements — the
// quantities the paper's evaluation reports (§VII).
type Report struct {
	// Window is the interval the rate figures cover.
	WindowStart, WindowEnd time.Duration

	// Data plane.
	FlowsInjected  int64
	PacketInRate   float64
	FlowModRate    float64
	PacketOutRate  float64
	HostDeliveries uint64
	IngressDrops   uint64

	// Validation (zero values when JURY is disabled).
	Decided          int64
	Valid            int64
	Alarms           int64
	NonDeterministic int64
	Timeouts         int64
	FalsePositivePct float64
	DetectionP50     time.Duration
	DetectionP95     time.Duration
	DetectionP99     time.Duration

	// Network overhead (§VII-B2), in Mbps over the window.
	InterControllerMbps float64
	MastershipMbps      float64
	JuryReplicationMbps float64
	JuryValidatorMbps   float64

	// AlarmList holds the retained alarms.
	AlarmList []core.Result
}

// Report summarizes the run between from and to (virtual times). Use
// sim.Now() bounds around your measurement window.
func (s *Simulation) Report(from, to time.Duration) Report {
	r := Report{
		WindowStart:    from,
		WindowEnd:      to,
		FlowsInjected:  s.Driver.Flows(),
		PacketInRate:   s.PacketIns.MeanRate(from, to),
		FlowModRate:    s.FlowMods.MeanRate(from, to),
		PacketOutRate:  s.PacketOuts.MeanRate(from, to),
		HostDeliveries: s.Fabric.Delivered(),
	}
	for _, c := range s.Controllers {
		r.IngressDrops += c.IngressDrops()
	}
	secs := (to - from).Seconds()
	if secs > 0 {
		r.InterControllerMbps = float64(s.Store.ReplicationBytes()) * 8 / secs / 1e6
		r.MastershipMbps = float64(s.MastershipChatterBytes()) * 8 / secs / 1e6
	}
	if v := s.Validator(); v != nil {
		r.Decided = v.Decided()
		r.Valid = v.Valid()
		r.Alarms = v.Faults()
		r.NonDeterministic = v.NonDeterministic()
		r.Timeouts = v.Timeouts()
		r.FalsePositivePct = v.FalsePositiveRate() * 100
		r.DetectionP50 = v.DetectionsExternal.Percentile(50)
		r.DetectionP95 = v.DetectionsExternal.Percentile(95)
		r.DetectionP99 = v.DetectionsExternal.Percentile(99)
		r.AlarmList = v.Alarms()
		if secs > 0 {
			r.JuryReplicationMbps = float64(s.System.ReplicationBytes()) * 8 / secs / 1e6
			r.JuryValidatorMbps = float64(s.System.ValidatorBytes()) * 8 / secs / 1e6
		}
	}
	return r
}

// DetectionCDF returns the external-trigger detection-time CDF (the
// series of Figs. 4a-4d), or nil when JURY is disabled.
func (s *Simulation) DetectionCDF(points int) []obs.CDFPoint {
	v := s.Validator()
	if v == nil {
		return nil
	}
	return v.DetectionsExternal.Snapshot().CDF(points)
}

// String renders the report as the `jury sim`-style text block.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flows=%d packet_in=%.0f/s flow_mod=%.0f/s packet_out=%.0f/s drops=%d\n",
		r.FlowsInjected, r.PacketInRate, r.FlowModRate, r.PacketOutRate, r.IngressDrops)
	if r.Decided > 0 {
		fmt.Fprintf(&b, "validated=%d valid=%d alarms=%d nondet=%d timeouts=%d fp=%.2f%%\n",
			r.Decided, r.Valid, r.Alarms, r.NonDeterministic, r.Timeouts, r.FalsePositivePct)
		fmt.Fprintf(&b, "detection p50=%v p95=%v p99=%v\n", r.DetectionP50, r.DetectionP95, r.DetectionP99)
	}
	fmt.Fprintf(&b, "traffic inter-controller=%.1fMbps jury-replication=%.1fMbps jury-validator=%.1fMbps",
		r.InterControllerMbps, r.JuryReplicationMbps, r.JuryValidatorMbps)
	return b.String()
}
