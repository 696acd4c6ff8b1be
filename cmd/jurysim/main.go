// Command jurysim boots a simulated clustered SDN deployment — with or
// without JURY — drives a workload against it, and prints a full report:
// throughput, validation counters, detection-time percentiles, alarms, and
// network-overhead accounting (§VII-B2).
//
// Usage:
//
//	jurysim -kind onos -n 7 -k 6 -rate 2000 -duration 15s
//	jurysim -kind odl -n 7 -k 6 -rate 120 -duration 15s -fault odl-flowmod-drop
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/faults"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/policy"
	"github.com/jurysdn/jury/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		kindFlag  = flag.String("kind", "onos", "controller profile: onos or odl")
		n         = flag.Int("n", 7, "cluster size")
		k         = flag.Int("k", 6, "JURY replication factor")
		noJury    = flag.Bool("no-jury", false, "run the vanilla cluster without JURY")
		rate      = flag.Float64("rate", 1000, "new-flow injection rate per second")
		localPair = flag.Bool("local-pairs", true, "inject flows at the destination's edge switch (1 PACKET_IN per flow)")
		duration  = flag.Duration("duration", 15*time.Second, "measured (virtual) duration")
		seed      = flag.Int64("seed", 42, "simulation seed")
		timeout   = flag.Duration("timeout", 0, "validation timeout (0 = profile default)")
		faultName = flag.String("fault", "", "catalog fault to inject on controller 1 (see -list-faults)")
		listFault = flag.Bool("list-faults", false, "list the fault catalog and exit")
		trace     = flag.String("trace", "", "drive a benign trace model instead of -rate: lbnl, univ or smia")
		traceOut  = flag.String("trace-out", "", "record a per-trigger span trace and write it here (.jsonl for JSON Lines, otherwise Chrome trace_event JSON for chrome://tracing or Perfetto)")

		flightRing = flag.Int("flight-ring", 0, "flight-recorder ring capacity: retain the last N validator lifecycle events (0 = off)")
		flightDump = flag.String("flight-dump", "", "write the final flight snapshot (JSONL) here at the end of the run")
	)
	flag.Parse()

	if *listFault {
		fmt.Println("fault catalog (§III-B, §VII-A1 and appendix):")
		for _, s := range faults.Scenarios() {
			origin := "synthetic"
			if s.Real {
				origin = "real bug"
			}
			fmt.Printf("  %-28s [%s, %s] %s\n", s.Kind, s.Class, origin, s.Description)
		}
		return nil
	}

	kind := jury.ONOS
	if strings.EqualFold(*kindFlag, "odl") {
		kind = jury.ODL
	}
	cfg := jury.Config{
		Seed:              *seed,
		Kind:              kind,
		ClusterSize:       *n,
		EnableJury:        !*noJury,
		K:                 *k,
		ValidationTimeout: *timeout,
		Policies: []policy.Policy{
			{Name: "no-proactive-topology-changes", Trigger: "internal", Cache: "LinksDB"},
			{Name: "match-field-hierarchy", Cache: "FlowsDB", RequireMatchHierarchy: true},
		},
	}
	if *noJury {
		cfg.Policies = nil
	}
	cfg.EnableTracing = *traceOut != ""
	if *flightDump != "" && *flightRing == 0 {
		*flightRing = obs.DefaultFlightRing
	}
	cfg.FlightRing = *flightRing
	sim, err := jury.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("cluster: %s n=%d jury=%v k=%d topology=%d switches\n",
		kind, *n, !*noJury, *k, sim.Topo.NumSwitches())
	boot := sim.Boot()
	fmt.Printf("boot: %v (virtual)\n", boot)

	if *faultName != "" {
		f, err := inject(sim, faults.Kind(*faultName))
		if err != nil {
			return err
		}
		fmt.Printf("fault: %s\n", f)
	}

	start := sim.Now()
	until := start + *duration
	profile := workload.ConstantRate(*rate)
	join, flap := time.Duration(0), time.Duration(0)
	if *trace != "" {
		spec, err := traceByName(*trace)
		if err != nil {
			return err
		}
		profile = spec.Profile()
		join, flap = spec.JoinEvery, spec.FlapEvery
		fmt.Printf("workload: %s trace model (mean %.0f flows/s)\n", spec.Name, spec.MeanFlowRate)
	} else {
		fmt.Printf("workload: %.0f new flows/s\n", *rate)
	}
	sim.Driver.LocalPairs = *localPair
	sim.Driver.Start(profile, until)
	sim.Driver.StartChurn(join, flap, until)
	if err := sim.Run(*duration + time.Second); err != nil {
		return err
	}

	fmt.Printf("\n-- data plane --\n")
	fmt.Printf("flows injected:   %d\n", sim.Driver.Flows())
	fmt.Printf("PACKET_IN rate:   %.0f/s\n", sim.PacketIns.MeanRate(start, until))
	fmt.Printf("FLOW_MOD rate:    %.0f/s\n", sim.FlowMods.MeanRate(start, until))
	fmt.Printf("PACKET_OUT rate:  %.0f/s\n", sim.PacketOuts.MeanRate(start, until))
	fmt.Printf("host deliveries:  %d\n", sim.Fabric.Delivered())

	fmt.Printf("\n-- network overhead (§VII-B2) --\n")
	secs := (*duration).Seconds()
	ic := float64(sim.Store.ReplicationBytes()) * 8 / secs / 1e6
	fmt.Printf("inter-controller: %.1f Mbps\n", ic)
	if sim.System != nil {
		jr := float64(sim.System.ReplicationBytes()) * 8 / secs / 1e6
		jv := float64(sim.System.ValidatorBytes()) * 8 / secs / 1e6
		fmt.Printf("JURY replication: %.1f Mbps\n", jr)
		fmt.Printf("JURY validator:   %.1f Mbps\n", jv)
		fmt.Printf("JURY share:       %.1f%% of inter-controller traffic\n", (jr+jv)/ic*100)
	}

	if v := sim.Validator(); v != nil {
		fmt.Printf("\n-- validation --\n")
		fmt.Printf("decided:   %d (valid %d, alarms %d, non-deterministic %d, timeouts %d)\n",
			v.Decided(), v.Valid(), v.Faults(), v.NonDeterministic(), v.Timeouts())
		d := &v.DetectionsExternal
		fmt.Printf("detection: p50=%v p90=%v p95=%v p99=%v\n",
			d.Percentile(50), d.Percentile(90), d.Percentile(95), d.Percentile(99))
		alarms := v.Alarms()
		show := len(alarms)
		if show > 10 {
			show = 10
		}
		for _, a := range alarms[:show] {
			fmt.Printf("ALARM: %-16s offender=C%d trigger=%s detected in %v: %s\n",
				a.Fault, a.Offender, a.Trigger, a.DetectionTime, a.Reason)
		}
		if len(alarms) > show {
			fmt.Printf("... and %d more alarms\n", len(alarms)-show)
		}
	}

	if *traceOut != "" {
		if err := writeTrace(sim, *traceOut); err != nil {
			return err
		}
	}
	if *flightDump != "" {
		if err := writeFlight(sim, *flightDump); err != nil {
			return err
		}
	}
	return nil
}

// writeFlight dumps the validator's flight-recorder ring.
func writeFlight(sim *jury.Simulation, path string) error {
	rec := sim.FlightRecorder()
	events := rec.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create flight dump: %w", err)
	}
	if err := obs.WriteEventsJSONL(f, events); err != nil {
		_ = f.Close()
		return fmt.Errorf("write flight dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\n-- flight --\n")
	fmt.Printf("wrote %s: %d events (ring %d, %d recorded)\n", path, len(events), rec.Cap(), rec.Total())
	return nil
}

// writeTrace dumps the recorded span trace and reports its end-to-end
// coverage of decided triggers.
func writeTrace(sim *jury.Simulation, path string) error {
	tr := sim.Tracer()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace file: %w", err)
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = tr.WriteJSONL(f)
	} else {
		err = tr.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("\n-- trace --\n")
	fmt.Printf("wrote %s: %d spans, %d triggers end-to-end\n",
		path, len(tr.Spans()), tr.CompletedTriggers())
	if v := sim.Validator(); v != nil && v.Decided() > 0 {
		fmt.Printf("coverage: %.1f%% of decided triggers (replicate→verdict)\n",
			100*float64(tr.CompletedTriggers())/float64(v.Decided()))
	}
	return nil
}

// inject arms a catalog fault on a sensible target.
func inject(sim *jury.Simulation, kind faults.Kind) (*faults.Fault, error) {
	target := sim.Controller(1)
	switch kind {
	case faults.ONOSDatabaseLocking:
		f := faults.InjectDatabaseLocking(target)
		dpid := target.Governed()[0]
		sw, _ := sim.Fabric.Switch(dpid)
		target.ConnectSwitch(dpid, sw.HandleControllerMessage)
		return f, nil
	case faults.ONOSMasterElection:
		return faults.InjectMasterElection(sim.Controller(sim.Config.ClusterSize)), nil
	case faults.ODLFlowModDrop:
		return faults.InjectFlowModDrop(target, 1), nil
	case faults.ODLIncorrectFlowMod:
		dpid := target.Governed()[0]
		sw, _ := sim.Fabric.Switch(dpid)
		f := faults.InjectIncorrectFlowMod(target, sw)
		f.Fire()
		return f, nil
	case faults.LinkFailure:
		// Target the highest-ID controller: it wins the liveness
		// election for its cross-governed links, so its LinksDB writes
		// are the ones the fault can corrupt.
		target = sim.Controller(sim.Config.ClusterSize)
		f := faults.InjectLinkFailure(target)
		// The fault manifests on link rediscovery: flap a link whose
		// liveness master is the target.
		for _, l := range sim.Topo.Links() {
			if m, ok := sim.Members.LinkLivenessMaster(l.Src.DPID, l.Dst.DPID); ok && m == target.ID() {
				src := l.Src
				sim.Fabric.SetLinkDown(src, true)
				sim.Engine.Schedule(2*time.Second, func() { sim.Fabric.SetLinkDown(src, false) })
				break
			}
		}
		return f, nil
	case faults.UndesirableFlowMod:
		return faults.InjectUndesirableFlowMod(target), nil
	case faults.FaultyProactiveAction:
		links := sim.Topo.Links()
		f := faults.InjectFaultyProactiveAction(target, controller.LinkKey(links[0].Src, links[0].Dst))
		f.Fire()
		return f, nil
	case faults.FlowDeletionFailure:
		return faults.InjectFlowDeletionFailure(target), nil
	case faults.FlowInstantiationFailure:
		return faults.InjectFlowInstantiationFailure(target), nil
	case faults.LinkDetectionInconsistent:
		return faults.InjectLinkDetectionInconsistent(target, sim.Engine.Rand(), 50), nil
	case faults.Crash:
		f := faults.InjectCrash(target)
		sim.Engine.Schedule(time.Second, f.Fire)
		return f, nil
	case faults.TimingDelay:
		return faults.InjectTimingDelay(target, 20*time.Millisecond, 60*time.Millisecond), nil
	case faults.ByzantineCorruption:
		return faults.InjectByzantineCorruption(target, sim.Engine.Rand(), 20), nil
	default:
		return nil, fmt.Errorf("unknown fault %q (see -list-faults)", kind)
	}
}

func traceByName(name string) (workload.TraceSpec, error) {
	for _, spec := range workload.Traces() {
		if strings.EqualFold(spec.Name, name) {
			return spec, nil
		}
	}
	return workload.TraceSpec{}, fmt.Errorf("unknown trace %q (lbnl, univ, smia)", name)
}
