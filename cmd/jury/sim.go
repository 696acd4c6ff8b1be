package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/faults"
	"github.com/jurysdn/jury/internal/workload"
)

// runSim boots a simulated clustered SDN deployment — with or without
// JURY — drives a workload against it, and writes a full report to out:
// throughput, validation counters, detection-time percentiles, alarms,
// and network-overhead accounting (§VII-B2).
//
//	jury sim -kind onos -n 7 -k 6 -rate 2000 -duration 15s
//	jury sim -kind odl -n 7 -k 6 -rate 120 -duration 15s -fault odl-flowmod-drop
func runSim(_ context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	var (
		kindFlag  = fs.String("kind", "onos", "controller profile: onos or odl")
		n         = fs.Int("n", 7, "cluster size")
		k         = fs.Int("k", 6, "JURY replication factor")
		noJury    = fs.Bool("no-jury", false, "run the vanilla cluster without JURY")
		rate      = fs.Float64("rate", 1000, "new-flow injection rate per second")
		localPair = fs.Bool("local-pairs", true, "inject flows at the destination's edge switch (1 PACKET_IN per flow)")
		duration  = fs.Duration("duration", 15*time.Second, "measured (virtual) duration")
		seed      = fs.Int64("seed", 42, "simulation seed")
		timeout   = fs.Duration("timeout", 0, "validation timeout (0 = profile default)")
		faultName = fs.String("fault", "", "catalog fault to inject after boot (see -list-faults)")
		listFault = fs.Bool("list-faults", false, "list the fault catalog and exit")
		trace     = fs.String("trace", "", "drive a benign trace model instead of -rate: lbnl, univ or smia")
		traceOut  = fs.String("trace-out", "", "record a per-trigger span trace and write it here (.jsonl for JSON Lines, otherwise Chrome trace_event JSON for chrome://tracing or Perfetto)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if *listFault {
		fmt.Fprintln(out, "fault catalog (§III-B, §VII-A1 and appendix):")
		for _, s := range jury.Catalog() {
			origin := "synthetic"
			if s.Real {
				origin = "real bug"
			}
			fmt.Fprintf(out, "  %-28s [%s, %s] %s\n", s.Kind, s.Class, origin, s.Description)
		}
		return nil
	}
	var scenario jury.Scenario
	if *faultName != "" {
		var ok bool
		if scenario, ok = jury.LookupScenario(faults.Kind(*faultName)); !ok {
			return usagef("unknown fault %q (see -list-faults)", *faultName)
		}
	}

	var kind jury.ControllerKind
	switch {
	case strings.EqualFold(*kindFlag, "onos"):
		kind = jury.ONOS
	case strings.EqualFold(*kindFlag, "odl"):
		kind = jury.ODL
	default:
		return usagef("unknown -kind %q (onos or odl)", *kindFlag)
	}
	cfg := jury.Config{
		Seed:              *seed,
		Kind:              kind,
		ClusterSize:       *n,
		EnableJury:        !*noJury,
		K:                 *k,
		ValidationTimeout: *timeout,
		EnableTracing:     *traceOut != "",
	}
	if scenario.Configure != nil {
		scenario.Configure(&cfg)
	}
	sim, err := jury.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "cluster: %s n=%d jury=%v k=%d topology=%d switches\n",
		kind, *n, !*noJury, *k, sim.Topo.NumSwitches())
	boot := sim.Boot()
	fmt.Fprintf(out, "boot: %v (virtual)\n", boot)

	var fault *faults.Fault
	if scenario.Arm != nil {
		if fault, err = scenario.Arm(sim); err != nil {
			return err
		}
		fmt.Fprintf(out, "fault: %s: %s\n", fault, scenario.Description)
	}

	start := sim.Now()
	until := start + *duration
	profile := workload.ConstantRate(*rate)
	join, flap := time.Duration(0), time.Duration(0)
	if *trace != "" {
		spec, ok := workload.TraceByName(*trace)
		if !ok {
			return usagef("unknown trace %q (lbnl, univ, smia)", *trace)
		}
		profile = spec.Profile()
		join, flap = spec.JoinEvery, spec.FlapEvery
		fmt.Fprintf(out, "workload: %s trace model (mean %.0f flows/s)\n", spec.Name, spec.MeanFlowRate)
	} else {
		fmt.Fprintf(out, "workload: %.0f new flows/s\n", *rate)
	}
	sim.Driver.LocalPairs = *localPair
	sim.Driver.Start(profile, until)
	sim.Driver.StartChurn(join, flap, until)
	if err := sim.Run(*duration + time.Second); err != nil {
		return err
	}

	fmt.Fprintf(out, "\n-- data plane --\n")
	fmt.Fprintf(out, "flows injected:   %d\n", sim.Driver.Flows())
	fmt.Fprintf(out, "PACKET_IN rate:   %.0f/s\n", sim.PacketIns.MeanRate(start, until))
	fmt.Fprintf(out, "FLOW_MOD rate:    %.0f/s\n", sim.FlowMods.MeanRate(start, until))
	fmt.Fprintf(out, "PACKET_OUT rate:  %.0f/s\n", sim.PacketOuts.MeanRate(start, until))
	fmt.Fprintf(out, "host deliveries:  %d\n", sim.Fabric.Delivered())

	fmt.Fprintf(out, "\n-- network overhead (§VII-B2) --\n")
	secs := (*duration).Seconds()
	ic := float64(sim.Store.ReplicationBytes()) * 8 / secs / 1e6
	fmt.Fprintf(out, "inter-controller: %.1f Mbps\n", ic)
	if sim.System != nil {
		jr := float64(sim.System.ReplicationBytes()) * 8 / secs / 1e6
		jv := float64(sim.System.ValidatorBytes()) * 8 / secs / 1e6
		fmt.Fprintf(out, "JURY replication: %.1f Mbps\n", jr)
		fmt.Fprintf(out, "JURY validator:   %.1f Mbps\n", jv)
		fmt.Fprintf(out, "JURY share:       %.1f%% of inter-controller traffic\n", (jr+jv)/ic*100)
	}

	if v := sim.Validator(); v != nil {
		fmt.Fprintf(out, "\n-- validation --\n")
		fmt.Fprintf(out, "decided:   %d (valid %d, alarms %d, non-deterministic %d, timeouts %d)\n",
			v.Decided(), v.Valid(), v.Faults(), v.NonDeterministic(), v.Timeouts())
		d := v.DetectionsExternal
		fmt.Fprintf(out, "detection: p50=%v p90=%v p95=%v p99=%v\n",
			d.Percentile(50), d.Percentile(90), d.Percentile(95), d.Percentile(99))
		writeAlarms(out, v.Alarms())
		if fault != nil {
			fmt.Fprintf(out, "fault injections: %d\n", fault.Injections())
			if a, ok := scenario.Conviction(fault, v.Alarms()); ok {
				fmt.Fprint(out, "convicted by ")
				writeAlarms(out, []core.Result{a})
			} else {
				fmt.Fprintf(out, "not convicted: no alarm of %v names C%d\n", scenario.Catches, fault.Target.ID())
			}
		}
	}

	if *traceOut != "" {
		if err := writeTrace(out, sim, *traceOut); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace dumps the recorded span trace and reports its end-to-end
// coverage of decided triggers.
func writeTrace(out io.Writer, sim *jury.Simulation, path string) error {
	tr := sim.Tracer()
	write := tr.WriteChromeTrace
	if strings.HasSuffix(path, ".jsonl") {
		write = tr.WriteJSONL
	}
	if err := writeFile(path, write); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(out, "\n-- trace --\n")
	fmt.Fprintf(out, "wrote %s: %d spans, %d triggers end-to-end\n",
		path, len(tr.Spans()), tr.CompletedTriggers())
	if v := sim.Validator(); v != nil && v.Decided() > 0 {
		fmt.Fprintf(out, "coverage: %.1f%% of decided triggers (replicate→verdict)\n",
			100*float64(tr.CompletedTriggers())/float64(v.Decided()))
	}
	return nil
}
