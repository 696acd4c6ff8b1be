package main

import (
	"fmt"
	"log"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/workload"
)

const (
	simRate   = 3000                   // PACKET_IN/s of virtual time
	simStep   = 500 * time.Millisecond // virtual time per Simulation.Run slice
	simWarmup = time.Second            // virtual warm-up after Boot
	simDrain  = time.Second            // virtual time for the last verdicts
	// simPace converts -seconds into the virtual time the window covers:
	// the seed commit simulates about half a virtual second per wall
	// second on the reference box. The work is fixed, not the wall time,
	// because a step costs more the further the simulation has run (the
	// flow tables and stores grow): a faster build measured by the clock
	// would be charged for steps a slower one never reaches.
	simPace = 0.5
)

// simCounts are the simulation's running totals at one instant.
type simCounts struct {
	decided, flows, external, valBytes, replMsgs int64
}

func countSim(sim *jury.Simulation) simCounts {
	v := sim.Validator()
	return simCounts{
		decided:  v.Decided(),
		flows:    sim.Driver.Flows(),
		external: int64(v.DetectionsExternal.Count()),
		valBytes: sim.System.ValidatorBytes(),
		replMsgs: sim.Store.ReplicationMessages(),
	}
}

// bootedSim is a warmed-up simulation and the virtual time Boot took.
type bootedSim struct {
	*jury.Simulation
	boot time.Duration
}

// setUpSim assembles the paper's ONOS n=7 deployment on Linear24, boots
// it, starts the constant-rate driver and runs the warm-up.
func setUpSim(sp spec, opt options) (bootedSim, error) {
	sim, err := jury.New(jury.Config{Seed: opt.seed, Kind: jury.ONOS, ClusterSize: sp.n, EnableJury: true})
	if err != nil {
		return bootedSim{}, err
	}
	boot := sim.Boot()
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(simRate), sim.Now()+24*time.Hour)
	warm := time.Duration(float64(simWarmup) * opt.scale)
	if err := sim.Run(warm); err != nil {
		return bootedSim{}, err
	}
	return bootedSim{sim, boot}, nil
}

// runSim runs sim-onos7: Simulation.Run in 500 ms virtual steps (the
// slices) over a window of -seconds × simPace of virtual time. A trigger,
// and an operation, is one injected flow: with LocalPairs it costs exactly
// one PACKET_IN, and the steps carry near-equal numbers of them (the
// validator's decisions, which include internal triggers, come in
// bursts). An operation fails when the validator never decides it; the
// model raises a handful of false alarms on this benign traffic, as the
// paper's does, and their rate is the layer metric
// sim.false_positive_pct. The simulation has no socket, so two end-to-end
// metrics read differently here: verdict_latency_p50_us is the host time
// a step spends per trigger (virtual detection time depends on the seed,
// not on speed, and is a layer metric), and wire_bytes_per_trigger is the
// modeled module-to-validator traffic. The time-based metrics are the
// median over the steps, not the wire workloads' decile: the steps of one
// run differ by ±20 % by construction (later steps cost more, decisions
// come in bursts), so an extreme step says little about the run.
func runSim(sp spec, opt options) (result, error) {
	res := result{Metrics: map[string]metric{}}
	booted, setupS, err := repeatSetUp(opt, func() (bootedSim, error) { return setUpSim(sp, opt) }, func(bootedSim) {})
	if err != nil {
		return res, err
	}
	sim := booted.Simulation

	var tr *tracer
	if opt.trace {
		tr = &tracer{t0: time.Now()}
	}
	var (
		perSlice []float64 // triggers per wall second, per step
		usPer    []float64 // wall microseconds per trigger, per step
		cpuPer   []float64 // CPU microseconds per trigger, per step
		steps    uint64
		first    = countSim(sim)
		events   = sim.Engine.Processed()
		queueMax int
		a        = takeSnapshot(nil)
	)
	left := time.Duration(opt.seconds * simPace * float64(time.Second))
	for step := min(simStep, left); left >= step; left -= step {
		before, cpu, start := sim.Driver.Flows(), cpuTimeUS(), time.Now()
		if err := sim.Run(step); err != nil {
			return res, err
		}
		wall := time.Since(start)
		cpu = cpuTimeUS() - cpu
		steps++
		if tr != nil {
			tr.add(spanSimRun, steps, int64(start.Sub(tr.t0)), int64(start.Sub(tr.t0)+wall))
		}
		flows := float64(sim.Driver.Flows() - before)
		perSlice = append(perSlice, flows/wall.Seconds())
		usPer = append(usPer, ratio(float64(wall)/1e3, flows))
		cpuPer = append(cpuPer, ratio(cpu, flows))
		queueMax = max(queueMax, sim.Engine.Pending())
	}
	b := takeSnapshot(nil)
	last := countSim(sim)
	events = sim.Engine.Processed() - events

	// Let the triggers still pending reach their verdict, then account.
	sim.Driver.Stop()
	if err := sim.Run(simDrain); err != nil {
		return res, err
	}
	end := countSim(sim)
	res.Attempted = end.flows
	res.Failed = max(0, end.flows-end.external)

	if last.decided == first.decided {
		return res, fmt.Errorf("no verdict inside the measure window")
	}
	triggers := float64(last.flows - first.flows)
	v := sim.Validator()
	if !opt.trace {
		res.Metrics = map[string]metric{
			"triggers_per_s":          {median(perSlice), "1/s"},
			"verdict_latency_p50_us":  {median(usPer), "us"},
			"cpu_us_per_trigger":      {median(cpuPer), "us"},
			"allocs_per_trigger":      {float64(b.mem.Mallocs-a.mem.Mallocs) / triggers, "count"},
			"alloc_bytes_per_trigger": {float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / triggers, "B"},
			"wire_bytes_per_trigger":  {float64(last.valBytes-first.valBytes) / triggers, "B"},
			"setup_s":                 {median(setupS), "s"},
		}
		log.Printf("%s: %d flows and %d decisions in %d steps of %v virtual, set-ups %.3v s",
			sp.name, int64(triggers), last.decided-first.decided, steps, simStep, setupS)
		log.Printf("%s: per step: triggers/s %.0f, wall us/trigger %.0f, cpu us/trigger %.0f", sp.name, perSlice, usPer, cpuPer)
		return res, nil
	}

	ls := layers{}
	ls.runtimeLayers(a, b)
	ls["trace.samples"] = triggers
	ls["e2e.cpu_us_per_trigger_traced"] = median(cpuPer)
	ls["simnet.run_ns_per_trigger"] = float64(tr.sumNS[spanSimRun]) / triggers
	ls["simnet.events_per_trigger"] = float64(events) / triggers
	ls["simnet.queue_len_max"] = float64(queueMax)
	ls["core.timeouts_total"] = float64(v.Timeouts())
	ls["core.pending_max"] = float64(v.Pending())
	ls["sim.detection_p50_ms_virtual"] = v.DetectionsExternal.Percentile(50).Seconds() * 1e3
	ls["sim.detection_p95_ms_virtual"] = v.DetectionsExternal.Percentile(95).Seconds() * 1e3
	ls["sim.validator_bytes_per_trigger_modeled"] = float64(last.valBytes-first.valBytes) / triggers
	ls["sim.false_positive_pct"] = v.FalsePositiveRate() * 100
	ls["sim.boot_s"] = booted.boot.Seconds()
	ls["store.replication_msgs_per_trigger"] = float64(last.replMsgs-first.replMsgs) / triggers
	var replicated int64
	for _, sw := range sim.Topo.Switches() {
		if rep, ok := sim.System.Replicator(sw.DPID); ok {
			replicated += rep.Triggers()
		}
	}
	ls["core.replicated_msgs_per_trigger"] = float64(replicated*int64(sim.Config.K)) / float64(end.flows)
	path, err := tr.write(opt.outDir, sp.name)
	if err != nil {
		return res, fmt.Errorf("write trace: %w", err)
	}
	res.Metrics = ls.finish()
	log.Printf("%s: traced %d flows in %d steps, spans in %s", sp.name, int64(triggers), steps, path)
	return res, nil
}
