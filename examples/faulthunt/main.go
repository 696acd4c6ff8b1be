// Command faulthunt reproduces the detection experiment of §VII-A1: it
// walks JURY through the paper's fault catalog — the real ONOS/ODL bugs of
// §III-B, the three synthetic faults, and the appendix faults — injecting
// each into a 7-node cluster with full replication (k=6) and reporting
// whether and how fast the validator caught it.
package main

import (
	"fmt"
	"log"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/faults"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/policy"
	"github.com/jurysdn/jury/internal/workload"
)

// scenario wires one catalog fault into a fresh simulation.
type scenario struct {
	kind  faults.Kind
	class faults.Class
	setup func(sim *jury.Simulation) *faults.Fault
	// wants is the fault class the validator should report.
	wants []core.FaultClass
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// must aborts the hunt on scenario-setup errors: a failed REST install
// means the scenario never exercised the fault it was built for.
func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func scenarios() []scenario {
	return []scenario{
		{
			kind: faults.ONOSDatabaseLocking, class: faults.ClassT1,
			setup: func(sim *jury.Simulation) *faults.Fault {
				target := sim.Controller(1)
				f := faults.InjectDatabaseLocking(target)
				// Reconnect a governed switch: its FEATURES_REPLY is the
				// trigger whose cache write fails.
				dpid := target.Governed()[0]
				sw, _ := sim.Fabric.Switch(dpid)
				target.ConnectSwitch(dpid, sw.HandleControllerMessage)
				return f
			},
			wants: []core.FaultClass{core.FaultOmission},
		},
		{
			kind: faults.ONOSMasterElection, class: faults.ClassT1,
			setup: func(sim *jury.Simulation) *faults.Fault {
				// The liveness master of a cross-governed link reboots
				// with a lower election ID and stops tracking liveness.
				target := sim.Controller(7)
				f := faults.InjectMasterElection(target)
				flapLinkOf(sim, target, 2*time.Second)
				return f
			},
			wants: []core.FaultClass{core.FaultOmission, core.FaultValue},
		},
		{
			kind: faults.ODLFlowModDrop, class: faults.ClassT2,
			setup: func(sim *jury.Simulation) *faults.Fault {
				return faults.InjectFlowModDrop(sim.Controller(3), 1)
			},
			wants: []core.FaultClass{core.FaultMissingNetwork},
		},
		{
			kind: faults.ODLIncorrectFlowMod, class: faults.ClassT3,
			setup: func(sim *jury.Simulation) *faults.Fault {
				target := sim.Controller(2)
				dpid := target.Governed()[0]
				sw, _ := sim.Fabric.Switch(dpid)
				f := faults.InjectIncorrectFlowMod(target, sw)
				f.Fire()
				return f
			},
			wants: []core.FaultClass{core.FaultPolicy},
		},
		{
			kind: faults.LinkFailure, class: faults.ClassT1,
			setup: func(sim *jury.Simulation) *faults.Fault {
				target := sim.Controller(4)
				f := faults.InjectLinkFailure(target)
				flapLinkOf(sim, target, 2*time.Second)
				return f
			},
			wants: []core.FaultClass{core.FaultValue},
		},
		{
			kind: faults.UndesirableFlowMod, class: faults.ClassT2,
			setup: func(sim *jury.Simulation) *faults.Fault {
				return faults.InjectUndesirableFlowMod(sim.Controller(5))
			},
			wants: []core.FaultClass{core.FaultInconsistent},
		},
		{
			kind: faults.FaultyProactiveAction, class: faults.ClassT3,
			setup: func(sim *jury.Simulation) *faults.Fault {
				links := sim.Topo.Links()
				key := controller.LinkKey(links[0].Src, links[0].Dst)
				f := faults.InjectFaultyProactiveAction(sim.Controller(6), key)
				f.Fire()
				return f
			},
			wants: []core.FaultClass{core.FaultPolicy},
		},
		{
			kind: faults.FlowDeletionFailure, class: faults.ClassT1,
			setup: func(sim *jury.Simulation) *faults.Fault {
				target := sim.Controller(1)
				f := faults.InjectFlowDeletionFailure(target)
				// REST-install a rule, then REST-delete it: the delete is
				// silently dropped by the faulty controller.
				dpid := target.Governed()[0]
				rule := controller.FlowRule{
					DPID: dpid, Priority: 99,
					Command: uint16(0), // add
				}
				must(sim.System.InstallFlowREST(target.ID(), dpid, rule))
				del := rule
				del.Command = 3 // delete
				sim.Engine.Schedule(500*time.Millisecond, func() {
					must(sim.System.InstallFlowREST(target.ID(), dpid, del))
				})
				return f
			},
			wants: []core.FaultClass{core.FaultOmission},
		},
		{
			kind: faults.FlowInstantiationFailure, class: faults.ClassT2,
			setup: func(sim *jury.Simulation) *faults.Fault {
				target := sim.Controller(2)
				f := faults.InjectFlowInstantiationFailure(target)
				dpid := target.Governed()[0]
				rule := controller.FlowRule{DPID: dpid, Priority: 77}
				must(sim.System.InstallFlowREST(target.ID(), dpid, rule))
				return f
			},
			wants: []core.FaultClass{core.FaultMissingNetwork},
		},
		{
			kind: faults.Crash, class: faults.ClassCrash,
			setup: func(sim *jury.Simulation) *faults.Fault {
				f := faults.InjectCrash(sim.Controller(3))
				sim.Engine.Schedule(time.Second, f.Fire)
				return f
			},
			// Crashes surface as response omissions (§III-B); mastership
			// failover may momentarily produce inconsistent views too.
			wants: []core.FaultClass{core.FaultOmission, core.FaultValue, core.FaultMissingNetwork},
		},
	}
}

func flapLinkOf(sim *jury.Simulation, target *controller.Controller, at time.Duration) {
	for _, l := range sim.Topo.Links() {
		if m, ok := sim.Members.LinkLivenessMaster(l.Src.DPID, l.Dst.DPID); ok && m == target.ID() {
			src := l.Src
			sim.Fabric.SetLinkDown(src, true)
			sim.Engine.Schedule(at, func() { sim.Fabric.SetLinkDown(src, false) })
			return
		}
	}
}

func run() error {
	fmt.Println("== JURY fault hunt: the §VII-A1 detection experiment (n=7, k=6) ==")
	policies := []policy.Policy{
		{Name: "no-proactive-topology-changes", Trigger: "internal", Cache: "LinksDB"},
		{Name: "match-field-hierarchy", Cache: "FlowsDB", RequireMatchHierarchy: true},
	}
	detected := 0
	var detectionTimes obs.Distribution
	for i, sc := range scenarios() {
		sim, err := jury.New(jury.Config{
			Seed:        int64(100 + i),
			Kind:        jury.ONOS,
			ClusterSize: 7,
			EnableJury:  true,
			K:           6,
			Policies:    policies,
		})
		if err != nil {
			return err
		}
		sim.Boot()
		fault := sc.setup(sim)
		until := sim.Now() + 6*time.Second
		sim.Driver.Start(workload.ConstantRate(60), until)
		if err := sim.Run(7 * time.Second); err != nil {
			return err
		}
		var hit *core.Result
		for _, a := range sim.Validator().Alarms() {
			for _, want := range sc.wants {
				if a.Fault == want && hit == nil {
					a := a
					hit = &a
				}
			}
		}
		status := "MISSED"
		if hit != nil {
			detected++
			detectionTimes.Add(hit.DetectionTime)
			status = fmt.Sprintf("detected as %-15s offender=C%d in %8v", hit.Fault, hit.Offender, hit.DetectionTime.Round(time.Microsecond))
		}
		fmt.Printf("  [%s] %-28s (%s, injections=%d): %s\n", sc.class, sc.kind, realness(sc.kind), fault.Injections(), status)
	}
	fmt.Printf("detected %d/%d faults; detection time p50=%v max=%v\n",
		detected, len(scenarios()), detectionTimes.Percentile(50), detectionTimes.Max())
	if detected < len(scenarios()) {
		return fmt.Errorf("missed faults")
	}
	return nil
}

func realness(kind faults.Kind) string {
	for _, s := range faults.Scenarios() {
		if s.Kind == kind {
			if s.Real {
				return "real bug"
			}
			return "synthetic"
		}
	}
	return "?"
}
