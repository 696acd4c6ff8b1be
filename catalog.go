package jury

import (
	"fmt"
	"time"

	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/dataplane"
	"github.com/jurysdn/jury/internal/faults"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/policy"
)

// Scenario is one row of the fault catalog: what the fault is, which
// verdicts convict it, and how to arm it on a simulation. `jury sim
// -fault`, the faulthunt example and the catalog test all read it.
type Scenario struct {
	Kind        faults.Kind
	Class       faults.Class
	Real        bool // documented in a real controller vs synthetic
	Description string
	// Catches lists the verdict classes that convict the fault; an alarm
	// convicts only when it also names the armed fault's target as
	// offender (see Conviction). Empty for a fault JURY does not convict
	// by design.
	Catches []core.FaultClass
	// Configure, when non-nil, adjusts the configuration before New: the
	// policy or controller knob without which the fault cannot show.
	Configure func(*Config)
	// Arm injects the fault into a booted simulation of n >= 3
	// controllers and stages what makes it fire: a link flap, a REST
	// request or Fire. The target is C1, or Cn where the fault needs the
	// liveness master of a cross-governed link (the highest-ID governor
	// wins that election).
	Arm func(*Simulation) (*faults.Fault, error)
}

// Conviction returns the first alarm that convicts the armed fault f: one
// of a class the scenario catches, naming f's target as offender.
func (s Scenario) Conviction(f *faults.Fault, alarms []core.Result) (core.Result, bool) {
	for _, a := range alarms {
		if a.Offender != f.Target.ID() {
			continue
		}
		for _, c := range s.Catches {
			if a.Fault == c {
				return a, true
			}
		}
	}
	return core.Result{}, false
}

// LookupScenario returns the catalog row for kind.
func LookupScenario(kind faults.Kind) (Scenario, bool) {
	for _, s := range Catalog() {
		if s.Kind == kind {
			return s, true
		}
	}
	return Scenario{}, false
}

// Catalog returns the fault catalog of §III-B, §VII-A1 and the appendix,
// one row per faults.Kind.
func Catalog() []Scenario {
	return []Scenario{
		{
			Kind: faults.ONOSDatabaseLocking, Class: faults.ClassT1, Real: true,
			Description: "clustered ONOS rejects a switch connect with a 'failed to obtain lock' error; the SwitchDB write is omitted",
			Catches:     []core.FaultClass{core.FaultOmission},
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				target, sw := switchOfC1(sim)
				f := faults.InjectDatabaseLocking(target)
				// The reconnect's FEATURES_REPLY is the trigger whose
				// SwitchDB write fails.
				target.ConnectSwitch(sw.DPID(), sw.HandleControllerMessage)
				return f, nil
			},
		},
		{
			Kind: faults.ONOSMasterElection, Class: faults.ClassT1, Real: true,
			Description: "after the liveness master reboots with a lower ID, neither governor tracks a cross-governed link's liveness",
			// The fault only changes whom the target believes won the
			// election, so it counts no injections: this row is judged
			// by the offender alone.
			Catches: []core.FaultClass{core.FaultOmission, core.FaultValue},
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				target := livenessMaster(sim)
				f := faults.InjectMasterElection(target)
				return f, flapLivenessLink(sim, target)
			},
		},
		{
			Kind: faults.ODLFlowModDrop, Class: faults.ClassT2, Real: true,
			Description: "FLOW_MODs written to MD-SAL are sporadically lost before reaching the network",
			Catches:     []core.FaultClass{core.FaultMissingNetwork},
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				return faults.InjectFlowModDrop(sim.Controller(1), 1), nil
			},
		},
		{
			Kind: faults.ODLIncorrectFlowMod, Class: faults.ClassT3, Real: true,
			Description: "the switch silently accepts a FLOW_MOD whose match violates the OpenFlow 1.0 field hierarchy",
			Catches:     []core.FaultClass{core.FaultPolicy},
			Configure: withPolicy(policy.Policy{
				Name: "match-field-hierarchy", Cache: "FlowsDB", RequireMatchHierarchy: true,
			}),
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				target, sw := switchOfC1(sim)
				f := faults.InjectIncorrectFlowMod(target, sw)
				f.Fire()
				return f, nil
			},
		},
		{
			Kind: faults.LinkFailure, Class: faults.ClassT1,
			Description: "an LLDP trigger is answered with an incorrect LinksDB update disabling a critical link",
			Catches:     []core.FaultClass{core.FaultValue},
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				// Only the liveness master's LinksDB writes are the ones
				// rediscovery makes, so it is the one to corrupt.
				target := livenessMaster(sim)
				f := faults.InjectLinkFailure(target)
				return f, flapLivenessLink(sim, target)
			},
		},
		{
			Kind: faults.UndesirableFlowMod, Class: faults.ClassT2,
			Description: "the cache holds the correct rule but the emitted FLOW_MOD drops all packets",
			Catches:     []core.FaultClass{core.FaultInconsistent},
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				return faults.InjectUndesirableFlowMod(sim.Controller(1)), nil
			},
		},
		{
			Kind: faults.FaultyProactiveAction, Class: faults.ClassT3,
			Description: "an administrator/application consistently writes a bad LinksDB entry bringing a link down",
			Catches:     []core.FaultClass{core.FaultPolicy},
			Configure: withPolicy(policy.Policy{
				Name: "no-proactive-topology-changes", Trigger: "internal", Cache: "LinksDB",
			}),
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				l := sim.Topo.Links()[0]
				f := faults.InjectFaultyProactiveAction(sim.Controller(1), controller.LinkKey(l.Src, l.Dst))
				f.Fire()
				return f, nil
			},
		},
		{
			Kind: faults.FlowDeletionFailure, Class: faults.ClassT1, Real: true,
			Description: "a REST-initiated flow deletion is silently dropped by the controller",
			Catches:     []core.FaultClass{core.FaultOmission},
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				target, sw := switchOfC1(sim)
				f := faults.InjectFlowDeletionFailure(target)
				// REST-install a rule, then REST-delete it: the faulty
				// controller silently drops the delete.
				rule := controller.FlowRule{DPID: sw.DPID(), Priority: 99, Command: uint16(openflow.FlowAdd)}
				if err := sim.InstallFlowREST(1, rule); err != nil {
					return nil, err
				}
				rule.Command = uint16(openflow.FlowDelete)
				sim.Engine.Schedule(500*time.Millisecond, func() {
					_ = sim.InstallFlowREST(1, rule) //jurylint:allow errcrit -- the install above reached the same switch, so the delete cannot fail
				})
				return f, nil
			},
		},
		{
			Kind: faults.LinkDetectionInconsistent, Class: faults.ClassT1, Real: true,
			Description: "threading conflicts make link detection non-deterministic across runs",
			// No class: the consensus checks the slots the primary
			// wrote, so a rediscovery trigger that keeps one of its two
			// LinksDB writes passes. Only a trigger that loses both is
			// convicted, as an omission.
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				target := livenessMaster(sim)
				f := faults.InjectLinkDetectionInconsistent(target, sim.Engine.Rand(), 50)
				return f, flapLivenessLink(sim, target)
			},
		},
		{
			Kind: faults.FlowInstantiationFailure, Class: faults.ClassT2, Real: true,
			Description: "restconf reports success but no FLOW_MOD ever reaches the switch",
			Catches:     []core.FaultClass{core.FaultMissingNetwork},
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				target, sw := switchOfC1(sim)
				f := faults.InjectFlowInstantiationFailure(target)
				return f, sim.InstallFlowREST(1, controller.FlowRule{DPID: sw.DPID(), Priority: 77})
			},
		},
		{
			Kind: faults.PendingAdd, Class: faults.ClassT2, Real: true,
			Description: "flow rules stay in PENDING_ADD because switch and store disagree",
			Catches:     []core.FaultClass{core.FaultPolicy},
			// The ONOS-style reconciler marks rules the switch never
			// moves to ADDED as stuck; an administrator policy turns
			// that into an alarm.
			Configure: func(c *Config) {
				p := c.profile()
				p.ReconcilePeriod = 500 * time.Millisecond
				c.Profile = &p
				withPolicy(policy.Policy{
					Name: "no-stuck-rules", Cache: "FlowsDB", Entry: "*,*" + controller.RuleStuck + "*",
				})(c)
			},
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				target, sw := switchOfC1(sim)
				f := faults.InjectPendingAdd(target, sw)
				// A REST install puts a rule on the held switch at once,
				// whatever the traffic reaches.
				return f, sim.InstallFlowREST(1, controller.FlowRule{DPID: sw.DPID(), Priority: 88})
			},
		},
		{
			Kind: faults.Crash, Class: faults.ClassCrash,
			Description: "fail-stop of a controller node; reported as response omissions",
			// Mastership failover may also show the dead master's last
			// triggers as value or missing-network faults.
			Catches: []core.FaultClass{core.FaultOmission, core.FaultValue, core.FaultMissingNetwork},
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				f := faults.InjectCrash(sim.Controller(1))
				sim.Engine.Schedule(time.Second, f.Fire)
				return f, nil
			},
		},
		{
			Kind: faults.TimingDelay, Class: faults.ClassTiming,
			Description: "a slow replica violating timing expectations",
			Catches:     []core.FaultClass{core.FaultOmission},
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				// A delay past θτ is what makes the slow replica a timing
				// fault: its primary responses miss the deadline.
				return faults.InjectTimingDelay(sim.Controller(1), sim.Config.ValidationTimeout, 60*time.Millisecond), nil
			},
		},
		{
			Kind: faults.ByzantineCorruption, Class: faults.ClassByz,
			Description: "random corruption of cache writes",
			Catches:     []core.FaultClass{core.FaultValue, core.FaultInconsistent},
			Arm: func(sim *Simulation) (*faults.Fault, error) {
				return faults.InjectByzantineCorruption(sim.Controller(1), sim.Engine.Rand(), 20), nil
			},
		},
	}
}

// withPolicy returns a Configure hook that adds p to the policy set.
func withPolicy(p policy.Policy) func(*Config) {
	return func(c *Config) { c.Policies = append(c.Policies, p) }
}

// livenessMaster returns Cn: the highest-ID controller, which wins the
// liveness election for every cross-governed link it governs an end of.
func livenessMaster(sim *Simulation) *controller.Controller {
	return sim.Controller(sim.Config.ClusterSize)
}

// switchOfC1 returns C1 and the first switch it masters: the lowest ID
// masters the first switch at boot in every cluster mode.
func switchOfC1(sim *Simulation) (*controller.Controller, *dataplane.Switch) {
	c1 := sim.Controller(1)
	sw, _ := sim.Fabric.Switch(c1.Governed()[0])
	return c1, sw
}

// flapLivenessLink takes down a cross-governed link whose liveness master
// is target and restores it 2 s later, so rediscovery needs the target's
// LinksDB writes.
func flapLivenessLink(sim *Simulation, target *controller.Controller) error {
	for _, l := range sim.Topo.Links() {
		ma, _ := sim.Members.Master(l.Src.DPID)
		mb, _ := sim.Members.Master(l.Dst.DPID)
		if ma == mb {
			continue
		}
		if m, ok := sim.Members.LinkLivenessMaster(l.Src.DPID, l.Dst.DPID); ok && m == target.ID() {
			src := l.Src
			sim.Fabric.SetLinkDown(src, true)
			sim.Engine.Schedule(2*time.Second, func() { sim.Fabric.SetLinkDown(src, false) })
			return nil
		}
	}
	return fmt.Errorf("jury: no cross-governed link has C%d as liveness master", target.ID())
}
