package jury_test

import (
	"testing"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/faults"
	"github.com/jurysdn/jury/internal/policy"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/workload"
)

func newFaultSim(t *testing.T, seed int64, policies []policy.Policy) *jury.Simulation {
	t.Helper()
	sim, err := jury.New(jury.Config{
		Seed:        seed,
		Kind:        jury.ONOS,
		ClusterSize: 3,
		EnableJury:  true,
		K:           2,
		Policies:    policies,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	return sim
}

func driveAndCollect(t *testing.T, sim *jury.Simulation, d time.Duration) []core.Result {
	t.Helper()
	until := sim.Now() + d
	sim.Driver.Start(workload.ConstantRate(50), until)
	if err := sim.Run(d + time.Second); err != nil {
		t.Fatal(err)
	}
	return sim.Validator().Alarms()
}

func TestDetectDatabaseLocking(t *testing.T) {
	sim := newFaultSim(t, 11, nil)
	target := sim.Controller(1)
	f := faults.InjectDatabaseLocking(target)
	// Reconnect a switch governed by C1 to trigger FEATURES_REPLY.
	gov := target.Governed()
	if len(gov) == 0 {
		t.Fatal("C1 governs nothing")
	}
	sw, _ := sim.Fabric.Switch(gov[0])
	target.ConnectSwitch(gov[0], sw.HandleControllerMessage)
	alarms := driveAndCollect(t, sim, 2*time.Second)
	if f.Injections() == 0 {
		t.Fatal("fault never manifested")
	}
	for _, a := range alarms {
		if a.Fault == core.FaultOmission && a.Offender == store.NodeID(1) {
			t.Logf("detected: %s in %v", a.Reason, a.DetectionTime)
			return
		}
	}
	t.Fatalf("database locking not detected; alarms=%v", alarms)
}

func TestDetectLinkFailure(t *testing.T) {
	sim := newFaultSim(t, 12, nil)
	target := sim.Controller(2)
	f := faults.InjectLinkFailure(target)
	// Flap a link whose liveness master is C2 so rediscovery makes C2
	// rewrite the LinksDB entry (which the fault flips to "down").
	var flapped bool
	for _, l := range sim.Topo.Links() {
		if m, ok := sim.Members.LinkLivenessMaster(l.Src.DPID, l.Dst.DPID); ok && m == target.ID() {
			sim.Fabric.SetLinkDown(l.Src, true)
			src := l.Src
			sim.Engine.Schedule(4*time.Second, func() { sim.Fabric.SetLinkDown(src, false) })
			flapped = true
			break
		}
	}
	if !flapped {
		t.Fatal("no link governed by C2 found")
	}
	alarms := driveAndCollect(t, sim, 8*time.Second)
	if f.Injections() == 0 {
		t.Skip("no LinksDB writes during window")
	}
	for _, a := range alarms {
		if a.Fault == core.FaultValue && a.Offender == store.NodeID(2) {
			t.Logf("detected: %s in %v", a.Reason, a.DetectionTime)
			return
		}
	}
	t.Fatalf("link failure not detected; injections=%d alarms=%v", f.Injections(), alarms)
}

func TestDetectFlowModDrop(t *testing.T) {
	sim := newFaultSim(t, 13, nil)
	target := sim.Controller(3)
	f := faults.InjectFlowModDrop(target, 1)
	alarms := driveAndCollect(t, sim, 3*time.Second)
	if f.Injections() == 0 {
		t.Fatal("fault never manifested")
	}
	for _, a := range alarms {
		if a.Fault == core.FaultMissingNetwork && a.Offender == store.NodeID(3) {
			t.Logf("detected: %s in %v", a.Reason, a.DetectionTime)
			return
		}
	}
	t.Fatalf("FLOW_MOD drop not detected; injections=%d alarms=%d", f.Injections(), len(alarms))
}

func TestDetectUndesirableFlowMod(t *testing.T) {
	sim := newFaultSim(t, 14, nil)
	target := sim.Controller(1)
	f := faults.InjectUndesirableFlowMod(target)
	alarms := driveAndCollect(t, sim, 3*time.Second)
	if f.Injections() == 0 {
		t.Fatal("fault never manifested")
	}
	for _, a := range alarms {
		if a.Fault == core.FaultInconsistent {
			t.Logf("detected: %s in %v", a.Reason, a.DetectionTime)
			return
		}
	}
	t.Fatalf("undesirable FLOW_MOD not detected; injections=%d alarms=%d", f.Injections(), len(alarms))
}

func TestDetectFaultyProactiveActionViaPolicy(t *testing.T) {
	policies := []policy.Policy{{
		Name:    "no-proactive-topology-changes",
		Trigger: "internal",
		Cache:   "LinksDB",
	}}
	sim := newFaultSim(t, 15, policies)
	target := sim.Controller(2)
	links := sim.Topo.Links()
	key := controller.LinkKey(links[0].Src, links[0].Dst)
	f := faults.InjectFaultyProactiveAction(target, key)
	f.Fire()
	if err := sim.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, a := range sim.Validator().Alarms() {
		if a.Fault == core.FaultPolicy && a.Offender == store.NodeID(2) {
			t.Logf("detected: %s in %v", a.Reason, a.DetectionTime)
			return
		}
	}
	t.Fatalf("faulty proactive action not detected; alarms=%v", sim.Validator().Alarms())
}

func TestDetectPendingAddViaReconciliation(t *testing.T) {
	// The appendix PENDING_ADD fault: the switch accepts FLOW_MODs but
	// never moves entries to ADDED, so the ONOS-style reconciler keeps
	// the FlowsDB rules in PENDING_ADD and eventually marks them stuck —
	// which an administrator policy turns into an alarm.
	profile := controller.ONOSProfile()
	profile.ReconcilePeriod = 500 * time.Millisecond
	sim, err := jury.New(jury.Config{
		Seed:        31,
		Kind:        jury.ONOS,
		Profile:     &profile,
		ClusterSize: 3,
		EnableJury:  true,
		K:           2,
		Policies: []policy.Policy{{
			Name:  "no-stuck-rules",
			Cache: "FlowsDB",
			Entry: "*,*" + controller.RuleStuck + "*",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	target := sim.Controller(1)
	dpid := target.Governed()[0]
	sw, _ := sim.Fabric.Switch(dpid)
	faults.InjectPendingAdd(target, sw)
	alarms := driveAndCollect(t, sim, 4*time.Second)
	for _, a := range alarms {
		if a.Fault == core.FaultPolicy && a.Reason == "policy violation: no-stuck-rules" {
			t.Logf("detected: %s in %v", a.Reason, a.DetectionTime)
			return
		}
	}
	t.Fatalf("PENDING_ADD not detected; alarms=%d", len(alarms))
}

func TestDetectByzantineCorruption(t *testing.T) {
	sim := newFaultSim(t, 37, nil)
	target := sim.Controller(2)
	f := faults.InjectByzantineCorruption(target, sim.Engine.Rand(), 100)
	alarms := driveAndCollect(t, sim, 3*time.Second)
	if f.Injections() == 0 {
		t.Fatal("fault never manifested")
	}
	// Corrupted primary writes diverge from the secondaries' replicated
	// executions (T1 value faults) or break cache/network sanity.
	for _, a := range alarms {
		if a.Offender == store.NodeID(2) &&
			(a.Fault == core.FaultValue || a.Fault == core.FaultInconsistent) {
			t.Logf("detected: %s in %v", a.Reason, a.DetectionTime)
			return
		}
	}
	t.Fatalf("byzantine corruption not detected; injections=%d alarms=%d", f.Injections(), len(alarms))
}

func TestDetectMasterElection(t *testing.T) {
	sim := newFaultSim(t, 39, nil)
	// The highest-ID controller wins liveness elections; after its
	// "reboot" with a lower election ID it stops tracking its links.
	target := sim.Controller(3)
	f := faults.InjectMasterElection(target)
	// Flap a cross-governed link whose liveness master is the target so
	// rediscovery requires the (now silent) liveness master to act.
	var flapped bool
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
			flapped = true
			break
		}
	}
	if !flapped {
		t.Fatal("no cross-governed link with target as liveness master")
	}
	alarms := driveAndCollect(t, sim, 6*time.Second)
	_ = f
	for _, a := range alarms {
		if a.Fault == core.FaultOmission && a.Offender == store.NodeID(3) {
			t.Logf("detected: %s in %v", a.Reason, a.DetectionTime)
			return
		}
	}
	t.Fatalf("master election fault not detected; alarms=%d", len(alarms))
}

func TestDetectFlowModDropODL(t *testing.T) {
	// The FLOW_MOD-drop bug is an ODL bug (§III-B T2); verify detection
	// under the ODL profile too (strong consistency, encapsulating
	// replication path, SINGLE_CONTROLLER mastership).
	sim, err := jury.New(jury.Config{
		Seed:        41,
		Kind:        jury.ODL,
		ClusterSize: 3,
		EnableJury:  true,
		K:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	target := sim.Controller(3)
	f := faults.InjectFlowModDrop(target, 1)
	until := sim.Now() + 4*time.Second
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(40), until)
	if err := sim.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Injections() == 0 {
		t.Fatal("fault never manifested")
	}
	for _, a := range sim.Validator().Alarms() {
		if a.Fault == core.FaultMissingNetwork && a.Offender == store.NodeID(3) {
			t.Logf("detected on ODL: %s in %v", a.Reason, a.DetectionTime)
			return
		}
	}
	t.Fatalf("ODL FLOW_MOD drop not detected; injections=%d alarms=%d",
		f.Injections(), len(sim.Validator().Alarms()))
}

func TestDetectUndesirableFlowModODL(t *testing.T) {
	sim, err := jury.New(jury.Config{
		Seed:        43,
		Kind:        jury.ODL,
		ClusterSize: 3,
		EnableJury:  true,
		K:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	target := sim.Controller(2)
	f := faults.InjectUndesirableFlowMod(target)
	until := sim.Now() + 4*time.Second
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(40), until)
	if err := sim.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Injections() == 0 {
		t.Fatal("fault never manifested")
	}
	for _, a := range sim.Validator().Alarms() {
		if a.Fault == core.FaultInconsistent {
			t.Logf("detected on ODL: %s in %v", a.Reason, a.DetectionTime)
			return
		}
	}
	t.Fatalf("ODL undesirable FLOW_MOD not detected; injections=%d", f.Injections())
}

// TestDetectCrash fail-stops a controller that masters switches in the
// middle of a run. Until the cluster's failure detector fires, PACKET_INs
// still reach the dead master, and its missing responses must surface as
// omission alarms against it (§III-B), on every seed.
func TestDetectCrash(t *testing.T) {
	for seed := int64(51); seed <= 55; seed++ {
		sim := newFaultSim(t, seed, nil)
		target := sim.Controller(2)
		if len(target.Governed()) == 0 {
			t.Fatalf("seed %d: C2 governs nothing", seed)
		}
		f := faults.InjectCrash(target)
		sim.Engine.Schedule(time.Second, f.Fire)
		alarms := driveAndCollect(t, sim, 3*time.Second)
		detected := false
		for _, a := range alarms {
			if a.Fault == core.FaultOmission && a.Offender == target.ID() {
				detected = true
			}
		}
		if !detected {
			t.Errorf("seed %d: crash not detected as an omission by C2; alarms=%d", seed, len(alarms))
		}
	}
}
