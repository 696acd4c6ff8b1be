package jury_test

import (
	"testing"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/faults"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/workload"
)

// newFaultSim boots a 3-node ONOS cluster with JURY at k=2, letting
// configure adjust the configuration first when non-nil.
func newFaultSim(t *testing.T, seed int64, configure func(*jury.Config)) *jury.Simulation {
	t.Helper()
	cfg := jury.Config{
		Seed:        seed,
		Kind:        jury.ONOS,
		ClusterSize: 3,
		EnableJury:  true,
		K:           2,
	}
	if configure != nil {
		configure(&cfg)
	}
	sim, err := jury.New(cfg)
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

// detectRow arms the catalog row for kind on a 3-node ONOS cluster (k=2,
// seed 11 + row index) under benign traffic. A row that lists verdict
// classes must perturb something and be convicted: an alarm of a listed
// class naming the row's target as offender.
func detectRow(t *testing.T, kind faults.Kind) {
	t.Parallel()
	for i, sc := range jury.Catalog() {
		if sc.Kind != kind {
			continue
		}
		sim := newFaultSim(t, int64(11+i), sc.Configure)
		f, err := sc.Arm(sim)
		if err != nil {
			t.Fatal(err)
		}
		alarms := driveAndCollect(t, sim, 4*time.Second)
		if len(sc.Catches) == 0 {
			return
		}
		// The master-election fault counts no injections (see its row).
		if f.Injections() == 0 && sc.Kind != faults.ONOSMasterElection {
			t.Fatal("fault never manifested")
		}
		a, ok := sc.Conviction(f, alarms)
		if !ok {
			t.Fatalf("%s not convicted; injections=%d alarms=%d", f, f.Injections(), len(alarms))
		}
		t.Logf("convicted: %s offender=C%d in %v: %s", a.Fault, a.Offender, a.DetectionTime, a.Reason)
		return
	}
	t.Fatalf("no catalog row for %s", kind)
}

func TestDetectDatabaseLocking(t *testing.T)    { detectRow(t, faults.ONOSDatabaseLocking) }
func TestDetectMasterElection(t *testing.T)     { detectRow(t, faults.ONOSMasterElection) }
func TestDetectFlowModDrop(t *testing.T)        { detectRow(t, faults.ODLFlowModDrop) }
func TestDetectLinkFailure(t *testing.T)        { detectRow(t, faults.LinkFailure) }
func TestDetectUndesirableFlowMod(t *testing.T) { detectRow(t, faults.UndesirableFlowMod) }
func TestDetectFaultyProactiveActionViaPolicy(t *testing.T) {
	detectRow(t, faults.FaultyProactiveAction)
}
func TestDetectPendingAddViaReconciliation(t *testing.T) { detectRow(t, faults.PendingAdd) }
func TestDetectByzantineCorruption(t *testing.T)         { detectRow(t, faults.ByzantineCorruption) }

// namedRows are the rows that have a TestDetect* of their own above.
var namedRows = map[faults.Kind]bool{
	faults.ONOSDatabaseLocking:   true,
	faults.ONOSMasterElection:    true,
	faults.ODLFlowModDrop:        true,
	faults.LinkFailure:           true,
	faults.UndesirableFlowMod:    true,
	faults.FaultyProactiveAction: true,
	faults.PendingAdd:            true,
	faults.ByzantineCorruption:   true,
}

// TestCatalogDetection arms, through detectRow, every catalog row that
// has no TestDetect* of its own, so each row runs exactly once.
func TestCatalogDetection(t *testing.T) {
	seen := 0
	for _, sc := range jury.Catalog() {
		if namedRows[sc.Kind] {
			seen++
			continue
		}
		kind := sc.Kind
		t.Run(string(kind), func(t *testing.T) { detectRow(t, kind) })
	}
	if seen != len(namedRows) {
		t.Fatalf("%d of %d named rows are in the catalog", seen, len(namedRows))
	}
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
