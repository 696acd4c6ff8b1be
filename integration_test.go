package jury_test

import (
	"context"
	"testing"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/experiment"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/sweep"
	"github.com/jurysdn/jury/internal/workload"
)

func TestVanillaONOSEndToEnd(t *testing.T) {
	sim, err := jury.New(jury.Config{Seed: 1, Kind: jury.ONOS, ClusterSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	until := sim.Now() + 5*time.Second
	sim.Driver.Start(workload.ConstantRate(100), until)
	if err := sim.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sim.Driver.Flows() == 0 {
		t.Fatal("no flows injected")
	}
	if sim.FlowMods.Total() == 0 {
		t.Fatal("no FLOW_MODs emitted")
	}
	if sim.Fabric.Delivered() == 0 {
		t.Fatal("no frames delivered to hosts")
	}
	// Reactive forwarding installed real rules on real switches.
	rules := 0
	for _, sw := range sim.Fabric.Switches() {
		rules += len(sw.Table())
	}
	if rules == 0 {
		t.Fatal("no flow entries installed")
	}
}

func TestJuryBenignRunHasNoFalsePositives(t *testing.T) {
	sim, err := jury.New(jury.Config{Seed: 2, Kind: jury.ONOS, ClusterSize: 3, EnableJury: true, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	until := sim.Now() + 5*time.Second
	sim.Driver.Start(workload.ConstantRate(100), until)
	if err := sim.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	v := sim.Validator()
	if v.Decided() == 0 {
		t.Fatal("validator decided nothing")
	}
	if fp := v.FalsePositiveRate(); fp > 0.01 {
		for i, a := range v.Alarms() {
			if i >= 5 {
				break
			}
			t.Logf("alarm: %s offender=C%d %s", a.Fault, a.Offender, a.Reason)
		}
		t.Fatalf("false positive rate %.2f%% on benign run", fp*100)
	}
}

func TestJuryODLEndToEnd(t *testing.T) {
	sim, err := jury.New(jury.Config{Seed: 3, Kind: jury.ODL, ClusterSize: 3, EnableJury: true, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	until := sim.Now() + 5*time.Second
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(50), until)
	if err := sim.Run(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	v := sim.Validator()
	if v.Decided() == 0 {
		t.Fatal("validator decided nothing")
	}
	// ODL replicas receive doubly encapsulated PACKET_INs and must have
	// paid decapsulation cost (Fig. 4i path).
	decaps := 0
	for i := 1; i <= 3; i++ {
		if m, ok := sim.System.Module(store.NodeID(i)); ok {
			decaps += m.DecapTimes.Count()
		}
	}
	if decaps == 0 {
		t.Fatal("no decapsulations on the ODL path")
	}
	if fp := v.FalsePositiveRate(); fp > 0.02 {
		t.Fatalf("false positive rate %.2f%%", fp*100)
	}
}

func TestThroughputSaturationShape(t *testing.T) {
	measure := func(kind jury.ControllerKind, n int, rate float64) float64 {
		sim, err := jury.New(jury.Config{Seed: 42, Kind: kind, ClusterSize: n})
		if err != nil {
			t.Fatal(err)
		}
		sim.Boot()
		start := sim.Now()
		until := start + 5*time.Second
		sim.Driver.LocalPairs = true
		sim.Driver.Start(workload.ConstantRate(rate), until)
		if err := sim.Run(6 * time.Second); err != nil {
			t.Fatal(err)
		}
		return sim.FlowMods.MeanRate(start, until)
	}
	// ONOS: linear below saturation, saturates ~4.9K (Fig. 4f).
	low := measure(jury.ONOS, 3, 2000)
	if low < 1700 || low > 2100 {
		t.Fatalf("ONOS below saturation: %.0f FLOW_MOD/s at 2K offered", low)
	}
	high := measure(jury.ONOS, 3, 9000)
	if high < 4000 || high > 5500 {
		t.Fatalf("ONOS saturation: %.0f FLOW_MOD/s, want ~4.9K", high)
	}
	// ODL collapses with cluster size (Fig. 4g): n=5 caps ~222/s.
	odl := measure(jury.ODL, 5, 800)
	if odl < 150 || odl > 300 {
		t.Fatalf("ODL n=5 saturation: %.0f FLOW_MOD/s, want ~222", odl)
	}
}

func TestJuryThroughputOverheadSmall(t *testing.T) {
	measure := func(enable bool, k int) float64 {
		sim, err := jury.New(jury.Config{Seed: 5, Kind: jury.ONOS, ClusterSize: 7, EnableJury: enable, K: k})
		if err != nil {
			t.Fatal(err)
		}
		sim.Boot()
		start := sim.Now()
		until := start + 5*time.Second
		sim.Driver.LocalPairs = true
		sim.Driver.Start(workload.ConstantRate(4000), until)
		if err := sim.Run(6 * time.Second); err != nil {
			t.Fatal(err)
		}
		return sim.FlowMods.MeanRate(start, until)
	}
	base := measure(false, 0)
	withJury := measure(true, 6)
	drop := (base - withJury) / base
	if drop > 0.15 {
		t.Fatalf("JURY throughput drop %.1f%% (base %.0f, jury %.0f), paper reports <11%%", drop*100, base, withJury)
	}
}

func TestDetectionTimeGrowsWithK(t *testing.T) {
	p95 := func(k int) time.Duration {
		sim, err := jury.New(jury.Config{
			Seed: 7, Kind: jury.ONOS, ClusterSize: 7, EnableJury: true, K: k,
			ValidationTimeout: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Boot()
		until := sim.Now() + 6*time.Second
		sim.Driver.LocalPairs = true
		sim.Driver.Start(workload.SquareBurst(1500, 5500, 2*time.Second, 0.35), until)
		if err := sim.Run(7 * time.Second); err != nil {
			t.Fatal(err)
		}
		return sim.Validator().DetectionsExternal.Percentile(95)
	}
	k2, k6 := p95(2), p95(6)
	if k6 <= k2 {
		t.Fatalf("p95 detection: k=2 %v vs k=6 %v — must grow with k (Fig. 4a)", k2, k6)
	}
}

func TestCrashFailoverKeepsClusterWorking(t *testing.T) {
	sim, err := jury.New(jury.Config{Seed: 9, Kind: jury.ONOS, ClusterSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	governed := sim.Controller(2).Governed()
	if len(governed) == 0 {
		t.Fatal("C2 governs nothing")
	}
	sim.Controller(2).Crash()
	// The dead C2 keeps its switches until the failure detector fires.
	if err := sim.Run(controller.FailureDetectionDelay - time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, d := range governed {
		if master, ok := sim.Members.Master(d); !ok || master != store.NodeID(2) {
			t.Fatalf("switch %v failed over inside the detection window", d)
		}
	}
	if err := sim.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, d := range governed {
		if master, ok := sim.Members.Master(d); !ok || master == store.NodeID(2) {
			t.Fatalf("switch %v did not fail over", d)
		}
	}
	before := sim.FlowMods.Total()
	until := sim.Now() + 3*time.Second
	sim.Driver.Start(workload.ConstantRate(100), until)
	if err := sim.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sim.FlowMods.Total() == before {
		t.Fatal("no forwarding after failover")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := jury.New(jury.Config{ClusterSize: -1}); err == nil {
		t.Fatal("negative cluster size accepted")
	}
	if _, err := jury.New(jury.Config{ClusterSize: 3, EnableJury: true, K: 5}); err == nil {
		t.Fatal("k > n-1 accepted")
	}
	// Defaults fill in.
	sim, err := jury.New(jury.Config{EnableJury: true})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Config.ClusterSize != 7 || sim.Config.K != 6 {
		t.Fatalf("defaults = n%d k%d", sim.Config.ClusterSize, sim.Config.K)
	}
	if sim.Config.ValidationTimeout == 0 {
		t.Fatal("no default timeout")
	}
}

func TestTopologyOptions(t *testing.T) {
	for _, topoKind := range []jury.TopologyKind{jury.Linear24, jury.ThreeTier, jury.SingleSwitch} {
		sim, err := jury.New(jury.Config{Seed: 1, Topology: topoKind, ClusterSize: 3})
		if err != nil {
			t.Fatalf("topology %v: %v", topoKind, err)
		}
		sim.Boot()
		if sim.Topo.NumSwitches() == 0 {
			t.Fatalf("topology %v empty", topoKind)
		}
	}
}

func TestReplicationOverheadProportions(t *testing.T) {
	// §VII-B2: inter-controller (store) traffic must dominate JURY's
	// replication+validator traffic in a full-replication deployment.
	sim, err := jury.New(jury.Config{Seed: 11, Kind: jury.ONOS, ClusterSize: 7, EnableJury: true, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	until := sim.Now() + 5*time.Second
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(2000), until)
	if err := sim.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	interController := sim.Store.ReplicationBytes()
	juryBytes := sim.System.ReplicationBytes() + sim.System.ValidatorBytes()
	if juryBytes == 0 || interController == 0 {
		t.Fatal("no traffic accounted")
	}
	if juryBytes >= interController {
		t.Fatalf("JURY traffic (%d B) should not dominate inter-controller traffic (%d B)", juryBytes, interController)
	}
}

func TestBenignTraceModelsLowFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("trace sweep")
	}
	// Each trace runs as a parallel subtest through the sweep-backed
	// batch entry point. The point seed derives from RootSeed and the
	// point parameters — not from subtest scheduling — so results stay
	// identical at any -test.parallel width.
	for _, spec := range workload.Traces() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			res, err := experiment.DetectionBatch(context.Background(),
				[]experiment.DetectionConfig{{
					Kind: jury.ONOS, K: 6,
					Trace:    spec.Name,
					Duration: 10 * time.Second,
				}},
				sweep.Config{RootSeed: 13})
			if err != nil {
				t.Fatal(err)
			}
			r := res[0].Value
			if r.Decided < 100 {
				t.Fatalf("decided only %d", r.Decided)
			}
			if r.FPRate > 0.01 {
				t.Fatalf("%s: false positives %.2f%% (paper: 0.35%%)", spec.Name, r.FPRate*100)
			}
		})
	}
}

func TestAdaptiveTimeoutReducesDetectionLatency(t *testing.T) {
	run := func(adaptive bool) time.Duration {
		sim, err := jury.New(jury.Config{
			Seed: 15, Kind: jury.ONOS, ClusterSize: 3, EnableJury: true, K: 2,
			ValidationTimeout: 500 * time.Millisecond,
			AdaptiveTimeout:   adaptive,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Boot()
		until := sim.Now() + 5*time.Second
		sim.Driver.Start(workload.ConstantRate(100), until)
		if err := sim.Run(6 * time.Second); err != nil {
			t.Fatal(err)
		}
		return sim.Validator().Detections.Percentile(99)
	}
	fixed := run(false)
	adaptive := run(true)
	if adaptive >= fixed {
		t.Fatalf("adaptive p99 %v should beat fixed-timeout p99 %v (timer-bound internal triggers decide sooner)", adaptive, fixed)
	}
}

func TestNonDeterministicActionsNotFlagged(t *testing.T) {
	// Sanity alias for the validator-level behaviour through the façade:
	// benign divergence between replicas must not produce faults. Covered
	// more precisely in internal/core; here we assert no faults leak
	// through under eventual-consistency churn.
	sim, err := jury.New(jury.Config{Seed: 17, Kind: jury.ONOS, ClusterSize: 5, EnableJury: true, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	until := sim.Now() + 4*time.Second
	sim.Driver.Start(workload.ConstantRate(150), until)
	sim.Driver.StartChurn(500*time.Millisecond, 2*time.Second, until)
	if err := sim.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fp := sim.Validator().FalsePositiveRate(); fp > 0.01 {
		t.Fatalf("churny benign run flagged %.2f%%", fp*100)
	}
}

func TestDetectionResultsCarryAttribution(t *testing.T) {
	sim, err := jury.New(jury.Config{Seed: 19, Kind: jury.ONOS, ClusterSize: 3, EnableJury: true, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sawAttribution bool
	sim.Validator().OnResult = func(r core.Result) {
		if r.Trigger != "" && r.Responses > 0 {
			sawAttribution = true
		}
	}
	sim.Boot()
	until := sim.Now() + 2*time.Second
	sim.Driver.Start(workload.ConstantRate(50), until)
	if err := sim.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !sawAttribution {
		t.Fatal("results carry no attribution")
	}
}

func TestJurySurvivesSecondaryCrashes(t *testing.T) {
	sim, err := jury.New(jury.Config{Seed: 33, Kind: jury.ONOS, ClusterSize: 7, EnableJury: true, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	until := sim.Now() + 6*time.Second
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(200), until)
	// Two secondaries fail-stop mid-run: the replicator must keep
	// choosing live secondaries and validation must continue.
	sim.Engine.Schedule(2*time.Second, func() { sim.Controller(6).Crash() })
	sim.Engine.Schedule(3*time.Second, func() { sim.Controller(7).Crash() })
	if err := sim.Run(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	v := sim.Validator()
	if v.Decided() < 500 {
		t.Fatalf("validation stalled after crashes: decided=%d", v.Decided())
	}
	// Triggers in flight at crash time legitimately time out or flag the
	// dead nodes; afterwards the system settles. The bulk must be valid.
	if ratio := float64(v.Valid()) / float64(v.Decided()); ratio < 0.95 {
		t.Fatalf("valid ratio %.2f after crashes", ratio)
	}
	if v.Pending() > 2000 {
		t.Fatalf("validator leaking pending triggers: %d", v.Pending())
	}
}

func TestValidatorPendingBounded(t *testing.T) {
	sim, err := jury.New(jury.Config{Seed: 35, Kind: jury.ONOS, ClusterSize: 3, EnableJury: true, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	until := sim.Now() + 8*time.Second
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(1000), until)
	if err := sim.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Drain: with no new triggers, grace-period entries expire and the
	// pending map returns to (near) empty.
	if err := sim.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p := sim.Validator().Pending(); p > 50 {
		t.Fatalf("pending after drain = %d", p)
	}
}
