package jury_test

import (
	"strings"
	"testing"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/policy"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/wire"
	"github.com/jurysdn/jury/internal/workload"
)

func TestReportSummarizesRun(t *testing.T) {
	sim, err := jury.New(jury.Config{Seed: 21, Kind: jury.ONOS, ClusterSize: 3, EnableJury: true, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	start := sim.Now()
	until := start + 3*time.Second
	sim.Driver.Start(workload.ConstantRate(100), until)
	if err := sim.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	r := sim.Report(start, until)
	if r.FlowsInjected == 0 || r.PacketInRate == 0 || r.FlowModRate == 0 {
		t.Fatalf("report missing data-plane figures: %+v", r)
	}
	if r.Decided == 0 || r.Valid == 0 {
		t.Fatalf("report missing validation figures: %+v", r)
	}
	if r.InterControllerMbps <= 0 || r.JuryValidatorMbps <= 0 {
		t.Fatalf("report missing traffic figures: %+v", r)
	}
	text := r.String()
	for _, want := range []string{"flows=", "validated=", "detection p50="} {
		if !strings.Contains(text, want) {
			t.Fatalf("report text missing %q:\n%s", want, text)
		}
	}
	if cdf := sim.DetectionCDF(10); len(cdf) != 10 {
		t.Fatalf("cdf points = %d", len(cdf))
	}
}

func TestActivePassiveMode(t *testing.T) {
	sim, err := jury.New(jury.Config{
		Seed:        23,
		Kind:        jury.ONOS,
		ClusterSize: 3,
		ClusterMode: cluster.ActivePassive,
	})
	if err != nil {
		t.Fatal(err)
	}
	// All switches mastered by the single active controller.
	for _, sw := range sim.Topo.Switches() {
		if master, _ := sim.Members.Master(sw.DPID); master != store.NodeID(1) {
			t.Fatalf("switch %v mastered by C%d in active-passive", sw.DPID, master)
		}
	}
	sim.Boot()
	until := sim.Now() + 2*time.Second
	sim.Driver.Start(workload.ConstantRate(100), until)
	if err := sim.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sim.FlowMods.Total() == 0 {
		t.Fatal("active controller forwarded nothing")
	}
	// Failover to a passive replica keeps the network alive.
	sim.Controller(1).Crash()
	until = sim.Now() + 2*time.Second
	before := sim.FlowMods.Total()
	sim.Driver.Start(workload.ConstantRate(100), until)
	if err := sim.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sim.FlowMods.Total() == before {
		t.Fatal("no forwarding after active controller crash")
	}
}

func TestPolicyXMLThroughFacade(t *testing.T) {
	doc := `<Policies>
  <Policy allow="No" name="fig3">
    <Controller id="*"/>
    <Action type="Internal"/>
    <Cache name="EdgesDB" entry="*,*" operation="*"/>
    <Destination value="*"/>
  </Policy>
</Policies>`
	policies, err := policy.ParseXML([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := jury.New(jury.Config{
		Seed: 25, Kind: jury.ONOS, ClusterSize: 3, EnableJury: true, K: 2,
		Policies: policies,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	// An administrator proactively rewrites a host's attachment point —
	// exactly what the Fig. 3 policy forbids.
	sim.Controller(2).AdminWriteCache(store.EdgesDB, store.OpUpdate, "00:00:00:00:00:01", `{"dpid":9}`)
	if err := sim.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range sim.Validator().Alarms() {
		if strings.Contains(a.Reason, "fig3") && a.Offender == store.NodeID(2) {
			found = true
		}
	}
	if !found {
		t.Fatalf("Fig. 3 policy did not fire; alarms=%v", sim.Validator().Alarms())
	}
}

func TestRESTInstallThroughFacade(t *testing.T) {
	sim, err := jury.New(jury.Config{Seed: 29, Kind: jury.ONOS, ClusterSize: 3, EnableJury: true, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	target := sim.Controller(1)
	dpid := target.Governed()[0]
	rule := controller.FlowRule{
		DPID:     dpid,
		Match:    openflow.MatchAll(),
		Priority: 50,
		Actions:  nil, // drop rule
	}
	if err := sim.InstallFlowREST(1, rule); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// The rule reached the store and the switch, and the REST trigger was
	// validated without alarms.
	found := false
	for _, key := range target.Node().Keys(store.FlowsDB) {
		v, _ := target.Node().Get(store.FlowsDB, key)
		r, err := controller.DecodeFlowRule(v)
		if err == nil && r.Priority == 50 {
			found = true
		}
	}
	if !found {
		t.Fatal("REST rule missing from FlowsDB")
	}
	sw, _ := sim.Fabric.Switch(dpid)
	swFound := false
	for _, e := range sw.Table() {
		if e.Priority == 50 {
			swFound = true
		}
	}
	if !swFound {
		t.Fatal("REST rule not installed on the switch")
	}
	if sim.Validator().Faults() != 0 {
		t.Fatalf("benign REST install raised alarms: %v", sim.Validator().Alarms())
	}
	if sim.Validator().Decided() == 0 {
		t.Fatal("REST trigger not validated")
	}
}

// TestServeValidatorFacade spins the out-of-band validator service up via
// the public facade and validates one complement over real TCP.
func TestServeValidatorFacade(t *testing.T) {
	srv, err := jury.ServeValidator("127.0.0.1:0", jury.ValidatorServiceConfig{
		ClusterSize:       3,
		K:                 2,
		Switches:          4,
		ValidationTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	send := func(ctrl store.NodeID, kind core.ResponseKind, tainted bool) {
		t.Helper()
		if err := c.Send(core.Response{
			Controller: ctrl,
			Primary:    1,
			Trigger:    "τ-facade",
			Kind:       kind,
			Tainted:    tainted,
			Cache:      store.LinksDB,
			Op:         store.OpCreate,
			Key:        "k",
			Value:      "up",
		}); err != nil {
			t.Fatal(err)
		}
	}
	send(1, core.CacheUpdate, false)
	send(2, core.SecondaryExec, true)
	send(3, core.SecondaryExec, true)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := srv.Stats(); st.Decided == 1 {
			if st.Valid != 1 {
				t.Fatalf("stats = %+v, want 1 valid", st)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("validator never decided the complement")
}
