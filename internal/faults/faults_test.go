package faults

import (
	"math/rand"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/dataplane"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

func newCtrl(t *testing.T) (*simnet.Engine, *controller.Controller, *[]controller.EgressWrite) {
	t.Helper()
	eng := simnet.NewEngine(1)
	sc := store.NewCluster(eng, store.DefaultConfig(store.Eventual))
	members := cluster.NewMembership(cluster.AnyControllerOneMaster,
		[]store.NodeID{1}, []topo.DPID{1})
	p := controller.ONOSProfile()
	p.PausePeriod = 0
	p.LLDPPeriod = 0
	c := controller.New(eng, 1, p, sc.AddNode(1), members)
	var sent []controller.EgressWrite
	c.AddEgressHook(func(_ *controller.Controller, w *controller.EgressWrite) controller.HookAction {
		sent = append(sent, *w)
		return controller.Proceed
	})
	c.ConnectSwitch(1, func(openflow.Message) {})
	return eng, c, &sent
}

func TestDatabaseLockingSuppressesSwitchDB(t *testing.T) {
	eng, c, _ := newCtrl(t)
	f := InjectDatabaseLocking(c)
	c.WriteCache(store.SwitchDB, store.OpCreate, "k", "v", nil, nil)
	c.WriteCache(store.HostDB, store.OpCreate, "h", "v", nil, nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Node().Get(store.SwitchDB, "k"); ok {
		t.Fatal("SwitchDB write not suppressed")
	}
	if _, ok := c.Node().Get(store.HostDB, "h"); !ok {
		t.Fatal("unrelated write suppressed")
	}
	if f.Injections() != 1 {
		t.Fatalf("injections = %d", f.Injections())
	}
}

func TestLinkFailureFlipsValue(t *testing.T) {
	eng, c, _ := newCtrl(t)
	f := InjectLinkFailure(c)
	ctx := &trigger.Context{ID: "τ", Kind: trigger.External, Primary: 1}
	c.WriteCache(store.LinksDB, store.OpCreate, "1:1->2:2", "up", ctx, nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Node().Get(store.LinksDB, "1:1->2:2"); v != "down" {
		t.Fatalf("value = %q, want flipped to down", v)
	}
	if f.Injections() != 1 {
		t.Fatal("injection not counted")
	}
}

func TestFlowModDropEveryNth(t *testing.T) {
	eng, c, sent := newCtrl(t)
	InjectFlowModDrop(c, 2) // drop every 2nd
	for i := 0; i < 4; i++ {
		rule := controller.FlowRule{DPID: 1, Match: openflow.ExactDst(topo.HostMAC(i + 1)), Priority: 10,
			Actions: []openflow.Action{openflow.Output(1)}, Command: uint16(openflow.FlowAdd), Origin: 1}
		c.Node().Write(store.FlowsDB, store.OpCreate, rule.Key(), rule.Encode(), nil)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	flowMods := 0
	for _, w := range *sent {
		if _, ok := w.Msg.(*openflow.FlowMod); ok {
			flowMods++
		}
	}
	if flowMods != 2 {
		t.Fatalf("flow mods sent = %d, want 2 of 4", flowMods)
	}
}

func TestUndesirableFlowModRewritesActions(t *testing.T) {
	eng, c, sent := newCtrl(t)
	InjectUndesirableFlowMod(c)
	rule := controller.FlowRule{DPID: 1, Match: openflow.ExactDst(topo.HostMAC(1)), Priority: 10,
		Actions: []openflow.Action{openflow.Output(1)}, Command: uint16(openflow.FlowAdd), Origin: 1}
	c.Node().Write(store.FlowsDB, store.OpCreate, rule.Key(), rule.Encode(), nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for _, w := range *sent {
		if fm, ok := w.Msg.(*openflow.FlowMod); ok {
			if len(fm.Actions) != 0 {
				t.Fatalf("actions = %v, want drop-all", fm.Actions)
			}
			return
		}
	}
	t.Fatal("no FLOW_MOD observed")
}

func TestIncorrectFlowModFire(t *testing.T) {
	eng, c, _ := newCtrl(t)
	sw := dataplane.NewSwitch(eng, 1)
	sw.SetPorts([]uint16{1})
	f := InjectIncorrectFlowMod(c, sw)
	if !sw.AcceptInvalidMatch {
		t.Fatal("switch not made permissive")
	}
	f.Fire()
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if f.Injections() != 1 {
		t.Fatal("fire not counted")
	}
	keys := c.Node().Keys(store.FlowsDB)
	if len(keys) != 1 {
		t.Fatalf("FlowsDB = %d", len(keys))
	}
	v, _ := c.Node().Get(store.FlowsDB, keys[0])
	rule, err := controller.DecodeFlowRule(v)
	if err != nil {
		t.Fatal(err)
	}
	if rule.Match.HierarchyValid() {
		t.Fatal("installed rule should violate the match hierarchy")
	}
}

func TestFlowDeletionFailure(t *testing.T) {
	eng, c, _ := newCtrl(t)
	InjectFlowDeletionFailure(c)
	rule := controller.FlowRule{DPID: 1, Match: openflow.MatchAll(), Priority: 1}
	c.Node().Write(store.FlowsDB, store.OpCreate, rule.Key(), rule.Encode(), nil)
	ctx := &trigger.Context{ID: "rest", Kind: trigger.External, Primary: 1}
	c.WriteCache(store.FlowsDB, store.OpDelete, rule.Key(), "", ctx, nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if c.Node().Len(store.FlowsDB) != 1 {
		t.Fatal("delete was not dropped")
	}
}

func TestLinkDetectionInconsistentDropsSome(t *testing.T) {
	eng, c, _ := newCtrl(t)
	rng := rand.New(rand.NewSource(5))
	f := InjectLinkDetectionInconsistent(c, rng, 50)
	for i := 0; i < 100; i++ {
		c.WriteCache(store.LinksDB, store.OpUpdate, "k", "up", nil, nil)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if f.Injections() == 0 || f.Injections() == 100 {
		t.Fatalf("drops = %d, want some but not all", f.Injections())
	}
}

func TestCrashFault(t *testing.T) {
	_, c, _ := newCtrl(t)
	f := InjectCrash(c)
	if c.Crashed() {
		t.Fatal("crashed before fire")
	}
	f.Fire()
	if !c.Crashed() {
		t.Fatal("fire did not crash")
	}
}

func TestTimingDelayFault(t *testing.T) {
	eng, c, _ := newCtrl(t)
	f := InjectTimingDelay(c, 30*time.Millisecond, 0)
	var at time.Duration
	c.OnProcessed = func(topo.DPID, openflow.Message, *trigger.Context) { at = eng.Now() }
	c.HandleSouthbound(1, &openflow.Hello{}, &trigger.Context{ID: "τ", Primary: 1})
	c.WriteCache(store.HostDB, store.OpCreate, "k", "v", nil, nil)
	c.WriteCache(store.HostDB, store.OpCreate, "r", "v", &trigger.Context{ID: "ρ", Primary: 2, Replica: true}, nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if at < 30*time.Millisecond {
		t.Fatalf("processed at %v", at)
	}
	if f.Injections() != 1 {
		t.Fatalf("injections = %d, want 1 (the primary write only)", f.Injections())
	}
}

func TestByzantineCorruption(t *testing.T) {
	eng, c, _ := newCtrl(t)
	rng := rand.New(rand.NewSource(5))
	f := InjectByzantineCorruption(c, rng, 100)
	c.WriteCache(store.HostDB, store.OpCreate, "k", "clean", nil, nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Node().Get(store.HostDB, "k"); v == "clean" {
		t.Fatal("value not corrupted at 100%")
	}
	if f.Injections() != 1 {
		t.Fatal("not counted")
	}
}

func TestPendingAddFault(t *testing.T) {
	eng, c, _ := newCtrl(t)
	sw := dataplane.NewSwitch(eng, 1)
	f := InjectPendingAdd(c, sw)
	if !sw.HoldPendingAdd {
		t.Fatal("switch flag not set")
	}
	rule := controller.FlowRule{DPID: 1, Match: openflow.ExactDst(topo.HostMAC(1)), Priority: 10,
		Actions: []openflow.Action{openflow.Output(1)}, Command: uint16(openflow.FlowAdd), Origin: 1}
	c.Node().Write(store.FlowsDB, store.OpCreate, rule.Key(), rule.Encode(), nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if f.Injections() != 1 {
		t.Fatalf("injections = %d, want 1 (the flow add sent to the held switch)", f.Injections())
	}
}

func TestMasterElectionOverride(t *testing.T) {
	_, c, _ := newCtrl(t)
	f := InjectMasterElection(c)
	if c.LivenessIDOverride != store.NodeID(-1) {
		t.Fatal("override not set")
	}
	f.Fire() // reactive: nothing to fire, the override stays
	if c.LivenessIDOverride != store.NodeID(-1) {
		t.Fatal("Fire cleared the override")
	}
}

// TestFaultStringAndActivation pins that a fault is described and is
// active from the moment it is injected: there is no separate arming
// step, and the first matching write is already perturbed.
func TestFaultStringAndActivation(t *testing.T) {
	eng, c, _ := newCtrl(t)
	f := InjectDatabaseLocking(c)
	if f.String() == "" {
		t.Fatal("empty description")
	}
	c.WriteCache(store.SwitchDB, store.OpCreate, "k", "v", nil, nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if f.Injections() != 1 {
		t.Fatalf("injections = %d right after injection, want 1", f.Injections())
	}
}
