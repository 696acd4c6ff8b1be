package core

import (
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// coreRig wires n controllers with JURY modules and a validator.
type coreRig struct {
	eng     *simnet.Engine
	members *cluster.Membership
	sys     *System
	ctrls   []*controller.Controller
}

func quietProfile() controller.Profile {
	p := controller.ONOSProfile()
	p.PausePeriod = 0
	p.LLDPPeriod = 0
	return p
}

func newCoreRig(t *testing.T, n, k int, mode ReplicationMode) *coreRig {
	t.Helper()
	eng := simnet.NewEngine(1)
	var (
		ids []store.NodeID
		ds  []topo.DPID
	)
	for i := 1; i <= n; i++ {
		ids = append(ids, store.NodeID(i))
	}
	for i := 1; i <= n; i++ {
		ds = append(ds, topo.DPID(i))
	}
	members := cluster.NewMembership(cluster.AnyControllerOneMaster, ids, ds)
	sc := store.NewCluster(eng, store.DefaultConfig(store.Eventual))
	sys := NewSystem(eng, members, SystemConfig{
		K:    k,
		Mode: mode,
		Validator: ValidatorConfig{
			Timeout: 100 * time.Millisecond,
		},
	})
	r := &coreRig{eng: eng, members: members, sys: sys}
	profile := quietProfile()
	for _, id := range ids {
		node := sc.AddNode(id)
		ctrl := controller.New(eng, id, profile, node, members)
		sys.AttachController(ctrl)
		r.ctrls = append(r.ctrls, ctrl)
	}
	return r
}

func (r *coreRig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestModuleSuppressesSecondarySideEffects(t *testing.T) {
	r := newCoreRig(t, 3, 2, ProxyMode)
	c2 := r.ctrls[1]
	// Replicated FEATURES_REPLY at a secondary: the SwitchDB write must
	// be captured and never reach the store.
	ctx := (&trigger.Context{ID: "τ", Kind: trigger.External, Primary: 1}).ReplicaOf()
	mod, _ := r.sys.Module(2)
	mod.HandleReplicated(1, &openflow.FeaturesReply{DatapathID: 1, Ports: []uint16{1}}, ctx, nil)
	r.run(t)
	if c2.Node().Len(store.SwitchDB) != 0 {
		t.Fatal("secondary side-effect reached the store")
	}
	v := r.sys.Validator()
	if v.Decided() == 0 {
		t.Fatal("validator decided nothing")
	}
}

func TestModuleEmitsExecDoneForNoOp(t *testing.T) {
	r := newCoreRig(t, 3, 2, ProxyMode)
	mod, _ := r.sys.Module(2)
	var got []Response
	// Intercept by wrapping validator OnResult? Instead drive a no-op
	// trigger (Hello) and inspect counters through the validator path:
	// attach a probe validator hook via OnTimeoutResponses.
	r.sys.Validator().OnTimeoutResponses = func(_ trigger.ID, rs []Response) { got = rs }
	ctx := (&trigger.Context{ID: "τ", Kind: trigger.External, Primary: 1}).ReplicaOf()
	mod.HandleReplicated(1, &openflow.Hello{}, ctx, nil)
	r.run(t)
	found := false
	for _, resp := range got {
		if resp.Kind == ExecDone && resp.Controller == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ExecDone observed: %+v", got)
	}
}

func TestModuleDecapsulatesEncapMode(t *testing.T) {
	r := newCoreRig(t, 3, 2, EncapMode)
	mod, _ := r.sys.Module(2)
	inner := &openflow.PacketIn{
		InPort: 1,
		Data:   openflow.ARPPacket(openflow.ARPRequest, topo.HostMAC(1), topo.HostIP(1), openflow.MAC{}, topo.HostIP(2)),
	}
	frame := openflow.EncapsulatePacketIn(inner, openflow.MAC{0xEE})
	ctx := (&trigger.Context{ID: "τ", Kind: trigger.External, Primary: 1}).ReplicaOf()
	mod.HandleReplicated(1, nil, ctx, frame)
	r.run(t)
	if mod.DecapTimes.Count() != 1 {
		t.Fatalf("decap overhead samples = %d", mod.DecapTimes.Count())
	}
	if mod.DecapTimes.Max() <= 0 {
		t.Fatal("decap overhead not modeled")
	}
}

func TestModuleRelaySamplingBoundsResponses(t *testing.T) {
	// n=7, k=2: each cache event must be relayed by exactly k+1 modules.
	r := newCoreRig(t, 7, 2, ProxyMode)
	var cacheRelays int
	r.sys.Validator().OnResult = func(Result) {}
	// Count relays by summing validator messages of kind CacheUpdate:
	// intercept via a wrapper on Submit is not exposed, so count through
	// module byte accounting instead: issue one write and count modules
	// whose validator traffic grew.
	before := make(map[store.NodeID]int64)
	for i := 1; i <= 7; i++ {
		mod, _ := r.sys.Module(store.NodeID(i))
		before[store.NodeID(i)] = mod.ValidatorMessages()
	}
	r.ctrls[0].Node().WriteTagged(store.HostDB, store.OpCreate, "k", "v", "τ9", nil)
	r.run(t)
	for i := 1; i <= 7; i++ {
		mod, _ := r.sys.Module(store.NodeID(i))
		if mod.ValidatorMessages() > before[store.NodeID(i)] {
			cacheRelays++
		}
	}
	if cacheRelays != 3 { // k+1
		t.Fatalf("relaying modules = %d, want k+1 = 3", cacheRelays)
	}
}

func TestModuleRelayAll(t *testing.T) {
	eng := simnet.NewEngine(1)
	ids := []store.NodeID{1, 2, 3, 4}
	members := cluster.NewMembership(cluster.AnyControllerOneMaster, ids, []topo.DPID{1})
	sc := store.NewCluster(eng, store.DefaultConfig(store.Eventual))
	sys := NewSystem(eng, members, SystemConfig{K: 1, RelayAll: true,
		Validator: ValidatorConfig{Timeout: 50 * time.Millisecond}})
	var ctrls []*controller.Controller
	for _, id := range ids {
		ctrl := controller.New(eng, id, quietProfile(), sc.AddNode(id), members)
		sys.AttachController(ctrl)
		ctrls = append(ctrls, ctrl)
	}
	ctrls[0].Node().WriteTagged(store.HostDB, store.OpCreate, "k", "v", "τ", nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	relaying := 0
	for _, id := range ids {
		mod, _ := sys.Module(id)
		if mod.ValidatorMessages() > 0 {
			relaying++
		}
	}
	if relaying != 4 {
		t.Fatalf("relayAll modules = %d, want 4", relaying)
	}
}

func TestReplicatorRoutesPrimaryAndSecondaries(t *testing.T) {
	r := newCoreRig(t, 5, 2, ProxyMode)
	var primaryGot []store.NodeID
	rep := NewReplicator(r.eng, 1, r.members, moduleMap(r.sys, 5),
		func(id store.NodeID, _ topo.DPID, _ openflow.Message, ctx *trigger.Context) {
			if ctx.Replica {
				t.Fatal("primary delivery tainted")
			}
			primaryGot = append(primaryGot, id)
		}, ReplicatorConfig{K: 2, Mode: ProxyMode})
	pin := &openflow.PacketIn{InPort: 1, Data: openflow.TCPPacket(topo.HostMAC(1), topo.HostMAC(2), topo.HostIP(1), topo.HostIP(2), 1, 2, 0, 0)}
	rep.HandleFromSwitch(pin)
	r.run(t)
	master, _ := r.members.Master(1)
	if len(primaryGot) != 1 || primaryGot[0] != master {
		t.Fatalf("primary delivery = %v, want [%d]", primaryGot, master)
	}
	if rep.Triggers() != 1 {
		t.Fatalf("triggers = %d", rep.Triggers())
	}
	if rep.ReplicatedBytes() <= 0 {
		t.Fatal("no replication bytes accounted")
	}
}

func moduleMap(sys *System, n int) map[store.NodeID]*Module {
	out := make(map[store.NodeID]*Module)
	for i := 1; i <= n; i++ {
		if m, ok := sys.Module(store.NodeID(i)); ok {
			out[store.NodeID(i)] = m
		}
	}
	return out
}

func TestReplicatorPicksKRandomSecondaries(t *testing.T) {
	r := newCoreRig(t, 7, 3, ProxyMode)
	rep := NewReplicator(r.eng, 1, r.members, moduleMap(r.sys, 7),
		func(store.NodeID, topo.DPID, openflow.Message, *trigger.Context) {},
		ReplicatorConfig{K: 3})
	primary, _ := r.members.Master(1)
	seen := make(map[store.NodeID]bool)
	for i := 0; i < 50; i++ {
		for _, id := range rep.pickSecondaries(primary) {
			if id == primary {
				t.Fatal("primary picked as secondary")
			}
			seen[id] = true
		}
	}
	if len(seen) != 6 {
		t.Fatalf("random selection covered %d controllers, want all 6 non-primaries", len(seen))
	}
}

func TestReplicatorSkipsDeadSecondaries(t *testing.T) {
	r := newCoreRig(t, 4, 3, ProxyMode)
	r.members.MarkDead(4)
	rep := NewReplicator(r.eng, 1, r.members, moduleMap(r.sys, 4),
		func(store.NodeID, topo.DPID, openflow.Message, *trigger.Context) {},
		ReplicatorConfig{K: 3})
	primary, _ := r.members.Master(1)
	for _, id := range rep.pickSecondaries(primary) {
		if id == 4 {
			t.Fatal("dead controller selected")
		}
	}
}

func TestReplicatorEncapsulatesPacketInsOnly(t *testing.T) {
	r := newCoreRig(t, 3, 2, EncapMode)
	rep := NewReplicator(r.eng, 1, r.members, moduleMap(r.sys, 3),
		func(store.NodeID, topo.DPID, openflow.Message, *trigger.Context) {},
		ReplicatorConfig{K: 2, Mode: EncapMode})
	// PACKET_IN: encapsulated replica; decap overhead recorded.
	pin := &openflow.PacketIn{InPort: 1, Data: openflow.ARPPacket(openflow.ARPRequest, topo.HostMAC(1), topo.HostIP(1), openflow.MAC{}, topo.HostIP(2))}
	rep.HandleFromSwitch(pin)
	r.run(t)
	total := 0
	for i := 1; i <= 3; i++ {
		mod, _ := r.sys.Module(store.NodeID(i))
		total += mod.DecapTimes.Count()
	}
	if total != 2 {
		t.Fatalf("decapsulations = %d, want k=2", total)
	}
}

func TestReplicateREST(t *testing.T) {
	r := newCoreRig(t, 3, 2, ProxyMode)
	rep := NewReplicator(r.eng, 1, r.members, moduleMap(r.sys, 3),
		func(store.NodeID, topo.DPID, openflow.Message, *trigger.Context) {},
		ReplicatorConfig{K: 2})
	var installs []struct {
		id      store.NodeID
		replica bool
	}
	rule := controller.FlowRule{DPID: 1, Match: openflow.MatchAll(), Priority: 1}
	rep.ReplicateREST(1, rule, func(id store.NodeID, _ controller.FlowRule, ctx *trigger.Context) {
		installs = append(installs, struct {
			id      store.NodeID
			replica bool
		}{id, ctx.Replica})
	})
	r.run(t)
	if len(installs) != 3 {
		t.Fatalf("installs = %d, want primary + 2 secondaries", len(installs))
	}
	replicas := 0
	for _, in := range installs {
		if in.replica {
			replicas++
		} else if in.id != 1 {
			t.Fatalf("untainted install at C%d", in.id)
		}
	}
	if replicas != 2 {
		t.Fatalf("replicas = %d", replicas)
	}
	if want := int64(2 * (len(rule.Encode()) + 64)); rep.ReplicatedBytes() != want {
		t.Fatalf("replicated bytes = %d, want k × (encoded rule + 64) = %d", rep.ReplicatedBytes(), want)
	}
}

func TestSystemRequiresControllersBeforeSwitches(t *testing.T) {
	eng := simnet.NewEngine(1)
	members := cluster.NewMembership(cluster.AnyControllerOneMaster, []store.NodeID{1}, []topo.DPID{1})
	sys := NewSystem(eng, members, SystemConfig{K: 0})
	if _, err := sys.AttachSwitch(nil); err == nil {
		t.Fatal("expected error attaching switch before controllers")
	}
}
