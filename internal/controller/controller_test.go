package controller

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// rig is a minimal wired cluster for controller tests.
type rig struct {
	eng     *simnet.Engine
	cluster *store.Cluster
	members *cluster.Membership
	ctrls   []*Controller
	// sent captures southbound messages per controller id.
	sent map[store.NodeID][]EgressWrite
}

func newRig(t *testing.T, n int, switches int, profile Profile) *rig {
	t.Helper()
	eng := simnet.NewEngine(1)
	sc := store.NewCluster(eng, store.DefaultConfig(profile.Consistency))
	var (
		memberIDs []store.NodeID
		ds        []topo.DPID
	)
	for i := 1; i <= n; i++ {
		memberIDs = append(memberIDs, store.NodeID(i))
	}
	for i := 1; i <= switches; i++ {
		ds = append(ds, topo.DPID(i))
	}
	members := cluster.NewMembership(cluster.AnyControllerOneMaster, memberIDs, ds)
	r := &rig{eng: eng, cluster: sc, members: members, sent: make(map[store.NodeID][]EgressWrite)}
	for _, id := range memberIDs {
		node := sc.AddNode(id)
		c := New(eng, id, profile, node, members)
		id := id
		c.AddEgressHook(func(_ *Controller, w *EgressWrite) HookAction {
			r.sent[id] = append(r.sent[id], *w)
			return Proceed
		})
		for _, d := range ds {
			c.downlinks[d] = func(openflow.Message) {}
		}
		r.ctrls = append(r.ctrls, c)
	}
	return r
}

func quietProfile() Profile {
	p := ONOSProfile()
	p.PausePeriod = 0 // deterministic tests
	p.LLDPPeriod = 0
	return p
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) ctrl(id int) *Controller { return r.ctrls[id-1] }

func extCtx(id string, primary store.NodeID) *trigger.Context {
	return &trigger.Context{ID: trigger.ID(id), Kind: trigger.External, Primary: primary}
}

func TestFeaturesReplyWritesSwitchDB(t *testing.T) {
	r := newRig(t, 2, 2, quietProfile())
	c := r.ctrl(1)
	c.HandleSouthbound(1, &openflow.FeaturesReply{DatapathID: 1, Ports: []uint16{1, 2}}, extCtx("t1", 1))
	r.run(t)
	if v, ok := c.Node().Get(store.SwitchDB, topo.DPID(1).String()); !ok || !strings.Contains(v, "connected") {
		t.Fatalf("SwitchDB entry = %q, %v", v, ok)
	}
	if got := c.switchPorts[1]; len(got) != 2 {
		t.Fatalf("ports = %v", got)
	}
}

func TestLLDPWritesBothDirections(t *testing.T) {
	r := newRig(t, 2, 2, quietProfile())
	// Switch 1 → C1, switch 2 → C2; liveness master = C2 (higher id).
	c2 := r.ctrl(2)
	frame := openflow.LLDPPacket(controllerMAC(1), 1, 3)
	pin := &openflow.PacketIn{InPort: 2, Data: frame}
	c2.HandleSouthbound(2, pin, extCtx("t1", 2))
	r.run(t)
	for _, key := range []string{"1:3->2:2", "2:2->1:3"} {
		if v, ok := c2.Node().Get(store.LinksDB, key); !ok || v != "up" {
			t.Fatalf("LinksDB[%s] = %q, %v", key, v, ok)
		}
	}
}

func TestLLDPNonLivenessMasterSkips(t *testing.T) {
	r := newRig(t, 2, 2, quietProfile())
	// C1 (lower id) receives LLDP for cross-governed link: must not write.
	c1 := r.ctrl(1)
	frame := openflow.LLDPPacket(controllerMAC(2), 2, 2)
	c1.HandleSouthbound(1, &openflow.PacketIn{InPort: 3, Data: frame}, extCtx("t1", 1))
	r.run(t)
	if c1.Node().Len(store.LinksDB) != 0 {
		t.Fatal("non-liveness-master wrote LinksDB")
	}
}

func TestLLDPTaintedEvaluatesAsPrimary(t *testing.T) {
	r := newRig(t, 3, 3, quietProfile())
	// Link between switch 1 (C1) and switch 2 (C2): liveness master C2.
	// C3 replays the trigger as a secondary; it must produce C2's writes.
	c3 := r.ctrl(3)
	var captured []CacheWrite
	c3.AddCacheHook(func(_ *Controller, w *CacheWrite) HookAction {
		if w.Ctx.Tainted() {
			captured = append(captured, *w)
			return Suppress
		}
		return Proceed
	})
	frame := openflow.LLDPPacket(controllerMAC(1), 1, 3)
	ctx := extCtx("t1", 2).ReplicaOf()
	c3.HandleSouthbound(2, &openflow.PacketIn{InPort: 2, Data: frame}, ctx)
	r.run(t)
	if len(captured) != 2 {
		t.Fatalf("captured %d writes, want 2 (both directions)", len(captured))
	}
}

func TestLivenessOverrideSuppressesTracking(t *testing.T) {
	r := newRig(t, 2, 2, quietProfile())
	c2 := r.ctrl(2)
	c2.LivenessIDOverride = -1 // rebooted with lower election id
	frame := openflow.LLDPPacket(controllerMAC(1), 1, 3)
	c2.HandleSouthbound(2, &openflow.PacketIn{InPort: 2, Data: frame}, extCtx("t1", 2))
	r.run(t)
	if c2.Node().Len(store.LinksDB) != 0 {
		t.Fatal("overridden liveness master still wrote LinksDB")
	}
}

// TestStaleLinksGoDownInKeyOrder: links whose LLDP refresh is overdue
// together are marked down by one sweep in key order, each write on the
// next trigger ID the controller draws, so which link gets which ID does
// not depend on map visit order.
func TestStaleLinksGoDownInKeyOrder(t *testing.T) {
	p := quietProfile()
	p.LLDPPeriod = 100 * time.Millisecond
	r := newRig(t, 1, 4, p)
	c := r.ctrl(1)
	// Three links, six LinksDB keys, all last seen at time zero.
	for _, l := range []struct {
		src, dst           topo.DPID
		srcPort, dstInPort uint16
	}{{1, 2, 3, 4}, {2, 3, 5, 6}, {3, 4, 7, 8}} {
		frame := openflow.LLDPPacket(controllerMAC(l.src), uint64(l.src), l.srcPort)
		c.HandleSouthbound(l.dst, &openflow.PacketIn{InPort: l.dstInPort, Data: frame}, extCtx("lldp", 1))
	}
	r.run(t)
	var keys []string
	var ids []trigger.ID
	c.AddCacheHook(func(_ *Controller, w *CacheWrite) HookAction {
		if w.Value == "down" {
			keys = append(keys, w.Key)
			ids = append(ids, w.Ctx.ID)
		}
		return Proceed
	})
	r.eng.Schedule(time.Second, c.sweepStaleLinks)
	r.run(t)
	if len(keys) != 6 || !sort.StringsAreSorted(keys) {
		t.Fatalf("down writes for keys %q, want all six in key order", keys)
	}
	seq := func(id trigger.ID) int {
		n, err := strconv.Atoi(string(id)[strings.LastIndexByte(string(id), '-')+1:])
		if err != nil {
			t.Fatalf("trigger ID %q: %v", id, err)
		}
		return n
	}
	for i := 1; i < len(ids); i++ {
		if seq(ids[i]) != seq(ids[i-1])+1 {
			t.Fatalf("down writes drew trigger IDs %q, want consecutive IDs", ids)
		}
	}
}

func TestARPLearnsHostOnEdgePort(t *testing.T) {
	r := newRig(t, 1, 1, quietProfile())
	c := r.ctrl(1)
	mac := topo.HostMAC(1)
	frame := openflow.ARPPacket(openflow.ARPRequest, mac, topo.HostIP(1), openflow.MAC{}, topo.HostIP(2))
	c.HandleSouthbound(1, &openflow.PacketIn{InPort: 1, Data: frame}, extCtx("t1", 1))
	r.run(t)
	if _, ok := c.Node().Get(store.HostDB, mac.String()); !ok {
		t.Fatal("host not learned")
	}
	if v, _ := c.Node().Get(store.ArpDB, topo.HostIP(1).String()); v != mac.String() {
		t.Fatalf("ArpDB = %q", v)
	}
	// Unknown binding: must flood the request.
	found := false
	for _, w := range r.sent[1] {
		if po, ok := w.Msg.(*openflow.PacketOut); ok && po.Actions[0].Port == openflow.PortFlood {
			found = true
		}
	}
	if !found {
		t.Fatal("unknown target not flooded")
	}
}

func TestARPInteriorPortDoesNotLearn(t *testing.T) {
	r := newRig(t, 1, 2, quietProfile())
	c := r.ctrl(1)
	// Teach the controller that (1,3) is a link endpoint.
	c.Node().Write(store.LinksDB, store.OpCreate, LinkKey(topo.Port{DPID: 1, Port: 3}, topo.Port{DPID: 2, Port: 2}), "up", nil)
	mac := topo.HostMAC(1)
	frame := openflow.ARPPacket(openflow.ARPRequest, mac, topo.HostIP(1), openflow.MAC{}, topo.HostIP(2))
	c.HandleSouthbound(1, &openflow.PacketIn{InPort: 3, Data: frame}, extCtx("t1", 1))
	r.run(t)
	if _, ok := c.Node().Get(store.HostDB, mac.String()); ok {
		t.Fatal("host learned from interior port")
	}
}

func TestProxyARPAnswersKnownBinding(t *testing.T) {
	r := newRig(t, 1, 1, quietProfile())
	c := r.ctrl(1)
	target := topo.HostMAC(2)
	c.Node().Write(store.ArpDB, store.OpCreate, topo.HostIP(2).String(), target.String(), nil)
	mac := topo.HostMAC(1)
	frame := openflow.ARPPacket(openflow.ARPRequest, mac, topo.HostIP(1), openflow.MAC{}, topo.HostIP(2))
	c.HandleSouthbound(1, &openflow.PacketIn{InPort: 1, Data: frame}, extCtx("t1", 1))
	r.run(t)
	var reply *openflow.PacketOut
	for _, w := range r.sent[1] {
		if po, ok := w.Msg.(*openflow.PacketOut); ok {
			if pf, err := openflow.ParsePacket(po.Data, 0); err == nil && pf.ARPOp == openflow.ARPReply {
				reply = po
			}
		}
	}
	if reply == nil {
		t.Fatal("no proxy ARP reply")
	}
	pf, _ := openflow.ParsePacket(reply.Data, 0)
	if pf.EthSrc != target || pf.EthDst != mac {
		t.Fatalf("reply addresses wrong: %v -> %v", pf.EthSrc, pf.EthDst)
	}
}

// seedTwoSwitchTopology gives every controller knowledge of hosts h1@1:1,
// h2@2:1 and the 1<->2 link.
func seedTwoSwitchTopology(r *rig) {
	link := LinkKey(topo.Port{DPID: 1, Port: 3}, topo.Port{DPID: 2, Port: 2})
	rlink := LinkKey(topo.Port{DPID: 2, Port: 2}, topo.Port{DPID: 1, Port: 3})
	h1 := hostRecord{MAC: topo.HostMAC(1).String(), IP: topo.HostIP(1).String(), DPID: 1, Port: 1}
	h2 := hostRecord{MAC: topo.HostMAC(2).String(), IP: topo.HostIP(2).String(), DPID: 2, Port: 1}
	n := r.ctrl(1).Node()
	n.Write(store.LinksDB, store.OpCreate, link, "up", nil)
	n.Write(store.LinksDB, store.OpCreate, rlink, "up", nil)
	n.Write(store.EdgesDB, store.OpCreate, h1.MAC, h1.encode(), nil)
	n.Write(store.EdgesDB, store.OpCreate, h2.MAC, h2.encode(), nil)
	r.eng.RunUntilIdle()
}

func TestReactiveForwardingInstallsHopRule(t *testing.T) {
	r := newRig(t, 2, 2, quietProfile())
	seedTwoSwitchTopology(r)
	c1 := r.ctrl(1)
	frame := openflow.TCPPacket(topo.HostMAC(1), topo.HostMAC(2), topo.HostIP(1), topo.HostIP(2), 1000, 80, 0x02, 0)
	c1.HandleSouthbound(1, &openflow.PacketIn{InPort: 1, Data: frame}, extCtx("t1", 1))
	r.run(t)
	// One rule in FlowsDB for switch 1 pointing at port 3 (toward sw2).
	keys := c1.Node().Keys(store.FlowsDB)
	if len(keys) != 1 {
		t.Fatalf("FlowsDB entries = %d, want 1 (hop-by-hop)", len(keys))
	}
	v, _ := c1.Node().Get(store.FlowsDB, keys[0])
	rule, err := DecodeFlowRule(v)
	if err != nil {
		t.Fatal(err)
	}
	if rule.DPID != 1 || rule.Actions[0].Port != 3 {
		t.Fatalf("rule = %+v", rule)
	}
	// The triggering packet was released via PACKET_OUT out port 3.
	var released bool
	for _, w := range r.sent[1] {
		if po, ok := w.Msg.(*openflow.PacketOut); ok && po.Actions[0].Port == 3 {
			released = true
		}
	}
	if !released {
		t.Fatal("triggering packet not released")
	}
}

func TestForwardingUnknownDstFloods(t *testing.T) {
	r := newRig(t, 1, 1, quietProfile())
	c := r.ctrl(1)
	frame := openflow.TCPPacket(topo.HostMAC(1), topo.HostMAC(9), topo.HostIP(1), topo.HostIP(9), 1, 2, 0, 0)
	c.HandleSouthbound(1, &openflow.PacketIn{InPort: 1, Data: frame}, extCtx("t1", 1))
	r.run(t)
	if c.Node().Len(store.FlowsDB) != 0 {
		t.Fatal("rule installed for unknown destination")
	}
	if len(r.sent[1]) != 1 {
		t.Fatalf("sent = %d", len(r.sent[1]))
	}
}

func TestMasterIssuesFlowModOnFlowsDBEvent(t *testing.T) {
	r := newRig(t, 2, 2, quietProfile())
	// C1 writes a rule for switch 2 (mastered by C2): C2 must emit the
	// FLOW_MOD (remote-switch programming via the shared store, §II-A1).
	rule := FlowRule{
		DPID:     2,
		Match:    openflow.ExactDst(topo.HostMAC(2)),
		Priority: 5,
		Actions:  []openflow.Action{openflow.Output(1)},
		Command:  uint16(openflow.FlowAdd),
		Trigger:  "t9",
		Origin:   1,
	}
	r.ctrl(1).Node().WriteTagged(store.FlowsDB, store.OpCreate, rule.Key(), rule.Encode(), "t9", nil)
	r.run(t)
	var c2FlowMods int
	for _, w := range r.sent[2] {
		if _, ok := w.Msg.(*openflow.FlowMod); ok {
			c2FlowMods++
			if w.Ctx == nil || w.Ctx.ID != "t9" {
				t.Fatalf("flow mod ctx = %+v", w.Ctx)
			}
		}
	}
	if c2FlowMods != 1 {
		t.Fatalf("C2 emitted %d FLOW_MODs, want 1", c2FlowMods)
	}
	for _, w := range r.sent[1] {
		if _, ok := w.Msg.(*openflow.FlowMod); ok {
			t.Fatal("non-master emitted FLOW_MOD")
		}
	}
}

func TestFlowRemovedDeletesCacheEntry(t *testing.T) {
	r := newRig(t, 1, 1, quietProfile())
	c := r.ctrl(1)
	rule := FlowRule{DPID: 1, Match: openflow.ExactDst(topo.HostMAC(2)), Priority: 5}
	c.Node().Write(store.FlowsDB, store.OpCreate, rule.Key(), rule.Encode(), nil)
	r.run(t)
	c.HandleSouthbound(1, &openflow.FlowRemoved{
		Match:    rule.Match,
		Priority: rule.Priority,
		Reason:   openflow.RemovedIdleTimeout,
	}, extCtx("t2", 1))
	r.run(t)
	if c.Node().Len(store.FlowsDB) != 0 {
		t.Fatal("expired rule not deleted from FlowsDB")
	}
}

func TestRESTInstallWritesTaggedRule(t *testing.T) {
	r := newRig(t, 1, 1, quietProfile())
	c := r.ctrl(1)
	rule := FlowRule{DPID: 1, Match: openflow.MatchAll(), Priority: 1, Actions: []openflow.Action{openflow.Output(1)}}
	c.InstallFlowREST(rule, extCtx("rest-1", 1))
	r.run(t)
	keys := c.Node().Keys(store.FlowsDB)
	if len(keys) != 1 {
		t.Fatalf("FlowsDB = %d entries", len(keys))
	}
	v, _ := c.Node().Get(store.FlowsDB, keys[0])
	got, _ := DecodeFlowRule(v)
	if got.Trigger != "rest-1" || got.Origin != 1 {
		t.Fatalf("attribution = %+v", got)
	}
}

func TestRESTDeleteMapsToCacheDelete(t *testing.T) {
	r := newRig(t, 1, 1, quietProfile())
	c := r.ctrl(1)
	rule := FlowRule{DPID: 1, Match: openflow.MatchAll(), Priority: 1}
	c.Node().Write(store.FlowsDB, store.OpCreate, rule.Key(), rule.Encode(), nil)
	r.run(t)
	del := rule
	del.Command = uint16(openflow.FlowDelete)
	c.InstallFlowREST(del, extCtx("rest-2", 1))
	r.run(t)
	if c.Node().Len(store.FlowsDB) != 0 {
		t.Fatal("REST delete did not remove the cache entry")
	}
}

func TestInternalInstallHasNoTriggerTag(t *testing.T) {
	r := newRig(t, 1, 1, quietProfile())
	c := r.ctrl(1)
	var tags []string
	c.Node().Subscribe(func(_ store.NodeID, ev store.Event, _ bool) { tags = append(tags, ev.Tag) })
	c.InstallFlowInternal(FlowRule{DPID: 1, Match: openflow.MatchAll(), Priority: 1})
	r.run(t)
	if len(tags) != 1 {
		t.Fatalf("events = %d", len(tags))
	}
	// Internal triggers carry the internal trigger id as the tag; the
	// rule itself is untainted (Trigger field empty).
	v, _ := c.Node().Get(store.FlowsDB, c.Node().Keys(store.FlowsDB)[0])
	rule, _ := DecodeFlowRule(v)
	if rule.Trigger != "" {
		t.Fatalf("internal rule carries trigger %q", rule.Trigger)
	}
}

func TestCacheHookCanMutateAndSuppress(t *testing.T) {
	r := newRig(t, 1, 1, quietProfile())
	c := r.ctrl(1)
	c.AddCacheHook(func(_ *Controller, w *CacheWrite) HookAction {
		if w.Cache == store.LinksDB {
			w.Value = "down"
		}
		if w.Cache == store.SwitchDB {
			return Suppress
		}
		return Proceed
	})
	c.WriteCache(store.LinksDB, store.OpCreate, "k", "up", nil, nil)
	c.WriteCache(store.SwitchDB, store.OpCreate, "s", "connected", nil, nil)
	r.run(t)
	if v, _ := c.Node().Get(store.LinksDB, "k"); v != "down" {
		t.Fatalf("mutation lost: %q", v)
	}
	if _, ok := c.Node().Get(store.SwitchDB, "s"); ok {
		t.Fatal("suppressed write reached the store")
	}
}

func TestPrependHookRunsFirst(t *testing.T) {
	r := newRig(t, 1, 1, quietProfile())
	c := r.ctrl(1)
	var order []string
	c.AddCacheHook(func(_ *Controller, _ *CacheWrite) HookAction {
		order = append(order, "module")
		return Proceed
	})
	c.PrependCacheHook(func(_ *Controller, _ *CacheWrite) HookAction {
		order = append(order, "fault")
		return Proceed
	})
	c.WriteCache(store.HostDB, store.OpCreate, "k", "v", nil, nil)
	if len(order) < 2 || order[0] != "fault" {
		t.Fatalf("hook order = %v", order)
	}
}

// TestReentrantHooksLeaveOuterWriteIntact: the controller reuses its hook
// arguments, so a hook that writes again from inside the chain must not
// change what the rest of the chain, the store or the switch sees of the
// write it was called for.
func TestReentrantHooksLeaveOuterWriteIntact(t *testing.T) {
	r := newRig(t, 1, 2, quietProfile())
	c := r.ctrl(1)
	// One write of each kind first, so the outer writes below run on the
	// reused arguments.
	c.WriteCache(store.HostDB, store.OpCreate, "warm", "v", nil, nil)
	c.sendSouthbound(2, &openflow.Hello{}, nil)
	r.sent[1] = nil
	c.PrependCacheHook(func(c *Controller, w *CacheWrite) HookAction {
		if w.Key == "outer" {
			w.Value = "mutated"
			c.WriteCache(store.HostDB, store.OpCreate, "inner", "v", nil, nil)
		}
		return Proceed
	})
	var seen []CacheWrite
	c.AddCacheHook(func(_ *Controller, w *CacheWrite) HookAction {
		seen = append(seen, *w)
		return Proceed
	})
	outerCtx := extCtx("t1", 1)
	c.WriteCache(store.LinksDB, store.OpCreate, "outer", "up", outerCtx, nil)
	want := []CacheWrite{
		{Cache: store.HostDB, Op: store.OpCreate, Key: "inner", Value: "v"},
		{Cache: store.LinksDB, Op: store.OpCreate, Key: "outer", Value: "mutated", Ctx: outerCtx},
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("cache hooks saw %+v, want %+v", seen, want)
	}

	c.PrependEgressHook(func(c *Controller, w *EgressWrite) HookAction {
		if w.DPID == 1 {
			c.sendSouthbound(2, &openflow.BarrierRequest{XID: 2}, nil)
		}
		return Proceed
	})
	var sent []EgressWrite
	c.OnEgress = func(dpid topo.DPID, msg openflow.Message, ctx *trigger.Context) {
		sent = append(sent, EgressWrite{DPID: dpid, Msg: msg, Ctx: ctx})
	}
	c.sendSouthbound(1, &openflow.BarrierRequest{XID: 1}, outerCtx)
	wantSent := []EgressWrite{
		{DPID: 2, Msg: &openflow.BarrierRequest{XID: 2}},
		{DPID: 1, Msg: &openflow.BarrierRequest{XID: 1}, Ctx: outerCtx},
	}
	if !reflect.DeepEqual(r.sent[1], wantSent) {
		t.Errorf("egress hooks saw %+v, want %+v", r.sent[1], wantSent)
	}
	if !reflect.DeepEqual(sent, wantSent) {
		t.Errorf("OnEgress saw %+v, want %+v", sent, wantSent)
	}

	r.run(t)
	if v, _ := c.Node().Get(store.LinksDB, "outer"); v != "mutated" {
		t.Errorf("outer write stored %q, want the hook's mutation", v)
	}
	if v, _ := c.Node().Get(store.HostDB, "inner"); v != "v" {
		t.Errorf("inner write stored %q, want v", v)
	}
}

// TestCrashStopsProcessing pins the crash model: the controller stops
// processing at once, but the cluster marks it dead, and fails its
// switches over, only after FailureDetectionDelay.
func TestCrashStopsProcessing(t *testing.T) {
	r := newRig(t, 2, 2, quietProfile())
	c := r.ctrl(1)
	governed := c.Governed()
	if len(governed) == 0 {
		t.Fatal("C1 governs nothing")
	}
	c.Crash()
	if !c.Crashed() {
		t.Fatal("not crashed")
	}
	if !r.members.IsAlive(1) {
		t.Fatal("membership updated before the failure-detection delay")
	}
	c.HandleSouthbound(1, &openflow.FeaturesReply{DatapathID: 1}, extCtx("t", 1))
	if err := r.eng.Run(r.eng.Now() + FailureDetectionDelay - time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !r.members.IsAlive(1) || !reflect.DeepEqual(c.Governed(), governed) {
		t.Fatalf("C1 lost mastership inside the detection window: alive=%v governs %v, want %v",
			r.members.IsAlive(1), c.Governed(), governed)
	}
	r.run(t)
	if r.members.IsAlive(1) {
		t.Fatal("membership not updated after the failure-detection delay")
	}
	if len(c.Governed()) != 0 {
		t.Fatalf("dead C1 still governs %v", c.Governed())
	}
	if c.Node().Len(store.SwitchDB) != 0 {
		t.Fatal("crashed controller processed a trigger")
	}
}

func TestTimingFaultDelaysProcessing(t *testing.T) {
	r := newRig(t, 1, 1, quietProfile())
	c := r.ctrl(1)
	c.SetExtraDelay(50*time.Millisecond, 0)
	var doneAt time.Duration
	c.OnProcessed = func(_ topo.DPID, _ openflow.Message, _ *trigger.Context) { doneAt = r.eng.Now() }
	c.HandleSouthbound(1, &openflow.FeaturesReply{DatapathID: 1}, extCtx("t", 1))
	r.run(t)
	if doneAt < 50*time.Millisecond {
		t.Fatalf("processed at %v, want >= 50ms", doneAt)
	}
}

func TestGCPauseStallsJobs(t *testing.T) {
	p := quietProfile()
	p.PausePeriod = 10 * time.Millisecond
	p.PauseMin = 5 * time.Millisecond
	p.PauseMax = 6 * time.Millisecond
	r := newRig(t, 1, 1, p)
	c := r.ctrl(1)
	stalled := 0
	for i := 0; i < 200; i++ {
		r.eng.Schedule(time.Duration(i)*time.Millisecond, func() {
			if c.pauseDelay() > 0 {
				stalled++
			}
		})
	}
	r.run(t)
	if stalled == 0 {
		t.Fatal("no pause stalls observed")
	}
}

func TestServiceClassSelection(t *testing.T) {
	r := newRig(t, 1, 1, quietProfile())
	c := r.ctrl(1)
	arp := &openflow.PacketIn{Data: openflow.ARPPacket(openflow.ARPRequest, topo.HostMAC(1), topo.HostIP(1), openflow.MAC{}, topo.HostIP(2))}
	ip := &openflow.PacketIn{Data: openflow.TCPPacket(topo.HostMAC(1), topo.HostMAC(2), topo.HostIP(1), topo.HostIP(2), 1, 2, 0, 0)}
	if got := c.classMean(arp); got != c.profile.ARPService {
		t.Fatalf("ARP class = %v", got)
	}
	if got := c.classMean(ip); got != c.profile.FlowSetupService {
		t.Fatalf("IPv4 class = %v", got)
	}
}

func TestFlowRuleRoundTrip(t *testing.T) {
	rule := FlowRule{
		DPID:        3,
		Match:       openflow.ExactSrcDst(topo.HostMAC(1), topo.HostMAC(2)),
		Priority:    10,
		Actions:     []openflow.Action{openflow.Output(4)},
		IdleTimeout: 10,
		Command:     uint16(openflow.FlowAdd),
		Trigger:     "τ1",
		Origin:      2,
	}
	got, err := DecodeFlowRule(rule.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != rule.Key() {
		t.Fatal("key not stable across round trip")
	}
	fm := got.FlowMod(7)
	if fm.XID != 7 || fm.Priority != 10 || fm.Actions[0].Port != 4 {
		t.Fatalf("flow mod = %+v", fm)
	}
}

func TestDecodeFlowRuleRejectsGarbage(t *testing.T) {
	if _, err := DecodeFlowRule("not json"); err == nil {
		t.Fatal("expected error")
	}
}

func TestLinkKeyRoundTrip(t *testing.T) {
	src := topo.Port{DPID: 12, Port: 3}
	dst := topo.Port{DPID: 7, Port: 2}
	s, d, err := parseLinkKey(LinkKey(src, dst))
	if err != nil {
		t.Fatal(err)
	}
	if s != src || d != dst {
		t.Fatalf("round trip: %v %v", s, d)
	}
	if _, _, err := parseLinkKey("bogus"); err == nil {
		t.Fatal("expected parse error")
	}
}

// sscanfLinkKey is the reference parseLinkKey must match: the
// fmt.Sscanf call it replaced.
func sscanfLinkKey(key string) (src, dst topo.Port, err error) {
	var s1, p1, s2, p2 uint64
	if _, err = fmt.Sscanf(key, "%d:%d->%d:%d", &s1, &p1, &s2, &p2); err != nil {
		return topo.Port{}, topo.Port{}, err
	}
	return topo.Port{DPID: topo.DPID(s1), Port: uint16(p1)},
		topo.Port{DPID: topo.DPID(s2), Port: uint16(p2)}, nil
}

// FuzzParseLinkKey is a differential test: the hand parser accepts and
// rejects exactly the keys fmt.Sscanf(key, "%d:%d->%d:%d") does, and
// yields the same ports. The seeds run as a table under plain go test.
//
//	go test -run '^$' -fuzz FuzzParseLinkKey -fuzztime=10s ./internal/controller
func FuzzParseLinkKey(f *testing.F) {
	for _, key := range []string{
		"12:3->7:2", "0:0->0:0", "18446744073709551615:65535->1:1",
		"18446744073709551616:1->2:3", "1:65536->2:70000", "007:08->9:010",
		" 1: 2-> 3:\t4", "1 :2->3:4", "1:2 ->3:4", "1:2-> 3:4 trailing",
		"1:2->3:4->5:6", "\u00a01:2->3:\u30004", "\u200b1:2->3:4", "\r1:2->3:4",
		"\n1:2->3:4", "1:2->3:\r\n4", "\xc21:2->3:4", "+1:2->3:4", "-1:2->3:4",
		"1_0:2->3:4", "1:2->3", "1:2->3:", "1:2-3:4", "1:2>3:4", "", "bogus",
	} {
		f.Add(key)
	}
	f.Fuzz(func(t *testing.T, key string) {
		gs, gd, gerr := parseLinkKey(key)
		ws, wd, werr := sscanfLinkKey(key)
		if (gerr == nil) != (werr == nil) || gs != ws || gd != wd {
			t.Fatalf("parseLinkKey(%q) = %v, %v, %v; Sscanf gives %v, %v, %v", key, gs, gd, gerr, ws, wd, werr)
		}
	})
}

func TestParseMAC(t *testing.T) {
	mac := topo.HostMAC(300)
	got, err := ParseMAC(mac.String())
	if err != nil || got != mac {
		t.Fatalf("got %v, %v", got, err)
	}
	for _, bad := range []string{"", "xx", "00:00:00:00:00", "zz:00:00:00:00:00", "00-00-00-00-00-00"} {
		if _, err := ParseMAC(bad); err == nil {
			t.Fatalf("ParseMAC(%q) succeeded", bad)
		}
	}
}

func TestProactiveForwardingInstallsDestRules(t *testing.T) {
	p := quietProfile()
	p.ProactiveForwarding = true
	r := newRig(t, 1, 2, p)
	c := r.ctrl(1)
	// The controller knows both switches and the link between them.
	c.Node().Write(store.SwitchDB, store.OpCreate, topo.DPID(1).String(), "connected", nil)
	c.Node().Write(store.SwitchDB, store.OpCreate, topo.DPID(2).String(), "connected", nil)
	c.Node().Write(store.LinksDB, store.OpCreate, LinkKey(topo.Port{DPID: 1, Port: 3}, topo.Port{DPID: 2, Port: 2}), "up", nil)
	c.Node().Write(store.LinksDB, store.OpCreate, LinkKey(topo.Port{DPID: 2, Port: 2}, topo.Port{DPID: 1, Port: 3}), "up", nil)
	r.run(t)
	// New host joins at switch 2 port 1.
	mac := topo.HostMAC(5)
	frame := openflow.ARPPacket(openflow.ARPRequest, mac, topo.HostIP(5), openflow.MAC{}, topo.HostIP(1))
	c.HandleSouthbound(2, &openflow.PacketIn{InPort: 1, Data: frame}, extCtx("t1", 1))
	r.run(t)
	// Dest-based rules for both switches.
	count := 0
	for _, key := range c.Node().Keys(store.FlowsDB) {
		v, _ := c.Node().Get(store.FlowsDB, key)
		rule, err := DecodeFlowRule(v)
		if err != nil {
			t.Fatal(err)
		}
		if rule.Match.Equal(openflow.ExactDst(mac)) {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("proactive rules = %d, want 2", count)
	}
}
