package controller

import (
	"fmt"
	"sort"

	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// controllerMAC is the source MAC used for controller-originated LLDP.
func controllerMAC(dpid topo.DPID) openflow.MAC {
	return openflow.MAC{0x02, 0x00, byte(dpid >> 24), byte(dpid >> 16), byte(dpid >> 8), byte(dpid)}
}

// lldpTick emits LLDP probes out of every port of every governed switch
// and sweeps stale links, then reschedules itself.
func (c *Controller) lldpTick() {
	if c.crashed {
		return
	}
	for _, dpid := range c.Governed() {
		ports := c.switchPorts[dpid]
		for _, p := range ports {
			frame := openflow.LLDPPacket(controllerMAC(dpid), uint64(dpid), p)
			c.xid++
			c.sendSouthbound(dpid, &openflow.PacketOut{
				XID:      c.xid,
				BufferID: 0xFFFFFFFF,
				InPort:   openflow.PortNone,
				Actions:  []openflow.Action{openflow.Output(p)},
				Data:     frame,
			}, &trigger.Context{ID: c.alloc.Next(), Kind: trigger.Internal, Primary: c.id})
		}
	}
	c.sweepStaleLinks()
	c.eng.Schedule(c.profile.LLDPPeriod, c.lldpTick)
}

// sweepStaleLinks marks links whose LLDP refresh is overdue as down.
// Stale keys are sorted before acting: each down-write allocates a
// trigger ID, so processing order must not depend on map iteration.
func (c *Controller) sweepStaleLinks() {
	deadline := 3 * c.profile.LLDPPeriod
	now := c.eng.Now()
	var stale []string
	//jurylint:allow maprange -- stale keys are sorted before processing
	for key, seen := range c.linkSeen {
		if now-seen > deadline {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		delete(c.linkSeen, key)
		if v, ok := c.node.Get(store.LinksDB, key); ok && v == "up" {
			c.WriteCache(store.LinksDB, store.OpUpdate, key, "down",
				&trigger.Context{ID: c.alloc.Next(), Kind: trigger.Internal, Primary: c.id}, nil)
		}
	}
}

// handleLLDP implements topology discovery: an LLDP PACKET_IN at (dpid,
// inPort) reveals the link from the probe's origin to that ingress. Link
// liveness is tracked by the governing controller with the higher ID
// (the election the master-election fault of §III-B subverts).
func (c *Controller) handleLLDP(dpid topo.DPID, pf openflow.PacketFields, ctx *trigger.Context) {
	src := topo.Port{DPID: topo.DPID(pf.LLDPChassisID), Port: pf.LLDPPortID}
	dst := topo.Port{DPID: dpid, Port: pf.InPort}
	if src.DPID == 0 {
		return
	}
	// Replicated execution evaluates the election from the primary's
	// perspective so secondaries reproduce the primary's *intended*
	// control sequence (§IV-A(1)).
	self := c.id
	if ctx.Tainted() {
		self = ctx.Primary
	}
	srcMaster, okA := c.members.Master(src.DPID)
	dstMaster, okB := c.members.Master(dst.DPID)
	if okA && okB && srcMaster != dstMaster {
		// Cross-governed link: the governing controller with the higher
		// ID tracks liveness (the election of §III-B).
		myID := self
		if self == c.id && c.LivenessIDOverride != 0 {
			myID = c.LivenessIDOverride
		}
		other := srcMaster
		if other == self {
			other = dstMaster
		}
		if myID < other {
			return // not the liveness master; someone else will write
		}
	}
	// The liveness master records both directions of the symmetric link.
	for _, key := range []string{linkKey(src, dst), linkKey(dst, src)} {
		if !ctx.Tainted() {
			// Replicated execution must not feed the liveness sweep:
			// secondaries see each link only when randomly chosen, so
			// their freshness view would go stale and trigger bogus
			// "down" writes.
			c.linkSeen[key] = c.eng.Now()
		}
		prev, existed := c.node.Get(store.LinksDB, key)
		switch {
		case !existed:
			c.WriteCache(store.LinksDB, store.OpCreate, key, "up", ctx, nil)
		case prev != "up":
			c.WriteCache(store.LinksDB, store.OpUpdate, key, "up", ctx, nil)
		}
	}
}

// handleARP implements host tracking and proxy ARP. Host locations are
// learned only from edge ports: packets arriving on infrastructure ports
// (known link endpoints) are flood-propagated copies whose ingress says
// nothing about the sender's attachment point.
func (c *Controller) handleARP(dpid topo.DPID, pin *openflow.PacketIn, pf openflow.PacketFields, ctx *trigger.Context) {
	interior := c.isLinkPort(dpid, pin.InPort)
	if !interior {
		rec := hostRecord{
			MAC:  pf.EthSrc.String(),
			IP:   pf.ARPSenderIP.String(),
			DPID: dpid,
			Port: pin.InPort,
		}
		key := pf.EthSrc.String()
		encoded := rec.encode()
		newHost := false
		if prev, ok := c.node.Get(store.HostDB, key); !ok {
			newHost = true
			c.WriteCache(store.HostDB, store.OpCreate, key, encoded, ctx, nil)
			c.WriteCache(store.EdgesDB, store.OpCreate, key, encoded, ctx, nil)
		} else if prev != encoded {
			c.WriteCache(store.HostDB, store.OpUpdate, key, encoded, ctx, nil)
			c.WriteCache(store.EdgesDB, store.OpUpdate, key, encoded, ctx, nil)
		}
		if prev, ok := c.node.Get(store.ArpDB, pf.ARPSenderIP.String()); !ok {
			c.WriteCache(store.ArpDB, store.OpCreate, pf.ARPSenderIP.String(), pf.EthSrc.String(), ctx, nil)
		} else if prev != pf.EthSrc.String() {
			c.WriteCache(store.ArpDB, store.OpUpdate, pf.ARPSenderIP.String(), pf.EthSrc.String(), ctx, nil)
		}
		if newHost && c.profile.ProactiveForwarding {
			c.installProactiveRules(rec, ctx)
		}
	}
	switch pf.ARPOp {
	case openflow.ARPRequest:
		c.answerARP(dpid, pin, pf, ctx)
	case openflow.ARPReply:
		c.deliverToHost(pf.EthDst, pin.Data, ctx)
	}
}

// isLinkPort reports whether (dpid, port) is a known inter-switch link
// endpoint, up or down, per this replica's LinksDB.
func (c *Controller) isLinkPort(dpid topo.DPID, port uint16) bool {
	return c.links().endpoints[topo.Port{DPID: dpid, Port: port}]
}

// answerARP proxies a reply when the binding is known, otherwise floods the
// request at the origin switch.
func (c *Controller) answerARP(dpid topo.DPID, pin *openflow.PacketIn, pf openflow.PacketFields, ctx *trigger.Context) {
	targetMACStr, ok := c.node.Get(store.ArpDB, pf.ARPTargetIP.String())
	if ok {
		targetMAC, err := ParseMAC(targetMACStr)
		if err == nil {
			reply := openflow.ARPPacket(openflow.ARPReply, targetMAC, pf.ARPTargetIP, pf.EthSrc, pf.ARPSenderIP)
			c.xid++
			c.sendSouthbound(dpid, &openflow.PacketOut{
				XID:      c.xid,
				BufferID: 0xFFFFFFFF,
				InPort:   openflow.PortNone,
				Actions:  []openflow.Action{openflow.Output(pin.InPort)},
				Data:     reply,
			}, ctx)
			return
		}
	}
	// Unknown binding: flood the request from the origin switch.
	c.xid++
	c.sendSouthbound(dpid, &openflow.PacketOut{
		XID:      c.xid,
		BufferID: 0xFFFFFFFF,
		InPort:   pin.InPort,
		Actions:  []openflow.Action{openflow.Output(openflow.PortFlood)},
		Data:     pin.Data,
	}, ctx)
}

// deliverToHost packet-outs a frame at the attachment point of dst.
func (c *Controller) deliverToHost(dst openflow.MAC, frame []byte, ctx *trigger.Context) {
	rec, ok := c.lookupHost(dst)
	if !ok {
		return
	}
	c.xid++
	c.sendSouthbound(rec.DPID, &openflow.PacketOut{
		XID:      c.xid,
		BufferID: 0xFFFFFFFF,
		InPort:   openflow.PortNone,
		Actions:  []openflow.Action{openflow.Output(rec.Port)},
		Data:     frame,
	}, ctx)
}

// handleForwarding is the reactive forwarding module (the ONOS behaviour,
// and the custom JURY forwarding module for ODL, §VI-C): it installs
// source-destination flow rules along the shortest path and delivers the
// triggering packet.
func (c *Controller) handleForwarding(dpid topo.DPID, pin *openflow.PacketIn, pf openflow.PacketFields, ctx *trigger.Context) {
	rec, ok := c.lookupHost(pf.EthDst)
	if !ok {
		// Destination unknown: flood and hope the reply teaches us.
		c.xid++
		c.sendSouthbound(dpid, &openflow.PacketOut{
			XID:      c.xid,
			BufferID: 0xFFFFFFFF,
			InPort:   pin.InPort,
			Actions:  []openflow.Action{openflow.Output(openflow.PortFlood)},
			Data:     pin.Data,
		}, ctx)
		return
	}
	path := c.pathFromLinksDB(dpid, rec.DPID)
	if path == nil {
		return
	}
	// Hop-by-hop reactive forwarding: install the rule at the switch that
	// missed and forward the packet one hop; downstream switches miss in
	// turn and install their own rules. FLOW_MOD volume therefore tracks
	// PACKET_IN volume one-to-one (Fig. 4f).
	var out uint16
	if len(path) == 1 {
		out = rec.Port
	} else {
		port, ok := c.egressFromLinksDB(dpid, path[1])
		if !ok {
			return
		}
		out = port
	}
	rule := FlowRule{
		DPID:        dpid,
		Match:       openflow.ExactSrcDst(pf.EthSrc, pf.EthDst),
		Priority:    10,
		Actions:     []openflow.Action{openflow.Output(out)},
		IdleTimeout: 10,
		Command:     uint16(openflow.FlowAdd),
		Trigger:     ctxID(ctx),
		Origin:      c.id,
	}
	c.WriteCache(store.FlowsDB, store.OpCreate, rule.Key(), rule.Encode(), ctx, nil)
	// Release the triggering packet along the installed hop.
	c.xid++
	c.sendSouthbound(dpid, &openflow.PacketOut{
		XID:      c.xid,
		BufferID: 0xFFFFFFFF,
		InPort:   pin.InPort,
		Actions:  []openflow.Action{openflow.Output(out)},
		Data:     pin.Data,
	}, ctx)
}

// installProactiveRules is the vanilla-ODL behaviour: upon discovering a
// host, install destination-based rules on every known switch (§VI-C).
func (c *Controller) installProactiveRules(rec hostRecord, ctx *trigger.Context) {
	dstMAC, err := ParseMAC(rec.MAC)
	if err != nil {
		return
	}
	match := openflow.ExactDst(dstMAC)
	for _, key := range c.node.Keys(store.SwitchDB) {
		var raw uint64
		if _, err := fmt.Sscanf(key, "of:%016x", &raw); err != nil {
			continue
		}
		sw := topo.DPID(raw)
		var out uint16
		if sw == rec.DPID {
			out = rec.Port
		} else {
			path := c.pathFromLinksDB(sw, rec.DPID)
			if len(path) < 2 {
				continue
			}
			port, ok := c.egressFromLinksDB(sw, path[1])
			if !ok {
				continue
			}
			out = port
		}
		rule := FlowRule{
			DPID:     sw,
			Match:    match,
			Priority: 5,
			Actions:  []openflow.Action{openflow.Output(out)},
			Command:  uint16(openflow.FlowAdd),
			Trigger:  ctxID(ctx),
			Origin:   c.id,
		}
		c.WriteCache(store.FlowsDB, store.OpCreate, rule.Key(), rule.Encode(), ctx, nil)
	}
}

// hostMemo is one lookupHost decode: the stored EdgesDB value and what it
// decoded to.
type hostMemo struct {
	stored string
	rec    hostRecord
	ok     bool
}

// lookupHost reads a host's attachment from EdgesDB. The decode is
// memoized per MAC and redone only when the stored value changes, so the
// memo holds at most one entry per host ever stored.
func (c *Controller) lookupHost(mac openflow.MAC) (hostRecord, bool) {
	v, ok := c.node.Get(store.EdgesDB, mac.String())
	if !ok {
		return hostRecord{}, false
	}
	if m, hit := c.hosts[mac]; hit && m.stored == v {
		return m.rec, m.ok
	}
	rec, err := decodeHostRecord(v)
	m := hostMemo{stored: v, rec: rec, ok: err == nil}
	c.hosts[mac] = m
	return m.rec, m.ok
}

// linksView is this replica's LinksDB read once, in key order, into the
// forms the forwarding path asks of it. It is built on first use and
// dropped whenever the replica applies a LinksDB event, so it always
// answers as a scan of the current LinksDB would.
type linksView struct {
	// adj lists, per switch, the far end of each of its "up" links, in
	// key order.
	adj map[topo.DPID][]topo.DPID
	// egress maps (from, to) to the source port of the first "up" link
	// from -> to in key order.
	egress map[[2]topo.DPID]uint16
	// endpoints holds both ends of every link, up or down.
	endpoints map[topo.Port]bool
	// paths memoizes pathFromLinksDB per (src, dst), nil results too.
	paths map[[2]topo.DPID][]topo.DPID
}

// links returns the current LinksDB view, building it if a LinksDB event
// dropped it.
func (c *Controller) links() *linksView {
	if c.linksView != nil {
		return c.linksView
	}
	v := &linksView{
		adj:       make(map[topo.DPID][]topo.DPID),
		egress:    make(map[[2]topo.DPID]uint16),
		endpoints: make(map[topo.Port]bool),
		paths:     make(map[[2]topo.DPID][]topo.DPID),
	}
	for _, key := range c.node.Keys(store.LinksDB) {
		s, d, err := parseLinkKey(key)
		if err != nil {
			continue
		}
		v.endpoints[s], v.endpoints[d] = true, true
		if up, _ := c.node.Get(store.LinksDB, key); up != "up" {
			continue
		}
		v.adj[s.DPID] = append(v.adj[s.DPID], d.DPID)
		hop := [2]topo.DPID{s.DPID, d.DPID}
		if _, seen := v.egress[hop]; !seen {
			v.egress[hop] = s.Port
		}
	}
	c.linksView = v
	return v
}

// pathFromLinksDB returns a shortest switch path over this replica's
// "up" LinksDB links. The path is shared with later calls until LinksDB
// changes: callers must not modify it.
func (c *Controller) pathFromLinksDB(src, dst topo.DPID) []topo.DPID {
	v := c.links()
	hop := [2]topo.DPID{src, dst}
	path, ok := v.paths[hop]
	if !ok {
		path = v.shortestPath(src, dst)
		v.paths[hop] = path
	}
	return path
}

// shortestPath is a breadth-first search visiting neighbours in key order.
func (v *linksView) shortestPath(src, dst topo.DPID) []topo.DPID {
	if src == dst {
		return []topo.DPID{src}
	}
	prev := map[topo.DPID]topo.DPID{src: src}
	queue := []topo.DPID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range v.adj[cur] {
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = cur
			if next == dst {
				var rev []topo.DPID
				for at := dst; ; at = prev[at] {
					rev = append(rev, at)
					if at == src {
						break
					}
				}
				out := make([]topo.DPID, len(rev))
				for i, d := range rev {
					out[len(rev)-1-i] = d
				}
				return out
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// egressFromLinksDB finds the port on from that reaches to, per LinksDB.
func (c *Controller) egressFromLinksDB(from, to topo.DPID) (uint16, bool) {
	port, ok := c.links().egress[[2]topo.DPID{from, to}]
	return port, ok
}

func ctxID(ctx *trigger.Context) trigger.ID {
	if ctx == nil {
		return ""
	}
	return ctx.ID
}

// ParseMAC parses the colon-hex MAC form produced by MAC.String.
func ParseMAC(s string) (openflow.MAC, error) {
	var m openflow.MAC
	if len(s) != 17 {
		return openflow.MAC{}, fmt.Errorf("controller: bad MAC %q", s)
	}
	for i := 0; i < 6; i++ {
		hi, ok1 := hexNibble(s[i*3])
		lo, ok2 := hexNibble(s[i*3+1])
		if !ok1 || !ok2 || (i < 5 && s[i*3+2] != ':') {
			return openflow.MAC{}, fmt.Errorf("controller: bad MAC %q", s)
		}
		m[i] = hi<<4 | lo
	}
	return m, nil
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}

// reconcileTick polls governed switches' flow stats, the ONOS-style
// PENDING_ADD → ADDED reconciliation of the appendix.
func (c *Controller) reconcileTick() {
	if c.crashed {
		return
	}
	for _, dpid := range c.Governed() {
		c.xid++
		c.sendSouthbound(dpid, &openflow.FlowStatsRequest{
			XID:     c.xid,
			Match:   openflow.MatchAll(),
			OutPort: openflow.PortNone,
		}, &trigger.Context{ID: c.alloc.Next(), Kind: trigger.Internal, Primary: c.id})
	}
	c.eng.Schedule(c.profile.ReconcilePeriod, c.reconcileTick)
}

// handleFlowStats compares the switch's reported entries against FlowsDB:
// confirmed rules advance to ADDED; rules missing from three consecutive
// polls are marked stuck (the PENDING_ADD symptom an administrator policy
// can flag).
func (c *Controller) handleFlowStats(dpid topo.DPID, m *openflow.FlowStatsReply, ctx *trigger.Context) {
	if !c.members.IsMaster(c.id, dpid) {
		return
	}
	onSwitch := make(map[string]bool, len(m.Flows))
	for _, f := range m.Flows {
		probe := FlowRule{DPID: dpid, Match: f.Match, Priority: f.Priority}
		onSwitch[probe.Key()] = true
	}
	for _, key := range c.node.Keys(store.FlowsDB) {
		value, _ := c.node.Get(store.FlowsDB, key)
		rule, err := DecodeFlowRule(value)
		if err != nil || rule.DPID != dpid {
			continue
		}
		switch {
		case onSwitch[key]:
			delete(c.reconcileMisses, key)
			if rule.State != RuleAdded {
				rule.State = RuleAdded
				c.WriteCache(store.FlowsDB, store.OpUpdate, key, rule.Encode(), ctx, nil)
			}
		case rule.State != RuleStuck:
			c.reconcileMisses[key]++
			if c.reconcileMisses[key] >= 3 {
				rule.State = RuleStuck
				c.WriteCache(store.FlowsDB, store.OpUpdate, key, rule.Encode(), ctx, nil)
			}
		}
	}
}

// handlePortStatus reacts to a switch-reported link change: the master
// marks LinksDB entries touching the failed port as down immediately
// (faster than waiting for LLDP staleness).
func (c *Controller) handlePortStatus(dpid topo.DPID, m *openflow.PortStatus, ctx *trigger.Context) {
	if !m.Down {
		return // link restoration is confirmed by LLDP rediscovery
	}
	if !c.members.IsMaster(c.id, dpid) && !ctx.Tainted() {
		return
	}
	for _, key := range c.node.Keys(store.LinksDB) {
		src, dst, err := parseLinkKey(key)
		if err != nil {
			continue
		}
		touches := (src.DPID == dpid && src.Port == m.Port) || (dst.DPID == dpid && dst.Port == m.Port)
		if !touches {
			continue
		}
		if v, _ := c.node.Get(store.LinksDB, key); v == "up" {
			c.WriteCache(store.LinksDB, store.OpUpdate, key, "down", ctx, nil)
		}
	}
}
