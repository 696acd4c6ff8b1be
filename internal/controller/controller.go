// Package controller implements the clustered SDN controller the paper
// validates: a profile-driven processing pipeline (ONOS-like and ODL-like),
// topology discovery via LLDP, host tracking via ARP, reactive and
// proactive forwarding, a northbound API, and the cache-write/egress seams
// that both the fault injector and JURY's controller module hook into.
package controller

import (
	"fmt"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// HookAction is the verdict of a cache or egress hook.
type HookAction uint8

// Hook verdicts.
const (
	// Proceed lets the operation continue (possibly mutated).
	Proceed HookAction = iota + 1
	// Suppress drops the operation after the hook observed it.
	Suppress
)

// CacheWrite is a pending controller-wide cache mutation presented to
// hooks. Hooks may mutate fields (fault injection) or suppress the write
// (JURY side-effect suppression at secondaries).
type CacheWrite struct {
	Cache store.CacheName
	Op    store.Op
	Key   string
	Value string
	Ctx   *trigger.Context
}

// CacheHook observes/mutates cache writes before they reach the store.
// w is valid only during the call: the controller reuses it.
type CacheHook func(c *Controller, w *CacheWrite) HookAction

// EgressWrite is a pending southbound network write presented to hooks.
type EgressWrite struct {
	DPID topo.DPID
	Msg  openflow.Message
	Ctx  *trigger.Context
}

// EgressHook observes/mutates network writes before they leave the node.
// Like a CacheHook's argument, w is valid only during the call.
type EgressHook func(c *Controller, w *EgressWrite) HookAction

// Controller is one node of the controller cluster.
type Controller struct {
	eng     *simnet.Engine
	id      store.NodeID
	profile Profile
	node    *store.Node
	members *cluster.Membership
	server  *simnet.Server
	// egress carries southbound writes over the egress I/O delay.
	egress *simnet.FIFO[egress]

	downlinks   map[topo.DPID]func(msg openflow.Message)
	switchPorts map[topo.DPID][]uint16

	cacheHooks  []CacheHook
	egressHooks []EgressHook
	// cacheArg and egressArg are runHooks' reused hook arguments.
	cacheArg  *CacheWrite
	egressArg *EgressWrite
	// idle lists the ingress jobs done or refused, for reuse.
	idle *ingress

	// OnEgress observes every message actually sent southbound.
	OnEgress func(dpid topo.DPID, msg openflow.Message, ctx *trigger.Context)

	// OnProcessStart fires when the pipeline begins processing a trigger
	// (non-nil ctx only); JURY's module snapshots the pre-trigger store
	// state here for state-aware consensus (§IV-C A).
	OnProcessStart func(ctx *trigger.Context)
	// OnProcessed fires after the pipeline finishes processing a trigger
	// (non-nil ctx only), letting JURY's module report no-op replicated
	// executions and release per-trigger state.
	OnProcessed func(dpid topo.DPID, msg openflow.Message, ctx *trigger.Context)

	alloc *trigger.IDAllocator

	// GC pause model state.
	pauseUntil  time.Duration
	nextPauseAt time.Duration

	// juryK is the number of secondaries when JURY is enabled (primary
	// overhead model); zero when JURY is off.
	juryK int

	// hosts memoizes lookupHost's decode per MAC: the EdgesDB value it
	// decoded and the outcome, reused while the stored value is unchanged.
	hosts map[openflow.MAC]hostMemo
	// linksView caches LinksDB for the forwarding path; nil until first
	// read and after every LinksDB event applied at this replica.
	linksView *linksView

	// link freshness for liveness expiry
	linkSeen map[string]time.Duration
	// reconcileMisses counts consecutive flow-stats polls that failed to
	// confirm a FlowsDB rule on its switch.
	reconcileMisses map[string]int

	// LivenessIDOverride, when non-zero, replaces the controller's ID in
	// the link-liveness election — the knob the ONOS master-election
	// fault (§III-B) turns after the master reboots with a lower ID.
	LivenessIDOverride store.NodeID

	crashed bool

	// extraDelay/extraJitter model an injected timing fault: every job
	// is slowed by extraDelay plus U(0, extraJitter).
	extraDelay  time.Duration
	extraJitter time.Duration

	xid          uint32
	ingressDrops uint64
	pausesTaken  uint64
}

// New creates a controller node backed by the given store replica.
func New(eng *simnet.Engine, id store.NodeID, profile Profile, node *store.Node, members *cluster.Membership) *Controller {
	c := &Controller{
		eng:             eng,
		id:              id,
		profile:         profile,
		node:            node,
		members:         members,
		server:          simnet.NewServer(eng, profile.Workers, profile.QueueCap),
		downlinks:       make(map[topo.DPID]func(openflow.Message)),
		switchPorts:     make(map[topo.DPID][]uint16),
		alloc:           trigger.NewIDAllocator(fmt.Sprintf("C%d", id)),
		hosts:           make(map[openflow.MAC]hostMemo),
		linkSeen:        make(map[string]time.Duration),
		reconcileMisses: make(map[string]int),
	}
	c.egress = simnet.NewFIFO(eng, profile.EgressService, c.deliver)
	c.server.InflateAt = profile.InflateAt
	c.server.InflateSlope = profile.InflateSlope
	c.nextPauseAt = c.expDelay(profile.PausePeriod)
	node.Subscribe(c.onStoreEvent)
	return c
}

// ID returns the controller's cluster identifier.
func (c *Controller) ID() store.NodeID { return c.id }

// Profile returns the controller's performance profile.
func (c *Controller) Profile() Profile { return c.profile }

// Node returns the controller's store replica.
func (c *Controller) Node() *store.Node { return c.node }

// Membership returns the cluster membership view.
func (c *Controller) Membership() *cluster.Membership { return c.members }

// AddCacheHook registers a hook on cache writes, appended to the chain.
// JURY's module registers here so it observes writes after any faults.
func (c *Controller) AddCacheHook(h CacheHook) { c.cacheHooks = append(c.cacheHooks, h) }

// PrependCacheHook registers a hook at the front of the chain. Fault
// injectors register here: the bug perturbs the write before JURY (or the
// store) sees it, so JURY validates the faulty behaviour instead of
// masking it.
func (c *Controller) PrependCacheHook(h CacheHook) {
	c.cacheHooks = append([]CacheHook{h}, c.cacheHooks...)
}

// AddEgressHook registers a hook on southbound network writes, appended to
// the chain (JURY's module observes what actually leaves the node).
func (c *Controller) AddEgressHook(h EgressHook) { c.egressHooks = append(c.egressHooks, h) }

// PrependEgressHook registers an egress hook at the front of the chain
// (fault injectors).
func (c *Controller) PrependEgressHook(h EgressHook) {
	c.egressHooks = append([]EgressHook{h}, c.egressHooks...)
}

// SetJuryReplication records the replication factor for the primary-side
// overhead model.
func (c *Controller) SetJuryReplication(k int) { c.juryK = k }

// IngressDrops returns PACKET_INs rejected by the full ingress queue.
func (c *Controller) IngressDrops() uint64 { return c.ingressDrops }

// Backlog returns the current pipeline backlog.
func (c *Controller) Backlog() int { return c.server.Backlog() }

// Crashed reports whether the controller has fail-stopped.
func (c *Controller) Crashed() bool { return c.crashed }

// FailureDetectionDelay is how long the cluster takes to notice that a
// controller has fail-stopped. Until it ends, the dead controller stays
// master of its switches, so PACKET_INs still reach it and go unanswered:
// the response omissions by which JURY detects a crash (§III-B). Real
// clusters detect a silent peer by missed heartbeats, not at once. ONOS
// runs a phi-accrual detector over 100 ms heartbeats; OpenDaylight's Akka
// cluster heartbeats every second and tolerates a 3 s pause. Both take
// on the order of seconds. One second sits at the fast end of that range,
// so the window of lost triggers it models is, if anything, too short.
const FailureDetectionDelay = time.Second

// Crash fail-stops the controller: it stops processing at once, and after
// FailureDetectionDelay the cluster marks it dead, so mastership fails
// over and its store replica detaches.
func (c *Controller) Crash() {
	if c.crashed {
		return
	}
	c.crashed = true
	c.eng.Schedule(FailureDetectionDelay, func() { c.members.MarkDead(c.id) })
}

// ConnectSwitch registers the southbound channel to a switch and initiates
// the OpenFlow handshake (HELLO + FEATURES_REQUEST).
func (c *Controller) ConnectSwitch(dpid topo.DPID, downlink func(openflow.Message)) {
	c.downlinks[dpid] = downlink
	c.xid++
	c.sendSouthbound(dpid, &openflow.Hello{XID: c.xid}, nil)
	c.xid++
	c.sendSouthbound(dpid, &openflow.FeaturesRequest{XID: c.xid}, nil)
}

// Governed returns the switches this controller masters.
func (c *Controller) Governed() []topo.DPID { return c.members.Governed(c.id) }

// Start launches the controller's periodic activities: LLDP discovery,
// link-liveness sweeps, and (when enabled) flow reconciliation.
func (c *Controller) Start() {
	if c.profile.LLDPPeriod > 0 {
		c.eng.Schedule(c.profile.LLDPPeriod/4, c.lldpTick)
	}
	if c.profile.ReconcilePeriod > 0 {
		c.eng.Schedule(c.profile.ReconcilePeriod, c.reconcileTick)
	}
}

// HandleSouthbound is the ingress of the southbound pipeline. ctx is nil in
// vanilla deployments; with JURY, the replicator supplies a context whose
// Replica flag marks secondary (tainted) executions.
func (c *Controller) HandleSouthbound(dpid topo.DPID, msg openflow.Message, ctx *trigger.Context) {
	if c.crashed {
		return
	}
	j := c.idle
	if j == nil {
		j = new(ingress)
	}
	c.idle = j.next
	*j = ingress{c: c, dpid: dpid, msg: msg, ctx: ctx}
	// An injected timing fault delays the trigger on ingress (a slow
	// replica still responds, just late) without consuming pipeline
	// capacity, matching the "slow replicas" model of §IV-C C.
	if c.extraDelay > 0 || c.extraJitter > 0 {
		delay := c.extraDelay
		if c.extraJitter > 0 {
			delay += time.Duration(c.eng.Rand().Int63n(int64(c.extraJitter)))
		}
		c.eng.Schedule(delay, func() { c.submit(j) })
		return
	}
	c.submit(j)
}

func (c *Controller) submit(j *ingress) {
	if !c.server.Submit(j) {
		c.ingressDrops++
		*j, c.idle = ingress{next: c.idle}, j
	}
}

// ingress is one southbound message's job on the pipeline server; next
// links it on the controller's idle list.
type ingress struct {
	c    *Controller
	dpid topo.DPID
	msg  openflow.Message
	ctx  *trigger.Context
	next *ingress
}

func (j *ingress) Service() time.Duration { return j.c.serviceTime(j.msg, j.ctx) }

func (j *ingress) Done() {
	c, dpid, msg, ctx := j.c, j.dpid, j.msg, j.ctx
	*j, c.idle = ingress{next: c.idle}, j
	c.process(dpid, msg, ctx)
}

// serviceTime draws the pipeline service time for a message under the
// profile's class means, GC-pause schedule and clustering overheads.
func (c *Controller) serviceTime(msg openflow.Message, ctx *trigger.Context) time.Duration {
	var mean time.Duration
	if ctx.Tainted() {
		mean = c.profile.ReplicaService
	} else {
		switch m := msg.(type) {
		case *openflow.PacketIn:
			mean = c.classMean(m)
		case *openflow.FlowRemoved:
			mean = c.profile.LLDPService
		default:
			mean = c.profile.HandshakeService
		}
	}
	service := c.expDelay(mean)
	if !ctx.Tainted() {
		if c.members != nil {
			if extra := c.members.Size() - 1; extra > 0 {
				service += time.Duration(extra) * c.profile.PerReplicaOverhead
			}
		}
		if c.juryK > 0 {
			service += time.Duration(c.juryK) * c.profile.JuryPrimaryOverhead
		}
	}
	return service + c.pauseDelay()
}

// SetExtraDelay injects a timing fault: every trigger is delayed on
// ingress by delay plus U(0, jitter). Zero values clear the fault.
func (c *Controller) SetExtraDelay(delay, jitter time.Duration) {
	c.extraDelay = delay
	c.extraJitter = jitter
}

func (c *Controller) classMean(pin *openflow.PacketIn) time.Duration {
	pf, err := openflow.ParsePacket(pin.Data, pin.InPort)
	if err != nil {
		return c.profile.HandshakeService
	}
	switch pf.EthType {
	case openflow.EthTypeARP:
		return c.profile.ARPService
	case openflow.EthTypeLLDP:
		return c.profile.LLDPService
	default:
		return c.profile.FlowSetupService
	}
}

func (c *Controller) expDelay(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	d := time.Duration(c.eng.Rand().ExpFloat64() * float64(mean))
	if max := 8 * mean; d > max {
		d = max
	}
	return d
}

// pauseDelay advances the GC-pause schedule and returns the stall a job
// starting now experiences.
func (c *Controller) pauseDelay() time.Duration {
	if c.profile.PausePeriod <= 0 {
		return 0
	}
	now := c.eng.Now()
	for now >= c.nextPauseAt {
		span := c.profile.PauseMax - c.profile.PauseMin
		dur := c.profile.PauseMin
		if span > 0 {
			dur += time.Duration(c.eng.Rand().Int63n(int64(span)))
		}
		start := c.nextPauseAt
		if c.pauseUntil > start {
			start = c.pauseUntil
		}
		c.pauseUntil = start + dur
		c.nextPauseAt = c.pauseUntil + c.expDelay(c.profile.PausePeriod)
		c.pausesTaken++
	}
	if now < c.pauseUntil {
		return c.pauseUntil - now
	}
	return 0
}

// process runs after the pipeline service delay.
func (c *Controller) process(dpid topo.DPID, msg openflow.Message, ctx *trigger.Context) {
	if c.crashed {
		return
	}
	if ctx != nil && c.OnProcessStart != nil {
		c.OnProcessStart(ctx)
	}
	switch m := msg.(type) {
	case *openflow.Hello:
		// handshake progress; nothing to record
	case *openflow.FeaturesReply:
		c.handleFeaturesReply(topo.DPID(m.DatapathID), m, ctx)
	case *openflow.EchoReply, *openflow.BarrierReply, *openflow.ErrorMsg:
		// liveness / ack traffic
	case *openflow.PacketIn:
		c.handlePacketIn(dpid, m, ctx)
	case *openflow.FlowRemoved:
		c.handleFlowRemoved(dpid, m, ctx)
	case *openflow.FlowStatsReply:
		c.handleFlowStats(dpid, m, ctx)
	case *openflow.PortStatus:
		c.handlePortStatus(dpid, m, ctx)
	}
	if ctx != nil && c.OnProcessed != nil {
		c.OnProcessed(dpid, msg, ctx)
	}
}

func (c *Controller) handlePacketIn(dpid topo.DPID, pin *openflow.PacketIn, ctx *trigger.Context) {
	pf, err := openflow.ParsePacket(pin.Data, pin.InPort)
	if err != nil {
		return
	}
	switch pf.EthType {
	case openflow.EthTypeLLDP:
		c.handleLLDP(dpid, pf, ctx)
	case openflow.EthTypeARP:
		c.handleARP(dpid, pin, pf, ctx)
	default:
		c.handleForwarding(dpid, pin, pf, ctx)
	}
}

// WriteCache routes a controller-wide cache mutation through the hook
// chain and, if allowed, into the distributed store. done (optional) fires
// when the write is durable.
func (c *Controller) WriteCache(cache store.CacheName, op store.Op, key, value string, ctx *trigger.Context, done func()) {
	w, ok := runHooks(c, &c.cacheArg, CacheWrite{Cache: cache, Op: op, Key: key, Value: value, Ctx: ctx}, c.cacheHooks)
	if !ok {
		return
	}
	var tag string
	if w.Ctx != nil {
		tag = string(w.Ctx.ID)
	}
	c.node.WriteTagged(w.Cache, w.Op, w.Key, w.Value, tag, done)
}

// runHooks presents w to hooks on the reused argument *arg and returns
// what the chain made of it, and false if a hook suppressed it. *arg is
// nil while taken, so a hook that writes again gets a fresh argument.
func runHooks[W any, H ~func(*Controller, *W) HookAction](c *Controller, arg **W, w W, hooks []H) (W, bool) {
	p := *arg
	if p == nil {
		p = new(W)
	}
	*arg, *p = nil, w
	action := Proceed
	for _, h := range hooks {
		if action = h(c, p); action == Suppress {
			break
		}
	}
	w, *arg = *p, p
	return w, action != Suppress
}

// sendSouthbound routes a network write through the hook chain and, if
// allowed, down the wire to the switch after the egress I/O delay.
func (c *Controller) sendSouthbound(dpid topo.DPID, msg openflow.Message, ctx *trigger.Context) {
	w, ok := runHooks(c, &c.egressArg, EgressWrite{DPID: dpid, Msg: msg, Ctx: ctx}, c.egressHooks)
	if !ok {
		return
	}
	downlink, ok := c.downlinks[w.DPID]
	if !ok {
		return
	}
	if c.OnEgress != nil {
		c.OnEgress(w.DPID, w.Msg, w.Ctx)
	}
	c.egress.Send(egress{downlink, w.Msg})
}

// egress is one southbound write on its way down to the switch.
type egress struct {
	downlink func(openflow.Message)
	msg      openflow.Message
}

// deliver hands an egress write to its switch, unless the controller
// crashed meanwhile.
func (c *Controller) deliver(e egress) {
	if !c.crashed {
		e.downlink(e.msg)
	}
}

// onStoreEvent reacts to cache events applied at this replica: a LinksDB
// event drops the LinksDB view, and the master of a switch materializes
// FlowsDB entries into actual FLOW_MODs, which is how controllers program
// remote switches through the shared store (§II-A1).
func (c *Controller) onStoreEvent(_ store.NodeID, ev store.Event, _ bool) {
	if ev.Cache == store.LinksDB {
		c.linksView = nil
	}
	if c.crashed || ev.Cache != store.FlowsDB {
		return
	}
	if ev.Op == store.OpDelete {
		return
	}
	// A FlowsDB key is FlowRule.Key(), which leads with the target
	// switch: a replica that does not master it skips the decode.
	if dpid, ok := KeyDPID(ev.Key); ok && !c.members.IsMaster(c.id, dpid) {
		return
	}
	rule, err := DecodeFlowRule(ev.Value)
	if err != nil {
		return
	}
	if !c.members.IsMaster(c.id, rule.DPID) {
		return
	}
	c.xid++
	// The event tag carries the trigger identity for both external
	// triggers (equal to the rule's taint) and internal ones (the
	// internal trigger id minted at the northbound entry point), so the
	// validator can correlate the FLOW_MOD either way.
	kind := trigger.External
	if rule.Trigger == "" {
		kind = trigger.Internal
	}
	ctx := &trigger.Context{ID: trigger.ID(ev.Tag), Kind: kind, Primary: rule.Origin}
	c.sendSouthbound(rule.DPID, rule.FlowMod(c.xid), ctx)
}

func (c *Controller) handleFeaturesReply(dpid topo.DPID, m *openflow.FeaturesReply, ctx *trigger.Context) {
	c.switchPorts[dpid] = append([]uint16(nil), m.Ports...)
	c.WriteCache(store.SwitchDB, store.OpCreate, dpid.String(),
		fmt.Sprintf("connected|ports=%d", len(m.Ports)), ctx, nil)
}

func (c *Controller) handleFlowRemoved(dpid topo.DPID, m *openflow.FlowRemoved, ctx *trigger.Context) {
	if !c.members.IsMaster(c.id, dpid) {
		return
	}
	rule := FlowRule{DPID: dpid, Match: m.Match, Priority: m.Priority}
	c.WriteCache(store.FlowsDB, store.OpDelete, rule.Key(), "", ctx, nil)
}
