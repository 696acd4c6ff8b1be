package core

import (
	"cmp"
	"slices"
	"strconv"
	"time"

	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

const (
	// validatorLatency is the one-way latency of the out-of-band channel
	// from a controller's module to the validator.
	validatorLatency = 200 * time.Microsecond
	// decapMean is the mean of the modeled PACKET_IN decapsulation
	// overhead on the ODL (encapsulating) path (Fig. 4i).
	decapMean = 85 * time.Microsecond
)

// ModuleConfig parameterizes a JURY controller module.
type ModuleConfig struct {
	// K is the replication factor (number of secondary controllers).
	K int
	// Tracer records per-controller "exec" and "decap" spans; nil
	// disables tracing at zero hot-path cost.
	Tracer *obs.Tracer
}

// Module is JURY's per-controller component (~250 LOC in ONOS, ~550 in ODL
// per §VI): it propagates taints, captures and suppresses secondary
// side-effects, relays cache updates, and intercepts outgoing network
// writes — streaming everything to the out-of-band validator.
type Module struct {
	eng       *simnet.Engine
	ctrl      *controller.Controller
	validator *Validator
	cfg       ModuleConfig
	// toValidator carries responses over the out-of-band channel; forget
	// releases each trigger's snapshot 50 ms after its processing.
	toValidator *simnet.FIFO[Response]
	forget      *simnet.FIFO[trigger.ID]

	// captured counts side-effects captured per tainted trigger, to emit
	// ExecDone for no-op executions.
	captured map[trigger.ID]int
	// snapshots holds the pre-trigger store digest recorded at pipeline
	// start, attached to every response of that trigger so primary and
	// secondary snapshots are directly comparable (§IV-C A).
	snapshots map[trigger.ID]uint64

	// DecapTimes records the modeled decapsulation overhead per packet.
	DecapTimes obs.Distribution

	validatorBytes int64
	validatorMsgs  int64

	tracer *obs.Tracer
	// node is the controller's trace-node name ("C3"), precomputed so the
	// tracing hot path never formats.
	node string
}

// NewModule attaches a JURY module to a controller. The module registers
// its hooks last, so fault injectors installed before it act first (the
// module validates the faulty behaviour, it does not mask it).
func NewModule(eng *simnet.Engine, ctrl *controller.Controller, validator *Validator, cfg ModuleConfig) *Module {
	m := &Module{
		eng:       eng,
		ctrl:      ctrl,
		validator: validator,
		cfg:       cfg,
		captured:  make(map[trigger.ID]int),
		snapshots: make(map[trigger.ID]uint64),
		tracer:    cfg.Tracer,
		node:      "C" + strconv.Itoa(int(ctrl.ID())),
	}
	m.toValidator = simnet.NewFIFO(eng, validatorLatency, m.deliver)
	m.forget = simnet.NewFIFO(eng, 50*time.Millisecond, func(id trigger.ID) { delete(m.snapshots, id) })
	ctrl.AddCacheHook(m.onCacheWrite)
	ctrl.AddEgressHook(m.onEgress)
	ctrl.OnProcessStart = m.onProcessStart
	ctrl.OnProcessed = m.onProcessed
	ctrl.SetJuryReplication(cfg.K)
	ctrl.Node().Subscribe(m.onStoreEvent)
	return m
}

// Controller returns the controller the module is attached to.
func (m *Module) Controller() *controller.Controller { return m.ctrl }

// ValidatorBytes returns the bytes this module sent to the validator over
// JURY's own out-of-band channel (cache updates ride the store replication
// stream and cost nothing extra).
func (m *Module) ValidatorBytes() int64 { return m.validatorBytes }

// ValidatorMessages returns the number of responses relayed, including
// cache updates tapped off the replication stream.
func (m *Module) ValidatorMessages() int64 { return m.validatorMsgs }

// onCacheWrite captures-and-suppresses cache writes from replicated
// execution (§IV-B(1)); untainted writes proceed to the store and are
// relayed from onStoreEvent.
func (m *Module) onCacheWrite(c *controller.Controller, w *controller.CacheWrite) controller.HookAction {
	if !w.Ctx.Tainted() {
		return controller.Proceed
	}
	m.captured[w.Ctx.ID]++
	prev, prevOK := c.Node().Get(w.Cache, w.Key)
	m.send(Response{
		Controller: c.ID(),
		Trigger:    w.Ctx.ID,
		Kind:       SecondaryExec,
		Tainted:    true,
		Primary:    w.Ctx.Primary,
		Cache:      w.Cache,
		Op:         w.Op,
		Key:        w.Key,
		Value:      w.Value,
		Prev:       prev,
		PrevOK:     prevOK,
	})
	return controller.Suppress
}

// onEgress captures-and-suppresses network writes from replicated
// execution and reports the primary's own FLOW_MOD / PACKET_OUT writes.
func (m *Module) onEgress(c *controller.Controller, w *controller.EgressWrite) controller.HookAction {
	if !reportableEgress(w.Msg) {
		return controller.Proceed
	}
	if w.Ctx.Tainted() {
		m.captured[w.Ctx.ID]++
		m.send(Response{
			Controller: c.ID(),
			Trigger:    w.Ctx.ID,
			Kind:       SecondaryExec,
			Tainted:    true,
			Primary:    w.Ctx.Primary,
			DPID:       w.DPID,
			MsgType:    w.Msg.Type(),
			MsgBody:    CanonicalMessage(w.Msg),
			WireLen:    openflow.WireLen(w.Msg),
		})
		return controller.Suppress
	}
	m.send(Response{
		Controller: c.ID(),
		Trigger:    ctxTrigger(w.Ctx),
		Kind:       NetworkWrite,
		Primary:    ctxPrimary(w.Ctx, c.ID()),
		DPID:       w.DPID,
		MsgType:    w.Msg.Type(),
		MsgBody:    CanonicalMessage(w.Msg),
		WireLen:    openflow.WireLen(w.Msg),
	})
	return controller.Proceed
}

// onProcessStart snapshots the pre-trigger store state; all responses for
// this trigger carry it, making primary and secondary snapshots
// comparable regardless of the side-effects the trigger itself produces.
func (m *Module) onProcessStart(ctx *trigger.Context) {
	m.snapshots[ctx.ID] = m.ctrl.Node().Digest()
	if m.tracer != nil {
		m.tracer.StartSpan(string(ctx.ID), "exec", m.node)
	}
}

// onProcessed reports no-op replicated executions so the validator can
// tell "nothing to do" apart from response omission, and releases the
// per-trigger snapshot.
func (m *Module) onProcessed(_ topo.DPID, _ openflow.Message, ctx *trigger.Context) {
	if m.tracer != nil {
		m.tracer.EndSpan(string(ctx.ID), "exec", m.node, "")
	}
	if ctx.Tainted() && m.captured[ctx.ID] == 0 {
		m.send(Response{
			Controller: m.ctrl.ID(),
			Trigger:    ctx.ID,
			Kind:       ExecDone,
			Tainted:    true,
			Primary:    ctx.Primary,
		})
	}
	delete(m.captured, ctx.ID)
	// Release the snapshot after in-flight relays (e.g. bus-delayed
	// FlowsDB applies) had a chance to use it.
	m.forget.Send(ctx.ID)
}

// onStoreEvent relays cache updates applied at this replica. To keep the
// validator's per-trigger response count at k+1 (§IV-C), relays are
// sampled: the origin plus k deterministically chosen replicas relay each
// event; the rest stay silent.
func (m *Module) onStoreEvent(_ store.NodeID, ev store.Event, _ bool) {
	if !m.shouldRelay(ev) {
		return
	}
	r := Response{
		Controller: m.ctrl.ID(),
		Trigger:    trigger.ID(ev.Tag),
		Kind:       CacheUpdate,
		Primary:    ev.Origin,
		Cache:      ev.Cache,
		Op:         ev.Op,
		Key:        ev.Key,
		Value:      ev.Value,
		Prev:       ev.Prev,
		PrevOK:     ev.PrevOK,
		// Cache updates "are replicated automatically to all cache
		// instances and require no explicit propagation" (§IV-C): the
		// validator taps them off the existing replication stream, so
		// they do not count toward JURY's network overhead.
		free: true,
	}
	// Pre-apply digest fallback: the XOR fold makes the state before
	// this event recoverable, used when no pipeline snapshot exists
	// (e.g. bus-delayed applies, remote replicas).
	m.sendWithDigest(r, m.ctrl.Node().Digest()^store.EventDigest(ev))
}

func (m *Module) shouldRelay(ev store.Event) bool {
	self := m.ctrl.ID()
	if ev.Origin == self {
		return true
	}
	var buf [16]store.NodeID
	others := m.ctrl.Membership().AppendAlive(buf[:0])
	others = slices.DeleteFunc(others, func(id store.NodeID) bool { return id == ev.Origin })
	if len(others) <= m.cfg.K {
		return slices.Contains(others, self)
	}
	// Deterministic sample seeded by the event identity so that every
	// module picks the same k relays: FNV-1a over the tag, then the
	// origin and sequence number as little-endian uint64s. mix(seed, ·) is
	// injective, so the order it sorts by is total.
	seed := uint64(14695981039346656037)
	for i := 0; i < len(ev.Tag); i++ {
		seed = (seed ^ uint64(ev.Tag[i])) * 1099511628211
	}
	for _, v := range [2]uint64{uint64(ev.Origin), ev.Seq} {
		for i := 0; i < 8; i++ {
			seed = (seed ^ (v >> (8 * i) & 0xFF)) * 1099511628211
		}
	}
	slices.SortFunc(others, func(a, b store.NodeID) int { return cmp.Compare(mix(seed, a), mix(seed, b)) })
	return slices.Contains(others[:max(m.cfg.K, 0)], self)
}

func mix(seed uint64, id store.NodeID) uint64 {
	x := seed ^ (uint64(id) * 0x9E3779B97F4A7C15)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

// HandleReplicated is the secondary-side entry point for a replicated
// southbound message. On the ODL path the message arrives doubly
// encapsulated and is stripped here (§VI-B), paying the decapsulation
// overhead measured in Fig. 4i.
func (m *Module) HandleReplicated(dpid topo.DPID, msg openflow.Message, ctx *trigger.Context, encapsulated []byte) {
	if encapsulated == nil {
		m.ctrl.HandleSouthbound(dpid, msg, ctx)
		return
	}
	inner, err := openflow.DecapsulatePacketIn(encapsulated)
	if err != nil {
		return
	}
	overhead := m.decapOverhead()
	m.DecapTimes.Add(overhead)
	if m.tracer != nil {
		start := m.eng.Now()
		m.tracer.Emit(string(ctx.ID), "decap", m.node, start, start+overhead, "")
	}
	m.eng.Schedule(overhead, func() { m.ctrl.HandleSouthbound(dpid, inner, ctx) })
}

func (m *Module) decapOverhead() time.Duration {
	d := time.Duration(m.eng.Rand().ExpFloat64() * float64(decapMean))
	if max := 4 * decapMean; d > max {
		d = max
	}
	return d
}

// send relays a response to the out-of-band validator, using the trigger's
// pipeline snapshot as the state digest when available.
func (m *Module) send(r Response) {
	m.sendWithDigest(r, m.ctrl.Node().Digest())
}

func (m *Module) sendWithDigest(r Response, fallback uint64) {
	if digest, ok := m.snapshots[r.Trigger]; ok {
		r.StateDigest = digest
	} else {
		r.StateDigest = fallback
	}
	r.StateApplied = m.ctrl.Node().Applied()
	m.validatorMsgs++
	if !r.free {
		m.validatorBytes += int64(r.Size())
	}
	m.toValidator.Send(r)
}

// deliver stamps a relayed response with its arrival at the validator.
func (m *Module) deliver(r Response) {
	r.At = m.eng.Now()
	m.validator.Submit(r)
}

// reportableEgress filters the southbound messages JURY validates:
// FLOW_MODs and PACKET_OUTs, excluding the controller's own LLDP discovery
// probes (well-known periodic traffic that by design has no cache
// side-effect).
func reportableEgress(msg openflow.Message) bool {
	switch m := msg.(type) {
	case *openflow.FlowMod:
		return true
	case *openflow.PacketOut:
		if pf, err := openflow.ParsePacket(m.Data, 0); err == nil && pf.EthType == openflow.EthTypeLLDP {
			return false
		}
		return true
	default:
		return false
	}
}

func ctxTrigger(ctx *trigger.Context) trigger.ID {
	if ctx == nil {
		return ""
	}
	return ctx.ID
}

func ctxPrimary(ctx *trigger.Context, fallback store.NodeID) store.NodeID {
	if ctx == nil || ctx.Primary == 0 {
		return fallback
	}
	return ctx.Primary
}
