package core

import (
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// ReplicationMode selects how the replicator (the programmable OVS of
// §VI-A) forwards triggers to secondary controllers.
type ReplicationMode uint8

// Replication modes.
const (
	// ProxyMode (ONOS): the OVS acts as a transparent proxy, forwarding
	// packets normally while mirroring a copy to each secondary.
	ProxyMode ReplicationMode = iota + 1
	// EncapMode (ODL): the OVS connects to secondaries in OpenFlow mode,
	// so mirrored PACKET_INs arrive doubly encapsulated and must be
	// stripped at the secondary (§VI-B, Fig. 4i).
	EncapMode
)

// String names the mode.
func (m ReplicationMode) String() string {
	if m == EncapMode {
		return "encap"
	}
	return "proxy"
}

// replicatorLatency is the one-way delay from a replicator to a
// controller.
const replicatorLatency = 150 * time.Microsecond

// ReplicatorConfig parameterizes a per-switch replicator.
type ReplicatorConfig struct {
	// K is the number of secondary controllers per trigger.
	K int
	// Mode selects proxy (ONOS) or encapsulating (ODL) replication.
	Mode ReplicationMode
	// Metrics receives the per-switch replication counters (labeled by
	// dpid); nil falls back to a private registry.
	Metrics *obs.Registry
	// Tracer opens the root span per intercepted trigger; nil disables
	// tracing at zero hot-path cost.
	Tracer *obs.Tracer
}

// Replicator intercepts every southbound message of one switch, forwards
// the original to the primary (the switch's master) and replicates a
// tainted copy to k randomly chosen secondaries over reliable in-order
// channels (§IV-A(1)). It runs outside the controller binary, so a faulty
// controller cannot tamper with replicated triggers.
type Replicator struct {
	eng     *simnet.Engine
	dpid    topo.DPID
	cfg     ReplicatorConfig
	members *cluster.Membership

	primaryDeliver func(id store.NodeID, dpid topo.DPID, msg openflow.Message, ctx *trigger.Context)
	modules        map[store.NodeID]*Module
	// sends carries HandleFromSwitch's messages to the controllers.
	sends *simnet.FIFO[relay]

	alloc  *trigger.IDAllocator
	mac    openflow.MAC
	tracer *obs.Tracer
	// candidates is pickSecondaries' scratch, reused on every call.
	candidates []store.NodeID

	// Counters live in the obs registry (labeled by dpid); the accessor
	// methods below are thin reads over the same instances.
	replicatedBytes *obs.Counter
	replicatedMsgs  *obs.Counter
	triggers        *obs.Counter
}

// NewReplicator creates the replicator for one switch. modules maps every
// JURY-enabled controller; primaryDeliver injects the original message
// into a controller's pipeline.
func NewReplicator(
	eng *simnet.Engine,
	dpid topo.DPID,
	members *cluster.Membership,
	modules map[store.NodeID]*Module,
	primaryDeliver func(id store.NodeID, dpid topo.DPID, msg openflow.Message, ctx *trigger.Context),
	cfg ReplicatorConfig,
) *Replicator {
	if cfg.Mode == 0 {
		cfg.Mode = ProxyMode
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	label := obs.L("dpid", dpid.String())
	r := &Replicator{
		eng:            eng,
		dpid:           dpid,
		cfg:            cfg,
		members:        members,
		modules:        modules,
		primaryDeliver: primaryDeliver,
		alloc:          trigger.NewIDAllocator(dpid.String()),
		mac:            openflow.MAC{0x02, 0xEE, byte(dpid >> 24), byte(dpid >> 16), byte(dpid >> 8), byte(dpid)},
		tracer:         cfg.Tracer,
		replicatedBytes: reg.Counter("jury_replicator_replicated_bytes_total",
			"Bytes mirrored to secondary controllers (§VII-B2).", label),
		replicatedMsgs: reg.Counter("jury_replicator_replicated_messages_total",
			"Messages mirrored to secondary controllers.", label),
		triggers: reg.Counter("jury_replicator_triggers_total",
			"External triggers intercepted.", label),
	}
	r.sends = simnet.NewFIFO(eng, replicatorLatency, r.deliver)
	return r
}

// relay is one message from the replicator to a controller: the original
// to the primary (mod nil) or a tainted copy to a secondary's module.
type relay struct {
	mod   *Module
	msg   openflow.Message
	ctx   *trigger.Context
	frame []byte
}

func (r *Replicator) deliver(m relay) {
	if m.mod == nil {
		r.primaryDeliver(m.ctx.Primary, r.dpid, m.msg, m.ctx)
		return
	}
	m.mod.HandleReplicated(r.dpid, m.msg, m.ctx, m.frame)
}

// ReplicatedBytes returns the bytes mirrored to secondary controllers
// (§VII-B2 overhead accounting).
func (r *Replicator) ReplicatedBytes() int64 { return r.replicatedBytes.Value() }

// Triggers returns the number of external triggers intercepted.
func (r *Replicator) Triggers() int64 { return r.triggers.Value() }

// HandleFromSwitch processes one southbound message emitted by the switch.
func (r *Replicator) HandleFromSwitch(msg openflow.Message) {
	primary, ok := r.members.Master(r.dpid)
	if !ok {
		return
	}
	r.triggers.Inc()
	ctx := &trigger.Context{
		ID:      r.alloc.Next(),
		Kind:    trigger.External,
		Primary: primary,
	}
	if r.tracer != nil {
		r.tracer.StartTrigger(string(ctx.ID), msg.Type().String())
	}
	r.sends.Send(relay{msg: msg, ctx: ctx})
	secondaries := r.pickSecondaries(primary)
	replicas := make([]trigger.Context, len(secondaries))
	for i, id := range secondaries {
		mod, ok := r.modules[id]
		if !ok {
			continue
		}
		replicas[i] = *ctx.ReplicaOf()
		var (
			copyMsg openflow.Message
			frame   []byte
			size    int
		)
		if pin, isPin := msg.(*openflow.PacketIn); isPin && r.cfg.Mode == EncapMode {
			frame = openflow.EncapsulatePacketIn(pin, r.mac)
			size = len(frame) + openflow.HeaderLen + 10 // carried in a fresh PACKET_IN
		} else {
			copyMsg = msg
			size = msg.Len()
		}
		r.replicatedBytes.Add(int64(size))
		r.replicatedMsgs.Inc()
		r.sends.Send(relay{mod: mod, msg: copyMsg, ctx: &replicas[i], frame: frame})
	}
}

// ReplicateREST intercepts a northbound flow-install request: the original
// goes to the target controller, tainted copies to k secondaries (REST
// calls are external triggers, §II-A2).
func (r *Replicator) ReplicateREST(target store.NodeID, rule controller.FlowRule, install func(id store.NodeID, rule controller.FlowRule, ctx *trigger.Context)) {
	r.triggers.Inc()
	ctx := &trigger.Context{ID: r.alloc.Next(), Kind: trigger.External, Primary: target}
	if r.tracer != nil {
		r.tracer.StartTrigger(string(ctx.ID), "rest-install")
	}
	r.eng.Schedule(replicatorLatency, func() { install(target, rule, ctx) })
	size := int64(len(rule.AppendEncode(make([]byte, 0, 256))) + 64)
	for _, id := range r.pickSecondaries(target) {
		replicaCtx := ctx.ReplicaOf()
		sid := id
		r.replicatedBytes.Add(size)
		r.replicatedMsgs.Inc()
		r.eng.Schedule(replicatorLatency, func() { install(sid, rule, replicaCtx) })
	}
}

// pickSecondaries chooses k random live controllers other than primary.
func (r *Replicator) pickSecondaries(primary store.NodeID) []store.NodeID {
	alive := r.members.AppendAlive(r.candidates[:0])
	candidates := alive[:0]
	for _, id := range alive {
		if id != primary {
			candidates = append(candidates, id)
		}
	}
	r.candidates = alive
	if len(candidates) <= r.cfg.K {
		return candidates
	}
	rng := r.eng.Rand()
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	return candidates[:r.cfg.K]
}
