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

// ReplicatorConfig parameterizes a per-switch replicator.
type ReplicatorConfig struct {
	// K is the number of secondary controllers per trigger.
	K int
	// Mode selects proxy (ONOS) or encapsulating (ODL) replication.
	Mode ReplicationMode
	// Latency is the one-way delay from the replicator to a controller.
	Latency time.Duration
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

	alloc  *trigger.IDAllocator
	mac    openflow.MAC
	tracer *obs.Tracer

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
	if cfg.Latency == 0 {
		cfg.Latency = 150 * time.Microsecond
	}
	if cfg.Mode == 0 {
		cfg.Mode = ProxyMode
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	label := obs.L("dpid", dpid.String())
	return &Replicator{
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
	dpid := r.dpid
	r.eng.Schedule(r.cfg.Latency, func() {
		r.primaryDeliver(primary, dpid, msg, ctx)
	})
	for _, id := range r.pickSecondaries(primary) {
		mod, ok := r.modules[id]
		if !ok {
			continue
		}
		replicaCtx := ctx.ReplicaOf()
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
			size = openflow.WireLen(msg)
		}
		r.replicatedBytes.Add(int64(size))
		r.replicatedMsgs.Inc()
		m, f := mod, frame
		cm := copyMsg
		r.eng.Schedule(r.cfg.Latency, func() {
			m.HandleReplicated(dpid, cm, replicaCtx, f)
		})
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
	r.eng.Schedule(r.cfg.Latency, func() { install(target, rule, ctx) })
	size := int64(len(rule.Encode()) + 64)
	for _, id := range r.pickSecondaries(target) {
		replicaCtx := ctx.ReplicaOf()
		sid := id
		r.replicatedBytes.Add(size)
		r.replicatedMsgs.Inc()
		r.eng.Schedule(r.cfg.Latency, func() { install(sid, rule, replicaCtx) })
	}
}

// pickSecondaries chooses k random live controllers other than primary.
func (r *Replicator) pickSecondaries(primary store.NodeID) []store.NodeID {
	alive := r.members.Alive()
	var candidates []store.NodeID
	for _, id := range alive {
		if id != primary {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) <= r.cfg.K {
		return candidates
	}
	rng := r.eng.Rand()
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	return candidates[:r.cfg.K]
}
