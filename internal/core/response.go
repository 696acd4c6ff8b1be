// Package core implements JURY itself (§IV): the replicator that
// intercepts and replicates external triggers to k random secondary
// controllers, the per-controller module that taints replicated triggers,
// suppresses secondary side-effects and intercepts cache/network writes,
// and the out-of-band validator that runs Algorithm 1 — state-aware
// consensus, sanity checks between cache and network side-effects, and
// policy checks — raising alarms with precise action attribution.
package core

import (
	"fmt"
	"strings"
	"time"

	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// ResponseKind classifies a controller response delivered to the validator.
type ResponseKind uint8

// Response kinds.
const (
	// CacheUpdate is a cache event applied at a controller's replica
	// (flows 3c in Fig. 2).
	CacheUpdate ResponseKind = iota + 1
	// NetworkWrite is an outgoing southbound message from a primary
	// controller (flow 4c).
	NetworkWrite
	// SecondaryExec is a captured (and suppressed) side-effect from the
	// replicated execution at a secondary controller (flow 1c).
	SecondaryExec
	// ExecDone marks the completion of a replicated execution that
	// produced no side-effects, letting the validator distinguish
	// no-op consensus from response omission.
	ExecDone
)

// String names the kind.
func (k ResponseKind) String() string {
	switch k {
	case CacheUpdate:
		return "cache"
	case NetworkWrite:
		return "network"
	case SecondaryExec:
		return "exec"
	case ExecDone:
		return "done"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Response is one entry ρ = (id, τ, entry) of Algorithm 1, extended with
// the self-reported state snapshot used for state-aware consensus
// (§IV-C A).
type Response struct {
	Controller store.NodeID
	Trigger    trigger.ID
	Kind       ResponseKind
	// Tainted marks responses from replicated execution (§IV-B(1)).
	Tainted bool
	// Primary identifies the controller that received the original
	// trigger (attribution, §IV-B).
	Primary store.NodeID

	// Cache-entry body (CacheUpdate, or SecondaryExec of a cache write).
	Cache store.CacheName
	Op    store.Op
	Key   string
	Value string

	// Network-write body (NetworkWrite, or SecondaryExec of an egress).
	DPID    topo.DPID
	MsgType openflow.MsgType
	// MsgBody is the canonical form of the network message for
	// comparison and policy evaluation.
	MsgBody string
	// WireLen is the encoded message size, for overhead accounting.
	WireLen int

	// State snapshot of the responding controller (order-insensitive
	// digest plus applied-event count).
	StateDigest  uint64
	StateApplied uint64
	// Prev/PrevOK report the acted-on entry's value at the responder
	// immediately before the write — the per-entry refinement of Ψ's
	// "copy of the latest update" used for equivalent-view comparison.
	Prev   string
	PrevOK bool

	// At is the virtual submission timestamp. It crosses the wire as-is:
	// the protocol's documented time base is virtual nanoseconds since
	// simulation/service start on both ends.
	At time.Duration // vclock:wire -- protocol time base is virtual ns

	// free marks responses that ride an existing replication stream
	// (cache updates) and therefore cost no additional network traffic.
	free bool
}

// IsCache reports whether the response body is a cache entry.
func (r Response) IsCache() bool {
	return r.Kind == CacheUpdate || (r.Kind == SecondaryExec && r.Cache != "")
}

// Body returns the canonical response body used for consensus comparison:
// identical side-effects produce identical bodies regardless of which
// controller produced them.
func (r Response) Body() string {
	if r.Kind == ExecDone {
		return "done"
	}
	if r.IsCache() {
		return r.cacheBody(normalizeValue(r.Cache, r.Value))
	}
	return "net|" + r.DPID.String() + "|" + r.MsgType.String() + "|" + r.MsgBody
}

// cacheBody is Body for a cache response whose normalized value the caller
// already holds (the validator, which decodes a primary's rule once for
// both the body and the sanity check).
func (r Response) cacheBody(normalized string) string {
	return "cache|" + string(r.Cache) + "|" + r.Op.String() + "|" + r.Key + "|" + normalized
}

// Slot returns the comparison slot within a trigger: triggers may elicit
// several side-effects (one flow rule per path switch), and consensus is
// evaluated per slot.
func (r Response) Slot() string {
	if r.Kind == ExecDone {
		return "done"
	}
	if r.IsCache() {
		return "cache|" + string(r.Cache) + "|" + r.Key
	}
	return "net|" + r.DPID.String() + "|" + r.MsgType.String()
}

// sameSlotFields reports whether two responses agree on every field Slot
// reads, so one's slot is the other's; sameBodyFields, for two responses
// that do, extends that to the fields Body reads. The validator uses them
// to let byte-equal replicas share one canonicalization; ExecDone's
// constant forms are never worth sharing.
func sameSlotFields(a, b *Response) bool {
	if a.Kind == ExecDone || b.Kind == ExecDone || a.IsCache() != b.IsCache() {
		return false
	}
	if a.IsCache() {
		return a.Cache == b.Cache && a.Key == b.Key
	}
	return a.DPID == b.DPID && a.MsgType == b.MsgType
}

func sameBodyFields(a, b *Response) bool {
	if a.IsCache() {
		return a.Op == b.Op && a.Value == b.Value
	}
	return a.MsgBody == b.MsgBody
}

// Size estimates the validator-bound wire size in bytes. Replicated
// execution responses cross the wire as body digests plus the slot key —
// consensus only needs equality, and the primary's full entries reach the
// validator through the tapped cache-replication stream — while primary
// network writes carry their canonical form for the sanity check.
func (r Response) Size() int {
	if r.Kind == ExecDone {
		return 40
	}
	if r.Tainted {
		return 48 + len(r.Key)/4
	}
	return 64 + len(r.MsgBody)/2
}

// normalizeValue strips per-controller attribution (origin, trigger taint)
// from FlowsDB values so that the same rule computed by different replicas
// compares equal.
func normalizeValue(cache store.CacheName, value string) string {
	if cache != store.FlowsDB {
		return value
	}
	rule, err := controller.DecodeFlowRule(value)
	if err != nil {
		return value
	}
	return canonicalRule(rule)
}

// canonicalRule is normalizeValue's result for a FlowsDB value that decoded
// to rule.
func canonicalRule(rule controller.FlowRule) string {
	rule.Origin = 0
	rule.Trigger = ""
	rule.State = ""
	return rule.Encode()
}

// CanonicalMessage renders a southbound message for comparison: FLOW_MODs
// by their rule semantics, PACKET_OUTs by their action and payload class.
func CanonicalMessage(msg openflow.Message) string {
	switch m := msg.(type) {
	case *openflow.FlowMod:
		var b strings.Builder
		fmt.Fprintf(&b, "flowmod|%s|prio=%d|%s|", m.Command, m.Priority, m.Match.String())
		for _, a := range m.Actions {
			fmt.Fprintf(&b, "out:%d,", a.Port)
		}
		fmt.Fprintf(&b, "|idle=%d|hard=%d", m.IdleTimeout, m.HardTimeout)
		return b.String()
	case *openflow.PacketOut:
		var b strings.Builder
		b.WriteString("packetout|")
		for _, a := range m.Actions {
			fmt.Fprintf(&b, "out:%d,", a.Port)
		}
		pf, err := openflow.ParsePacket(m.Data, 0)
		if err == nil {
			fmt.Fprintf(&b, "|eth=0x%04x|src=%s|dst=%s", pf.EthType, pf.EthSrc, pf.EthDst)
		}
		return b.String()
	default:
		return strings.ToLower(msg.Type().String())
	}
}
