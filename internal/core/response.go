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
	"strconv"
	"strings"
	"time"

	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/slab"
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
	At time.Duration // protocol time base is virtual ns

	// free marks responses that ride an existing replication stream
	// (cache updates) and therefore cost no additional network traffic.
	free bool
}

// IsCache reports whether the response body is a cache entry.
func (r Response) IsCache() bool { return isCache(&r) }

// isCache is IsCache through a pointer: a call on a *Response's value
// receiver copies the whole Response, even inlined.
func isCache(r *Response) bool {
	return r.Kind == CacheUpdate || (r.Kind == SecondaryExec && r.Cache != "")
}

// Body returns the canonical response body used for consensus comparison:
// identical side-effects produce identical bodies regardless of which
// controller produced them.
func (r Response) Body() string {
	if r.Kind == ExecDone {
		return "done"
	}
	var buf [512]byte
	if r.IsCache() && r.Cache == store.FlowsDB {
		if rule, err := controller.DecodeFlowRule(r.Value); err == nil {
			return string(r.appendBody(buf[:0], &rule))
		}
	}
	return string(r.appendBody(buf[:0], nil))
}

// appendBody appends the Body() of a response other than ExecDone. rule is
// a cache response's FlowsDB value decoded, rendered without per-controller
// attribution (origin, trigger taint, state) so the same rule computed by
// different replicas compares equal; nil (another cache, or a value that
// does not decode) compares the value raw.
func (r *Response) appendBody(b []byte, rule *controller.FlowRule) []byte {
	if !r.IsCache() {
		return append(append(appendNetSlot(b, r.DPID, r.MsgType), '|'), r.MsgBody...)
	}
	b = append(append(append(b, "cache|"...), r.Cache...), '|')
	b = append(append(append(append(b, r.Op.String()...), '|'), r.Key...), '|')
	if rule == nil {
		return append(b, r.Value...)
	}
	canon := *rule
	canon.Origin, canon.Trigger, canon.State = 0, "", ""
	return canon.AppendEncode(b)
}

// Slot returns the comparison slot within a trigger: triggers may elicit
// several side-effects (one flow rule per path switch), and consensus is
// evaluated per slot.
func (r Response) Slot() string {
	if r.Kind == ExecDone {
		return "done"
	}
	var buf [128]byte
	return string(r.appendSlot(buf[:0]))
}

// appendSlot appends the Slot() of a response other than ExecDone.
func (r *Response) appendSlot(b []byte) []byte {
	if isCache(r) {
		return append(append(append(append(b, "cache|"...), r.Cache...), '|'), r.Key...)
	}
	return appendNetSlot(b, r.DPID, r.MsgType)
}

// appendNetSlot appends the Slot() of a network response.
func appendNetSlot(b []byte, dpid topo.DPID, t openflow.MsgType) []byte {
	return append(append(dpid.AppendTo(append(b, "net|"...)), '|'), t.String()...)
}

// sameSlotFields reports whether two responses agree on every field Slot
// reads, so one's slot is the other's; sameBodyFields, for two responses
// that do, extends that to the fields Body reads. The validator uses them
// to let byte-equal replicas share one canonicalization; ExecDone's
// constant forms are never worth sharing.
func sameSlotFields(a, b *Response) bool {
	if a.Kind == ExecDone || b.Kind == ExecDone || isCache(a) != isCache(b) {
		return false
	}
	if isCache(a) {
		return a.Cache == b.Cache && a.Key == b.Key
	}
	return a.DPID == b.DPID && a.MsgType == b.MsgType
}

func sameBodyFields(a, b *Response) bool {
	if isCache(a) {
		return a.Op == b.Op && a.Value == b.Value
	}
	return a.MsgBody == b.MsgBody
}

// CarveStrings re-points r's string fields at strings carved from s, so r
// outlives whatever its strings aliased. last holds the strings earlier
// calls carved, one per field: a field equal to its last value reuses that
// string — the k secondaries of a trigger sent back to back repeat the
// primary's Trigger, Cache, Key and Value — and the other non-empty fields
// are carved and become the new last values.
func (r *Response) CarveStrings(last *[6]string, s *slab.Strings) {
	for i, f := range r.stringFields() {
		switch {
		case *f == last[i]:
			*f = last[i]
		case *f != "":
			*f = s.String(*f)
			last[i] = *f
		}
	}
}

// OwnStrings re-points the string fields of rs at one fresh allocation
// holding exactly their bytes, for responses someone keeps: they pin no
// slab and nothing else. Repeats share one copy as CarveStrings shares
// them, so a trigger's responses store its Trigger, Cache, Key and Value
// once.
func OwnStrings(rs []Response) {
	n := 0
	var last [6]string
	for i := range rs {
		for j, f := range rs[i].stringFields() {
			if *f != "" && *f != last[j] {
				n += len(*f)
				last[j] = *f
			}
		}
	}
	owned := slab.Exact(n)
	last = [6]string{}
	for i := range rs {
		rs[i].CarveStrings(&last, &owned)
	}
}

// stringFields points at r's string fields.
func (r *Response) stringFields() [6]*string {
	return [6]*string{(*string)(&r.Trigger), (*string)(&r.Cache), &r.Key, &r.Value, &r.MsgBody, &r.Prev}
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

// CanonicalMessage renders a southbound message for comparison: FLOW_MODs
// by their rule semantics, PACKET_OUTs by their action and payload class.
func CanonicalMessage(msg openflow.Message) string {
	switch m := msg.(type) {
	case *openflow.FlowMod:
		var buf [256]byte
		return string(appendFlowMod(buf[:0], m.Command, m.Priority, m.Match, m.Actions, m.IdleTimeout, m.HardTimeout))
	case *openflow.PacketOut:
		var buf [128]byte
		b := append(buf[:0], "packetout|"...)
		for _, a := range m.Actions {
			b = append(strconv.AppendUint(append(b, "out:"...), uint64(a.Port), 10), ',')
		}
		if pf, err := openflow.ParsePacket(m.Data, 0); err == nil {
			b = openflow.AppendHex(append(b, "|eth=0x"...), uint64(pf.EthType), 4)
			b = pf.EthSrc.AppendTo(append(b, "|src="...))
			b = pf.EthDst.AppendTo(append(b, "|dst="...))
		}
		return string(b)
	default:
		return strings.ToLower(msg.Type().String())
	}
}

// appendFlowMod appends CanonicalMessage's form of a FLOW_MOD with these
// fields.
func appendFlowMod(b []byte, cmd openflow.FlowModCommand, prio uint16, match openflow.Match, actions []openflow.Action, idle, hard uint16) []byte {
	b = cmd.AppendTo(append(b, "flowmod|"...))
	b = strconv.AppendUint(append(b, "|prio="...), uint64(prio), 10)
	b = append(match.AppendTo(append(b, '|')), '|')
	for _, a := range actions {
		b = append(strconv.AppendUint(append(b, "out:"...), uint64(a.Port), 10), ',')
	}
	b = strconv.AppendUint(append(b, "|idle="...), uint64(idle), 10)
	return strconv.AppendUint(append(b, "|hard="...), uint64(hard), 10)
}

// appendExpectedFlowMod appends the Body() of the FLOW_MOD network write a
// decoded FlowsDB rule must produce on the wire: a NetworkWrite to rule.DPID
// whose MsgBody is CanonicalMessage(rule.FlowMod(xid)), rendered from the
// rule without building the message.
func appendExpectedFlowMod(b []byte, rule *controller.FlowRule) []byte {
	b = append(appendNetSlot(b, rule.DPID, openflow.TypeFlowMod), '|')
	return appendFlowMod(b, openflow.FlowModCommand(rule.Command), rule.Priority, rule.Match, rule.Actions, rule.IdleTimeout, rule.HardTimeout)
}
