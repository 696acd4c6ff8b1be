// Package dataplane models the forwarding plane: OpenFlow 1.0 switches with
// priority flow tables, idle/hard timeouts and PACKET_IN generation on
// table miss; end hosts that answer ARP; a fabric that moves frames across
// links; and the programmable replicator switch (the OVS of §VI-A) that
// JURY uses to intercept and replicate southbound triggers.
package dataplane

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/topo"
)

// FlowState is the lifecycle state of a flow entry. ONOS distinguishes
// PENDING_ADD from ADDED by comparing its FlowsDB against switch state; the
// PENDING_ADD fault of the appendix exploits a mismatch.
type FlowState uint8

// Flow entry states.
const (
	FlowPendingAdd FlowState = iota + 1
	FlowAdded
)

// FlowEntry is one installed flow rule.
type FlowEntry struct {
	Match       openflow.Match
	Priority    uint16
	Actions     []openflow.Action
	Cookie      uint64
	IdleTimeout uint16
	HardTimeout uint16
	Flags       uint16
	State       FlowState

	InstalledAt time.Duration
	LastHit     time.Duration
	Packets     uint64
	Bytes       uint64

	// key is the entry's identity in its switch's index, fixed at insert.
	key flowKey
	// seq orders entries of equal priority as table does: it is drawn
	// when a key is first installed, and an ADD replacing the entry of
	// its key keeps the replaced entry's seq.
	seq uint64
}

// flowKey identifies a flow entry the way OpenFlow ADD, MODIFY_STRICT and
// DELETE_STRICT address one: its match with wildcarded values normalized
// away, and its priority.
type flowKey struct {
	match    openflow.Match
	priority uint16
}

// shape is one tuple of the tuple-space search: the entries of a
// wildcard pattern and priority, n of them installed.
type shape struct {
	wildcards uint32
	priority  uint16
	n         int
}

// NoBuffer is the OpenFlow buffer id meaning "packet not buffered".
const NoBuffer uint32 = 0xFFFFFFFF

// Switch is a simulated OpenFlow 1.0 switch.
type Switch struct {
	eng  *simnet.Engine
	dpid topo.DPID

	ports []uint16
	// table holds the entries sorted by descending priority, entries of
	// equal priority in insertion order. index maps each entry's key to
	// it: an ADD overwrites the entry of its key, so every key names at
	// most one entry, and an entry is in table iff index maps its key to
	// it.
	table []*FlowEntry
	index map[flowKey]*FlowEntry
	// shapes holds every distinct (Wildcards, Priority) of the installed
	// entries with its entry count, sorted by descending priority. Lookup
	// probes index once per shape (tuple-space search, as Open vSwitch's
	// classifier does) instead of testing every entry.
	shapes  []shape
	nextSeq uint64

	// sendUp delivers a message on the southbound channel toward the
	// controller; the replicator interposes here.
	sendUp func(msg openflow.Message)
	// forward emits a frame out a physical port into the fabric.
	forward func(frame []byte, outPort uint16, inPort uint16)

	// TableMissToController controls whether misses produce PACKET_INs.
	TableMissToController bool
	// AcceptInvalidMatch reproduces the "ODL incorrect FLOW_MOD" fault
	// environment (§III-B T3): an OpenFlow 1.0 switch silently accepting
	// a FLOW_MOD whose match violates the field hierarchy, discarding the
	// incorrect fields.
	AcceptInvalidMatch bool
	// HoldPendingAdd keeps installed entries in FlowPendingAdd (appendix
	// fault 4) instead of transitioning them to FlowAdded.
	HoldPendingAdd bool

	xid        uint32
	packetIns  uint64
	flowMods   uint64
	packetOuts uint64
	dropped    uint64
}

// NewSwitch creates a switch. Callbacks are wired by the fabric/cluster.
func NewSwitch(eng *simnet.Engine, dpid topo.DPID) *Switch {
	return &Switch{eng: eng, dpid: dpid, TableMissToController: true, index: make(map[flowKey]*FlowEntry)}
}

// DPID returns the datapath id.
func (s *Switch) DPID() topo.DPID { return s.dpid }

// SetPorts records the switch's physical ports (reported in
// FEATURES_REPLY).
func (s *Switch) SetPorts(ports []uint16) {
	s.ports = append([]uint16(nil), ports...)
}

// Ports returns the switch's physical ports.
func (s *Switch) Ports() []uint16 {
	return append([]uint16(nil), s.ports...)
}

// SetSendUp wires the southbound channel toward the controller.
func (s *Switch) SetSendUp(fn func(msg openflow.Message)) { s.sendUp = fn }

// SetForward wires the data-plane egress callback.
func (s *Switch) SetForward(fn func(frame []byte, outPort, inPort uint16)) { s.forward = fn }

// Stats counters.
func (s *Switch) PacketIns() uint64  { return s.packetIns }
func (s *Switch) FlowMods() uint64   { return s.flowMods }
func (s *Switch) PacketOuts() uint64 { return s.packetOuts }
func (s *Switch) Dropped() uint64    { return s.dropped }

// Table returns the flow entries sorted by descending priority.
func (s *Switch) Table() []*FlowEntry {
	out := make([]*FlowEntry, len(s.table))
	copy(out, s.table)
	return out
}

// Lookup returns the highest-priority entry covering pf, the earliest
// installed among equals, if any: the first entry of table whose Match
// Covers pf. An entry covers pf exactly when pf's fields, normalized
// under the entry's wildcards, equal the entry's normalized match, so
// each shape is one index probe.
func (s *Switch) Lookup(pf openflow.PacketFields) (*FlowEntry, bool) {
	var best *FlowEntry
	for _, sh := range s.shapes {
		if best != nil && sh.priority < best.Priority {
			break
		}
		m := openflow.Match{
			Wildcards: sh.wildcards,
			InPort:    pf.InPort,
			DLSrc:     pf.EthSrc,
			DLDst:     pf.EthDst,
			DLVLAN:    pf.VLAN,
			DLVLANPCP: pf.VLANPCP,
			DLType:    pf.EthType,
			NWTOS:     pf.IPTOS,
			NWProto:   pf.IPProto,
			NWSrc:     pf.IPSrc,
			NWDst:     pf.IPDst,
			TPSrc:     pf.TPSrc,
			TPDst:     pf.TPDst,
		}.Normalized()
		if e, ok := s.index[flowKey{m, sh.priority}]; ok && (best == nil || e.seq < best.seq) {
			best = e
		}
	}
	return best, best != nil
}

// Inject delivers a frame arriving on inPort, as if from the wire.
func (s *Switch) Inject(frame []byte, inPort uint16) {
	pf, err := openflow.ParsePacket(frame, inPort)
	if err != nil {
		s.dropped++
		return
	}
	entry, ok := s.Lookup(pf)
	if !ok {
		if s.TableMissToController {
			s.sendPacketIn(frame, inPort, openflow.ReasonNoMatch)
		} else {
			s.dropped++
		}
		return
	}
	entry.Packets++
	entry.Bytes += uint64(len(frame))
	entry.LastHit = s.eng.Now()
	s.applyActions(entry.Actions, frame, inPort)
}

func (s *Switch) applyActions(actions []openflow.Action, frame []byte, inPort uint16) {
	if len(actions) == 0 {
		s.dropped++ // empty action list drops the packet
		return
	}
	for _, a := range actions {
		switch a.Port {
		case openflow.PortController:
			s.sendPacketIn(frame, inPort, openflow.ReasonAction)
		case openflow.PortNone:
			s.dropped++
		default:
			if s.forward != nil {
				s.forward(frame, a.Port, inPort)
			}
		}
	}
}

func (s *Switch) sendPacketIn(frame []byte, inPort uint16, reason openflow.PacketInReason) {
	if s.sendUp == nil {
		return
	}
	s.xid++
	s.packetIns++
	s.sendUp(&openflow.PacketIn{
		XID:      s.xid,
		BufferID: NoBuffer,
		TotalLen: uint16(len(frame)),
		InPort:   inPort,
		Reason:   reason,
		Data:     frame,
	})
}

// HandleControllerMessage processes a message arriving from the controller.
func (s *Switch) HandleControllerMessage(msg openflow.Message) {
	switch m := msg.(type) {
	case *openflow.Hello:
		s.sendUp(&openflow.Hello{XID: m.XID})
	case *openflow.EchoRequest:
		s.sendUp(&openflow.EchoReply{XID: m.XID, Data: m.Data})
	case *openflow.FeaturesRequest:
		s.sendUp(&openflow.FeaturesReply{
			XID:        m.XID,
			DatapathID: uint64(s.dpid),
			NumBuffers: 256,
			NumTables:  1,
			Ports:      s.Ports(),
		})
	case *openflow.FlowMod:
		s.handleFlowMod(m)
	case *openflow.PacketOut:
		s.packetOuts++
		data := m.Data
		s.applyActions(m.Actions, data, m.InPort)
	case *openflow.FlowStatsRequest:
		s.sendUp(s.flowStats(m))
	case *openflow.BarrierRequest:
		s.sendUp(&openflow.BarrierReply{XID: m.XID})
	}
}

// flowStats builds the reply to a flow-stats request. Entries still in
// PENDING_ADD are not reported — the store-vs-switch comparison gap the
// appendix PENDING_ADD fault exploits.
func (s *Switch) flowStats(req *openflow.FlowStatsRequest) *openflow.FlowStatsReply {
	reply := &openflow.FlowStatsReply{XID: req.XID}
	for _, e := range s.table {
		if e.State != FlowAdded {
			continue
		}
		reply.Flows = append(reply.Flows, openflow.FlowStat{
			Match:       e.Match,
			Priority:    e.Priority,
			DurationSec: uint32((s.eng.Now() - e.InstalledAt) / time.Second),
			IdleTimeout: e.IdleTimeout,
			HardTimeout: e.HardTimeout,
			Cookie:      e.Cookie,
			PacketCount: e.Packets,
			ByteCount:   e.Bytes,
		})
	}
	return reply
}

// NotifyPortStatus emits a PORT_STATUS message for a port's link change.
func (s *Switch) NotifyPortStatus(port uint16, down bool) {
	if s.sendUp == nil {
		return
	}
	s.xid++
	s.sendUp(&openflow.PortStatus{XID: s.xid, Reason: openflow.PortModify, Port: port, Down: down})
}

func (s *Switch) handleFlowMod(m *openflow.FlowMod) {
	s.flowMods++
	match := m.Match
	if !match.HierarchyValid() {
		if !s.AcceptInvalidMatch {
			s.sendUp(&openflow.ErrorMsg{XID: m.XID, ErrType: 3 /* FLOW_MOD_FAILED */, Code: 0})
			return
		}
		// Faulty environment: silently discard the invalid (orphaned)
		// fields, installing a broader rule than requested — the switch
		// state now disagrees with the controller's FlowsDB.
		match = stripInvalidFields(match)
	}
	switch m.Command {
	case openflow.FlowAdd:
		state := FlowAdded
		if s.HoldPendingAdd {
			state = FlowPendingAdd
		}
		entry := &FlowEntry{
			Match:       match,
			Priority:    m.Priority,
			Actions:     m.Actions,
			Cookie:      m.Cookie,
			IdleTimeout: m.IdleTimeout,
			HardTimeout: m.HardTimeout,
			Flags:       m.Flags,
			State:       state,
			InstalledAt: s.eng.Now(),
			LastHit:     s.eng.Now(),
		}
		s.insert(entry)
		s.scheduleTimeouts(entry)
	case openflow.FlowModifyStrict:
		if e, ok := s.index[flowKey{match.Normalized(), m.Priority}]; ok {
			e.Actions = m.Actions
		}
	case openflow.FlowModify:
		norm := match.Normalized()
		for _, e := range s.table {
			if e.key.match == norm {
				e.Actions = m.Actions
			}
		}
	case openflow.FlowDelete, openflow.FlowDeleteStrict:
		s.deleteMatching(match, m.Priority, m.Command == openflow.FlowDeleteStrict)
	}
}

// insert installs entry. An entry of the same key is replaced in place
// (OpenFlow ADD overwrites); otherwise entry goes after every entry of
// greater or equal priority.
func (s *Switch) insert(entry *FlowEntry) {
	entry.key = flowKey{entry.Match.Normalized(), entry.Priority}
	if old, ok := s.index[entry.key]; ok {
		entry.seq = old.seq
		s.table[s.position(old)] = entry
	} else {
		s.nextSeq++
		entry.seq = s.nextSeq
		i := sort.Search(len(s.table), func(i int) bool { return s.table[i].Priority < entry.Priority })
		s.table = slices.Insert(s.table, i, entry)
		s.countShape(entry, +1)
	}
	s.index[entry.key] = entry
}

// countShape adds delta to the count of entry's shape, adding the shape
// after every shape of greater or equal priority, or dropping it at zero.
func (s *Switch) countShape(entry *FlowEntry, delta int) {
	w, p := entry.Match.Wildcards, entry.Priority
	i := 0
	for ; i < len(s.shapes) && s.shapes[i].priority >= p; i++ {
		if sh := &s.shapes[i]; sh.wildcards == w && sh.priority == p {
			if sh.n += delta; sh.n == 0 {
				s.shapes = slices.Delete(s.shapes, i, i+1)
			}
			return
		}
	}
	s.shapes = slices.Insert(s.shapes, i, shape{w, p, delta})
}

// position returns the index in table of entry, which must be installed:
// a binary search to the first entry of its priority, then a pointer scan
// over that priority's run.
func (s *Switch) position(entry *FlowEntry) int {
	i := sort.Search(len(s.table), func(i int) bool { return s.table[i].Priority <= entry.Priority })
	for s.table[i] != entry {
		i++
	}
	return i
}

// remove uninstalls entry, which must be installed.
func (s *Switch) remove(entry *FlowEntry) {
	i := s.position(entry)
	s.table = slices.Delete(s.table, i, i+1)
	delete(s.index, entry.key)
	s.countShape(entry, -1)
}

func (s *Switch) deleteMatching(match openflow.Match, priority uint16, strict bool) {
	norm := match.Normalized()
	if strict {
		if e, ok := s.index[flowKey{norm, priority}]; ok {
			s.remove(e)
			s.emitFlowRemoved(e, openflow.RemovedDelete)
		}
		return
	}
	kept := s.table[:0]
	for _, e := range s.table {
		if e.key.match == norm {
			delete(s.index, e.key)
			s.countShape(e, -1)
			s.emitFlowRemoved(e, openflow.RemovedDelete)
			continue
		}
		kept = append(kept, e)
	}
	clear(s.table[len(kept):])
	s.table = kept
}

func (s *Switch) scheduleTimeouts(entry *FlowEntry) {
	if entry.HardTimeout > 0 {
		d := time.Duration(entry.HardTimeout) * time.Second
		s.eng.Schedule(d, func() { s.expire(entry, openflow.RemovedHardTimeout) })
	}
	if entry.IdleTimeout > 0 {
		s.scheduleIdleCheck(entry)
	}
}

func (s *Switch) scheduleIdleCheck(entry *FlowEntry) {
	idle := time.Duration(entry.IdleTimeout) * time.Second
	s.eng.At(entry.LastHit+idle, func() {
		if !s.contains(entry) {
			return
		}
		if s.eng.Now()-entry.LastHit >= idle {
			s.expire(entry, openflow.RemovedIdleTimeout)
			return
		}
		s.scheduleIdleCheck(entry)
	})
}

// expire removes entry on a timeout, unless it was already deleted or
// replaced by an ADD of its key.
func (s *Switch) expire(entry *FlowEntry, reason openflow.FlowRemovedReason) {
	if !s.contains(entry) {
		return
	}
	s.remove(entry)
	s.emitFlowRemoved(entry, reason)
}

func (s *Switch) contains(entry *FlowEntry) bool { return s.index[entry.key] == entry }

func (s *Switch) emitFlowRemoved(entry *FlowEntry, reason openflow.FlowRemovedReason) {
	if entry.Flags&openflow.FlagSendFlowRem == 0 || s.sendUp == nil {
		return
	}
	s.xid++
	s.sendUp(&openflow.FlowRemoved{
		XID:         s.xid,
		Match:       entry.Match,
		Cookie:      entry.Cookie,
		Priority:    entry.Priority,
		Reason:      reason,
		DurationSec: uint32((s.eng.Now() - entry.InstalledAt) / time.Second),
		PacketCount: entry.Packets,
		ByteCount:   entry.Bytes,
	})
}

// stripInvalidFields removes match constraints that violate the OpenFlow
// 1.0 prerequisite hierarchy, mimicking the permissive switch of the T3
// fault.
func stripInvalidFields(m openflow.Match) openflow.Match {
	w := m.Wildcards
	dlTypeSet := w&openflow.WildcardDLType == 0
	ipOrARP := dlTypeSet && (m.DLType == openflow.EthTypeIPv4 || m.DLType == openflow.EthTypeARP)
	if !ipOrARP {
		m = m.WithNWSrcMask(32).WithNWDstMask(32)
		m.Wildcards |= openflow.WildcardNWProto | openflow.WildcardNWTOS
	}
	l4OK := m.Wildcards&openflow.WildcardNWProto == 0 &&
		(m.NWProto == openflow.IPProtoTCP || m.NWProto == openflow.IPProtoUDP || m.NWProto == openflow.IPProtoICMP)
	if !l4OK {
		m.Wildcards |= openflow.WildcardTPSrc | openflow.WildcardTPDst
	}
	return m
}

// String describes the switch.
func (s *Switch) String() string {
	return fmt.Sprintf("switch(%s, %d flows)", s.dpid, len(s.table))
}
