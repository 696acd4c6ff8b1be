package dataplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
)

// refSwitch is the flow table as it was before Switch kept an index: a
// linear Match.Equal scan per ADD followed by a stable sort, and linear
// scans for MODIFY, DELETE, expiry and the idle check. The differential
// test below holds the indexed table to it.
type refSwitch struct {
	eng         *simnet.Engine
	table       []*FlowEntry
	accept      bool
	holdPending bool
	xid         uint32
	up          []openflow.Message
}

func (s *refSwitch) lookup(pf openflow.PacketFields) (*FlowEntry, bool) {
	for _, e := range s.table {
		if e.Match.Covers(pf) {
			return e, true
		}
	}
	return nil, false
}

func (s *refSwitch) inject(frame []byte, inPort uint16) {
	pf, err := openflow.ParsePacket(frame, inPort)
	if err != nil {
		return
	}
	entry, ok := s.lookup(pf)
	if !ok {
		s.xid++
		s.up = append(s.up, &openflow.PacketIn{XID: s.xid, BufferID: NoBuffer, TotalLen: uint16(len(frame)),
			InPort: inPort, Reason: openflow.ReasonNoMatch, Data: frame})
		return
	}
	entry.Packets++
	entry.Bytes += uint64(len(frame))
	entry.LastHit = s.eng.Now()
}

func (s *refSwitch) flowMod(m *openflow.FlowMod) {
	match := m.Match
	if !match.HierarchyValid() {
		if !s.accept {
			s.up = append(s.up, &openflow.ErrorMsg{XID: m.XID, ErrType: 3, Code: 0})
			return
		}
		match = stripInvalidFields(match)
	}
	switch m.Command {
	case openflow.FlowAdd:
		state := FlowAdded
		if s.holdPending {
			state = FlowPendingAdd
		}
		entry := &FlowEntry{Match: match, Priority: m.Priority, Actions: m.Actions, Cookie: m.Cookie,
			IdleTimeout: m.IdleTimeout, HardTimeout: m.HardTimeout, Flags: m.Flags, State: state,
			InstalledAt: s.eng.Now(), LastHit: s.eng.Now()}
		s.insert(entry)
		s.scheduleTimeouts(entry)
	case openflow.FlowModify, openflow.FlowModifyStrict:
		for _, e := range s.table {
			if e.Match.Equal(match) && (m.Command == openflow.FlowModify || e.Priority == m.Priority) {
				e.Actions = m.Actions
			}
		}
	case openflow.FlowDelete, openflow.FlowDeleteStrict:
		s.deleteMatching(match, m.Priority, m.Command == openflow.FlowDeleteStrict)
	}
}

func (s *refSwitch) insert(entry *FlowEntry) {
	for i, e := range s.table {
		if e.Match.Equal(entry.Match) && e.Priority == entry.Priority {
			s.table[i] = entry
			return
		}
	}
	s.table = append(s.table, entry)
	sort.SliceStable(s.table, func(i, j int) bool { return s.table[i].Priority > s.table[j].Priority })
}

func (s *refSwitch) deleteMatching(match openflow.Match, priority uint16, strict bool) {
	kept := s.table[:0]
	for _, e := range s.table {
		remove := e.Match.Equal(match)
		if strict {
			remove = remove && e.Priority == priority
		}
		if remove {
			s.emitFlowRemoved(e, openflow.RemovedDelete)
			continue
		}
		kept = append(kept, e)
	}
	s.table = kept
}

func (s *refSwitch) scheduleTimeouts(entry *FlowEntry) {
	if entry.HardTimeout > 0 {
		s.eng.Schedule(time.Duration(entry.HardTimeout)*time.Second, func() { s.expire(entry, openflow.RemovedHardTimeout) })
	}
	if entry.IdleTimeout > 0 {
		s.scheduleIdleCheck(entry)
	}
}

func (s *refSwitch) scheduleIdleCheck(entry *FlowEntry) {
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

func (s *refSwitch) expire(entry *FlowEntry, reason openflow.FlowRemovedReason) {
	for i, e := range s.table {
		if e == entry {
			s.table = append(s.table[:i], s.table[i+1:]...)
			s.emitFlowRemoved(entry, reason)
			return
		}
	}
}

func (s *refSwitch) contains(entry *FlowEntry) bool {
	for _, e := range s.table {
		if e == entry {
			return true
		}
	}
	return false
}

func (s *refSwitch) emitFlowRemoved(entry *FlowEntry, reason openflow.FlowRemovedReason) {
	if entry.Flags&openflow.FlagSendFlowRem == 0 {
		return
	}
	s.xid++
	s.up = append(s.up, &openflow.FlowRemoved{XID: s.xid, Match: entry.Match, Cookie: entry.Cookie,
		Priority: entry.Priority, Reason: reason, DurationSec: uint32((s.eng.Now() - entry.InstalledAt) / time.Second),
		PacketCount: entry.Packets, ByteCount: entry.Bytes})
}

// flowGen draws flow mods and packets over small value pools, so matches,
// keys and packets collide often.
type flowGen struct {
	rng   *rand.Rand
	bases []openflow.Match
}

var (
	genMACs     = []openflow.MAC{{1}, {2}, {3}}
	genIPs      = []openflow.IPv4{{10, 0, 0, 1}, {10, 0, 0, 2}, {10, 0, 1, 1}}
	genTypes    = []uint16{openflow.EthTypeIPv4, openflow.EthTypeARP, openflow.EthTypeLLDP}
	genProtos   = []uint8{openflow.IPProtoTCP, openflow.IPProtoUDP, openflow.IPProtoICMP}
	genPorts    = []uint16{80, 443}
	genPrios    = []uint16{0, 5, 10, 10, 20, 65535}
	genCommands = []openflow.FlowModCommand{openflow.FlowAdd, openflow.FlowAdd, openflow.FlowAdd,
		openflow.FlowModify, openflow.FlowModifyStrict, openflow.FlowDelete, openflow.FlowDeleteStrict}
)

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func newFlowGen(seed int64) *flowGen {
	g := &flowGen{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 16; i++ {
		g.bases = append(g.bases, g.baseMatch())
	}
	return g
}

// baseMatch constrains a random subset of fields, sometimes breaking the
// OpenFlow 1.0 prerequisite hierarchy (L3/L4 fields without dl_type or
// nw_proto).
func (g *flowGen) baseMatch() openflow.Match {
	rng := g.rng
	m := openflow.MatchAll()
	if rng.Intn(2) == 0 {
		m.Wildcards &^= openflow.WildcardDLSrc
		m.DLSrc = pick(rng, genMACs)
	}
	if rng.Intn(2) == 0 {
		m.Wildcards &^= openflow.WildcardDLDst
		m.DLDst = pick(rng, genMACs)
	}
	if rng.Intn(3) == 0 {
		m.Wildcards &^= openflow.WildcardDLType
		m.DLType = pick(rng, genTypes)
	}
	if rng.Intn(4) == 0 {
		m.Wildcards &^= openflow.WildcardNWProto
		m.NWProto = pick(rng, genProtos)
	}
	if rng.Intn(4) == 0 {
		m = m.WithNWSrcMask(pick(rng, []uint32{0, 8, 24, 32}))
		m.NWSrc = pick(rng, genIPs)
	}
	if rng.Intn(5) == 0 {
		m.Wildcards &^= openflow.WildcardTPDst
		m.TPDst = pick(rng, genPorts)
	}
	if rng.Intn(6) == 0 {
		m.Wildcards &^= openflow.WildcardInPort
		m.InPort = uint16(1 + rng.Intn(3))
	}
	// The fields below are constrained more rarely, each with its
	// prerequisites, so every field Covers reads is in some matches
	// without making more of them invalid.
	if rng.Intn(8) == 0 {
		m.Wildcards &^= openflow.WildcardDLVLAN
		m.DLVLAN = uint16(rng.Intn(2))
	}
	if rng.Intn(8) == 0 {
		m.Wildcards &^= openflow.WildcardDLVLANPCP
		m.DLVLANPCP = uint8(rng.Intn(2))
	}
	if rng.Intn(4) == 0 {
		m.Wildcards &^= openflow.WildcardDLType | openflow.WildcardNWProto
		m.DLType, m.NWProto = openflow.EthTypeIPv4, pick(rng, genProtos)
		switch rng.Intn(3) {
		case 0:
			m.Wildcards &^= openflow.WildcardNWTOS
			m.NWTOS = uint8(4 * rng.Intn(2))
		case 1:
			m = m.WithNWDstMask(pick(rng, []uint32{0, 8, 24, 32}))
			m.NWDst = pick(rng, genIPs)
		default:
			m.Wildcards &^= openflow.WildcardTPSrc
			m.TPSrc = uint16(rng.Intn(3))
		}
	}
	return m
}

// scribble rewrites the values of m's wildcarded fields and masked-off
// address bits: the result is Equal to m, but not == to it.
func (g *flowGen) scribble(m openflow.Match) openflow.Match {
	rng := g.rng
	w := m.Wildcards
	if w&openflow.WildcardInPort != 0 {
		m.InPort = uint16(rng.Intn(5))
	}
	if w&openflow.WildcardDLSrc != 0 {
		m.DLSrc = openflow.MAC{byte(rng.Intn(4)), byte(rng.Intn(4))}
	}
	if w&openflow.WildcardDLDst != 0 {
		m.DLDst = openflow.MAC{byte(rng.Intn(4))}
	}
	if w&openflow.WildcardDLVLAN != 0 {
		m.DLVLAN = uint16(rng.Intn(3))
	}
	if w&openflow.WildcardDLVLANPCP != 0 {
		m.DLVLANPCP = uint8(rng.Intn(3))
	}
	if w&openflow.WildcardDLType != 0 {
		m.DLType = pick(rng, genTypes)
	}
	if w&openflow.WildcardNWTOS != 0 {
		m.NWTOS = uint8(rng.Intn(3))
	}
	if w&openflow.WildcardNWProto != 0 {
		m.NWProto = pick(rng, genProtos)
	}
	if bits := m.NWSrcMaskBits(); bits > 0 {
		m.NWSrc = openflow.IPv4FromUint32(m.NWSrc.Uint32() ^ rng.Uint32()&lowBits(bits))
	}
	if bits := m.NWDstMaskBits(); bits > 0 {
		m.NWDst = openflow.IPv4FromUint32(m.NWDst.Uint32() ^ rng.Uint32()&lowBits(bits))
	}
	if w&openflow.WildcardTPSrc != 0 {
		m.TPSrc = uint16(rng.Intn(3))
	}
	if w&openflow.WildcardTPDst != 0 {
		m.TPDst = pick(rng, genPorts)
	}
	return m
}

func lowBits(bits uint32) uint32 {
	if bits >= 32 {
		return ^uint32(0)
	}
	return 1<<bits - 1
}

func (g *flowGen) flowMod(xid uint32) *openflow.FlowMod {
	rng := g.rng
	m := &openflow.FlowMod{
		XID:         xid,
		Match:       pick(rng, g.bases),
		Command:     pick(rng, genCommands),
		Priority:    pick(rng, genPrios),
		Cookie:      uint64(rng.Intn(1000)),
		IdleTimeout: uint16(pick(rng, []int{0, 0, 0, 1, 2})),
		HardTimeout: uint16(pick(rng, []int{0, 0, 0, 1, 3})),
		BufferID:    NoBuffer,
		OutPort:     openflow.PortNone,
		Actions:     []openflow.Action{openflow.Output(uint16(1 + rng.Intn(3)))},
	}
	if rng.Intn(2) == 0 {
		m.Match = g.scribble(m.Match)
	}
	if rng.Intn(3) > 0 {
		m.Flags = openflow.FlagSendFlowRem
	}
	if rng.Intn(8) == 0 {
		m.Actions = nil
	}
	return m
}

func (g *flowGen) packet() openflow.PacketFields {
	rng := g.rng
	return openflow.PacketFields{
		InPort:  uint16(1 + rng.Intn(3)),
		EthSrc:  pick(rng, genMACs),
		EthDst:  pick(rng, genMACs),
		EthType: pick(rng, genTypes),
		VLAN:    uint16(rng.Intn(2)),
		VLANPCP: uint8(rng.Intn(2)),
		IPProto: pick(rng, genProtos),
		IPTOS:   uint8(4 * rng.Intn(2)),
		IPSrc:   openflow.IPv4FromUint32(pick(rng, genIPs).Uint32() ^ uint32(rng.Intn(2))<<uint(rng.Intn(32))),
		IPDst:   openflow.IPv4FromUint32(pick(rng, genIPs).Uint32() ^ uint32(rng.Intn(2))<<uint(rng.Intn(32))),
		TPSrc:   uint16(rng.Intn(3)),
		TPDst:   pick(rng, genPorts),
	}
}

func (g *flowGen) frame() []byte {
	rng := g.rng
	return openflow.TCPPacket(pick(rng, genMACs), pick(rng, genMACs), pick(rng, genIPs), pick(rng, genIPs),
		uint16(rng.Intn(3)), pick(rng, genPorts), 0, rng.Intn(64))
}

// entryView is an entry's observable state, without the index key and
// the insertion sequence number.
func entryView(e *FlowEntry) FlowEntry {
	if e == nil {
		return FlowEntry{}
	}
	v := *e
	v.key, v.seq = flowKey{}, 0
	return v
}

func tableViews(entries []*FlowEntry) []FlowEntry {
	out := make([]FlowEntry, len(entries))
	for i, e := range entries {
		out[i] = entryView(e)
	}
	return out
}

// TestFlowTableMatchesLinearReference drives seeded random FLOW_MOD
// sequences — every command, matches equal only after normalization,
// mixed priorities, idle and hard timeouts, traffic refreshing idle
// timers, with and without AcceptInvalidMatch and HoldPendingAdd —
// through the indexed Switch and the linear-scan reference, and requires
// after every step the same table in the same order, the same Lookup
// result on random packets, and the same messages sent up (FLOW_REMOVED,
// errors and table-miss PACKET_INs, XIDs included).
func TestFlowTableMatchesLinearReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		accept, hold := seed%2 == 0, seed%3 == 0
		t.Run(fmt.Sprintf("seed%d/accept=%v/hold=%v", seed, accept, hold), func(t *testing.T) {
			engA, engB := simnet.NewEngine(seed), simnet.NewEngine(seed)
			sw := NewSwitch(engA, 1)
			sw.AcceptInvalidMatch, sw.HoldPendingAdd = accept, hold
			var up []openflow.Message
			sw.SetSendUp(func(m openflow.Message) { up = append(up, m) })
			ref := &refSwitch{eng: engB, accept: accept, holdPending: hold}
			g := newFlowGen(seed)
			now, largest := time.Duration(0), 0
			for step := 0; step < 300; step++ {
				for n := g.rng.Intn(4); n > 0; n-- {
					m := g.flowMod(uint32(step))
					sw.HandleControllerMessage(m)
					ref.flowMod(m)
				}
				for n := g.rng.Intn(4); n > 0; n-- {
					frame, inPort := g.frame(), uint16(1+g.rng.Intn(3))
					sw.Inject(frame, inPort)
					ref.inject(frame, inPort)
				}
				now += time.Duration(g.rng.Intn(600)) * time.Millisecond
				if err := engA.Run(now); err != nil {
					t.Fatal(err)
				}
				if err := engB.Run(now); err != nil {
					t.Fatal(err)
				}
				if got, want := tableViews(sw.Table()), tableViews(ref.table); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: table\n got %+v\nwant %+v", step, got, want)
				}
				if err := checkShapes(sw); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				largest = max(largest, len(ref.table))
				for i := 0; i < 8; i++ {
					pf := g.packet()
					got, gotOK := sw.Lookup(pf)
					want, wantOK := ref.lookup(pf)
					if gotOK != wantOK || !reflect.DeepEqual(entryView(got), entryView(want)) {
						t.Fatalf("step %d: Lookup(%+v) = %+v, %v; want %+v, %v", step, pf, got, gotOK, want, wantOK)
					}
				}
				if !reflect.DeepEqual(up, ref.up) {
					t.Fatalf("step %d: messages up differ:\n got %s\nwant %s", step, describe(up), describe(ref.up))
				}
			}
			removed := 0
			for _, m := range ref.up {
				if _, ok := m.(*openflow.FlowRemoved); ok {
					removed++
				}
			}
			if largest < 8 || removed == 0 {
				t.Fatalf("degenerate run: at most %d entries, %d FLOW_REMOVED", largest, removed)
			}
		})
	}
}

// checkShapes holds sw.shapes to a recount of its table: every
// (Wildcards, Priority) of an installed entry once, with its entry
// count, in descending priority order.
func checkShapes(sw *Switch) error {
	want := make(map[shape]int)
	for _, e := range sw.table {
		want[shape{e.Match.Wildcards, e.Priority, 0}]++
	}
	got := make(map[shape]int)
	for i, sh := range sw.shapes {
		if i > 0 && sh.priority > sw.shapes[i-1].priority {
			return fmt.Errorf("shapes out of priority order: %+v", sw.shapes)
		}
		got[shape{sh.wildcards, sh.priority, 0}] += sh.n
	}
	if !reflect.DeepEqual(got, want) || len(sw.shapes) != len(want) {
		return fmt.Errorf("shapes %+v; table has %v", sw.shapes, want)
	}
	return nil
}

func describe(msgs []openflow.Message) string {
	s := ""
	for _, m := range msgs {
		s += fmt.Sprintf("%T%+v ", m, m)
	}
	return s
}
