package openflow

import (
	"encoding/binary"
	"strconv"
)

// MatchLen is the encoded length of ofp_match (OpenFlow 1.0).
const MatchLen = 40

// Wildcard flag bits (ofp_flow_wildcards).
const (
	WildcardInPort     uint32 = 1 << 0
	WildcardDLVLAN     uint32 = 1 << 1
	WildcardDLSrc      uint32 = 1 << 2
	WildcardDLDst      uint32 = 1 << 3
	WildcardDLType     uint32 = 1 << 4
	WildcardNWProto    uint32 = 1 << 5
	WildcardTPSrc      uint32 = 1 << 6
	WildcardTPDst      uint32 = 1 << 7
	wildcardNWSrcShift        = 8
	wildcardNWDstShift        = 14
	WildcardDLVLANPCP  uint32 = 1 << 20
	WildcardNWTOS      uint32 = 1 << 21
	// WildcardAll wildcards every field.
	WildcardAll uint32 = 0x3FFFFF
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the address in colon-hex form.
func (m MAC) String() string {
	var buf [17]byte
	return string(m.AppendTo(buf[:0]))
}

// AppendTo appends String's rendering to b.
func (m MAC) AppendTo(b []byte) []byte {
	for i, x := range m {
		if i > 0 {
			b = append(b, ':')
		}
		b = AppendHex(b, uint64(x), 2)
	}
	return b
}

// AppendHex appends the low 4*digits bits of v as that many lower-case hex
// digits, zero-padded as fmt's %0*x would.
func AppendHex(b []byte, v uint64, digits int) []byte {
	for shift := 4 * (digits - 1); shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[v>>uint(shift)&0xF])
	}
	return b
}

// IsZero reports whether the address is all zeros.
func (m MAC) IsZero() bool { return m == MAC{} }

// IPv4 is a 32-bit IPv4 address in host-independent array form.
type IPv4 [4]byte

// String renders the address in dotted-quad form.
func (ip IPv4) String() string {
	var buf [15]byte
	return string(ip.AppendTo(buf[:0]))
}

// AppendTo appends String's rendering to b.
func (ip IPv4) AppendTo(b []byte) []byte {
	for i, x := range ip {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(x), 10)
	}
	return b
}

// Uint32 returns the address as a big-endian integer.
func (ip IPv4) Uint32() uint32 { return binary.BigEndian.Uint32(ip[:]) }

// IPv4FromUint32 converts a big-endian integer to an address.
func IPv4FromUint32(v uint32) IPv4 {
	var ip IPv4
	binary.BigEndian.PutUint32(ip[:], v)
	return ip
}

// Match is the OpenFlow 1.0 ofp_match. A set wildcard bit means the
// corresponding field is ignored when matching.
type Match struct {
	Wildcards uint32
	InPort    uint16
	DLSrc     MAC
	DLDst     MAC
	DLVLAN    uint16
	DLVLANPCP uint8
	DLType    uint16
	NWTOS     uint8
	NWProto   uint8
	NWSrc     IPv4
	NWDst     IPv4
	TPSrc     uint16
	TPDst     uint16
}

// MatchAll returns a match that wildcards every field.
func MatchAll() Match { return Match{Wildcards: WildcardAll} }

// NWSrcMaskBits returns the number of wildcarded low bits of NWSrc (0-32).
func (m Match) NWSrcMaskBits() uint32 {
	bits := (m.Wildcards >> wildcardNWSrcShift) & 0x3F
	if bits > 32 {
		bits = 32
	}
	return bits
}

// NWDstMaskBits returns the number of wildcarded low bits of NWDst (0-32).
func (m Match) NWDstMaskBits() uint32 {
	bits := (m.Wildcards >> wildcardNWDstShift) & 0x3F
	if bits > 32 {
		bits = 32
	}
	return bits
}

// WithNWSrcMask sets the NWSrc wildcard to ignore the given number of low
// bits and returns the updated match.
func (m Match) WithNWSrcMask(bits uint32) Match {
	if bits > 32 {
		bits = 32
	}
	m.Wildcards = (m.Wildcards &^ (0x3F << wildcardNWSrcShift)) | (bits << wildcardNWSrcShift)
	return m
}

// WithNWDstMask sets the NWDst wildcard to ignore the given number of low
// bits and returns the updated match.
func (m Match) WithNWDstMask(bits uint32) Match {
	if bits > 32 {
		bits = 32
	}
	m.Wildcards = (m.Wildcards &^ (0x3F << wildcardNWDstShift)) | (bits << wildcardNWDstShift)
	return m
}

// ExactSrcDst returns the reactive src-dst match the ONOS-style forwarding
// module installs: exact DL source/destination, everything else wildcarded.
func ExactSrcDst(src, dst MAC) Match {
	m := MatchAll()
	m.Wildcards &^= WildcardDLSrc | WildcardDLDst
	m.DLSrc = src
	m.DLDst = dst
	return m
}

// ExactDst returns the proactive destination-only match the ODL-style
// forwarding module installs.
func ExactDst(dst MAC) Match {
	m := MatchAll()
	m.Wildcards &^= WildcardDLDst
	m.DLDst = dst
	return m
}

// Covers reports whether packet fields pf satisfy the match.
func (m Match) Covers(pf PacketFields) bool {
	w := m.Wildcards
	if w&WildcardInPort == 0 && m.InPort != pf.InPort {
		return false
	}
	if w&WildcardDLSrc == 0 && m.DLSrc != pf.EthSrc {
		return false
	}
	if w&WildcardDLDst == 0 && m.DLDst != pf.EthDst {
		return false
	}
	if w&WildcardDLVLAN == 0 && m.DLVLAN != pf.VLAN {
		return false
	}
	if w&WildcardDLVLANPCP == 0 && m.DLVLANPCP != pf.VLANPCP {
		return false
	}
	if w&WildcardDLType == 0 && m.DLType != pf.EthType {
		return false
	}
	if w&WildcardNWTOS == 0 && m.NWTOS != pf.IPTOS {
		return false
	}
	if w&WildcardNWProto == 0 && m.NWProto != pf.IPProto {
		return false
	}
	if bits := m.NWSrcMaskBits(); bits < 32 {
		mask := ^uint32(0) << bits
		if m.NWSrc.Uint32()&mask != pf.IPSrc.Uint32()&mask {
			return false
		}
	}
	if bits := m.NWDstMaskBits(); bits < 32 {
		mask := ^uint32(0) << bits
		if m.NWDst.Uint32()&mask != pf.IPDst.Uint32()&mask {
			return false
		}
	}
	if w&WildcardTPSrc == 0 && m.TPSrc != pf.TPSrc {
		return false
	}
	if w&WildcardTPDst == 0 && m.TPDst != pf.TPDst {
		return false
	}
	return true
}

// HierarchyValid reports whether the match respects the OpenFlow 1.0 field
// prerequisite hierarchy: L3 fields require DLType to be set (IPv4/ARP),
// and L4 ports require NWProto to be set (TCP/UDP/ICMP). The "ODL incorrect
// FLOW_MOD" fault (§III-B T3) installs a match violating this hierarchy;
// the shipped match-hierarchy policy detects it via this predicate.
func (m Match) HierarchyValid() bool {
	w := m.Wildcards
	l3Constrained := m.NWSrcMaskBits() < 32 || m.NWDstMaskBits() < 32 ||
		w&WildcardNWProto == 0 || w&WildcardNWTOS == 0
	dlTypeSet := w&WildcardDLType == 0
	if l3Constrained && !dlTypeSet {
		return false
	}
	if l3Constrained && dlTypeSet && m.DLType != EthTypeIPv4 && m.DLType != EthTypeARP {
		return false
	}
	l4Constrained := w&WildcardTPSrc == 0 || w&WildcardTPDst == 0
	if l4Constrained {
		if w&WildcardNWProto != 0 {
			return false
		}
		if m.NWProto != IPProtoTCP && m.NWProto != IPProtoUDP && m.NWProto != IPProtoICMP {
			return false
		}
	}
	return true
}

// Equal reports whether two matches are identical after normalizing the
// values of wildcarded fields (a wildcarded field's value is irrelevant).
func (m Match) Equal(o Match) bool {
	return m.Normalized() == o.Normalized()
}

// Normalized returns m with the value of every wildcarded field zeroed and
// the masked-off low bits of NWSrc/NWDst cleared, so m.Equal(o) is exactly
// m.Normalized() == o.Normalized() and a normalized match can key a map.
func (m Match) Normalized() Match {
	w := m.Wildcards
	if w&WildcardInPort != 0 {
		m.InPort = 0
	}
	if w&WildcardDLSrc != 0 {
		m.DLSrc = MAC{}
	}
	if w&WildcardDLDst != 0 {
		m.DLDst = MAC{}
	}
	if w&WildcardDLVLAN != 0 {
		m.DLVLAN = 0
	}
	if w&WildcardDLVLANPCP != 0 {
		m.DLVLANPCP = 0
	}
	if w&WildcardDLType != 0 {
		m.DLType = 0
	}
	if w&WildcardNWTOS != 0 {
		m.NWTOS = 0
	}
	if w&WildcardNWProto != 0 {
		m.NWProto = 0
	}
	if bits := m.NWSrcMaskBits(); bits >= 32 {
		m.NWSrc = IPv4{}
	} else if bits > 0 {
		mask := ^uint32(0) << bits
		m.NWSrc = IPv4FromUint32(m.NWSrc.Uint32() & mask)
	}
	if bits := m.NWDstMaskBits(); bits >= 32 {
		m.NWDst = IPv4{}
	} else if bits > 0 {
		mask := ^uint32(0) << bits
		m.NWDst = IPv4FromUint32(m.NWDst.Uint32() & mask)
	}
	if w&WildcardTPSrc != 0 {
		m.TPSrc = 0
	}
	if w&WildcardTPDst != 0 {
		m.TPDst = 0
	}
	return m
}

// String renders the non-wildcarded fields.
func (m Match) String() string {
	var buf [192]byte
	return string(m.AppendTo(buf[:0]))
}

// AppendTo appends String's rendering to b.
func (m Match) AppendTo(b []byte) []byte {
	n := len(b)
	w := m.Wildcards
	if w&WildcardInPort == 0 {
		b = strconv.AppendUint(appendField(b, n, "in_port="), uint64(m.InPort), 10)
	}
	if w&WildcardDLSrc == 0 {
		b = m.DLSrc.AppendTo(appendField(b, n, "dl_src="))
	}
	if w&WildcardDLDst == 0 {
		b = m.DLDst.AppendTo(appendField(b, n, "dl_dst="))
	}
	if w&WildcardDLType == 0 {
		b = AppendHex(appendField(b, n, "dl_type=0x"), uint64(m.DLType), 4)
	}
	if w&WildcardNWProto == 0 {
		b = strconv.AppendUint(appendField(b, n, "nw_proto="), uint64(m.NWProto), 10)
	}
	if bits := m.NWSrcMaskBits(); bits < 32 {
		b = m.NWSrc.AppendTo(appendField(b, n, "nw_src="))
		b = strconv.AppendUint(append(b, '/'), uint64(32-bits), 10)
	}
	if bits := m.NWDstMaskBits(); bits < 32 {
		b = m.NWDst.AppendTo(appendField(b, n, "nw_dst="))
		b = strconv.AppendUint(append(b, '/'), uint64(32-bits), 10)
	}
	if w&WildcardTPSrc == 0 {
		b = strconv.AppendUint(appendField(b, n, "tp_src="), uint64(m.TPSrc), 10)
	}
	if w&WildcardTPDst == 0 {
		b = strconv.AppendUint(appendField(b, n, "tp_dst="), uint64(m.TPDst), 10)
	}
	if len(b) == n {
		return append(b, "match=*"...)
	}
	return b
}

// appendField appends a field's "name=" prefix, after a comma unless it is
// the first field since offset n.
func appendField(b []byte, n int, name string) []byte {
	if len(b) > n {
		b = append(b, ',')
	}
	return append(b, name...)
}

func (m Match) put(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], m.Wildcards)
	binary.BigEndian.PutUint16(b[4:6], m.InPort)
	copy(b[6:12], m.DLSrc[:])
	copy(b[12:18], m.DLDst[:])
	binary.BigEndian.PutUint16(b[18:20], m.DLVLAN)
	b[20] = m.DLVLANPCP
	b[21] = 0 // pad
	binary.BigEndian.PutUint16(b[22:24], m.DLType)
	b[24] = m.NWTOS
	b[25] = m.NWProto
	b[26], b[27] = 0, 0 // pad
	copy(b[28:32], m.NWSrc[:])
	copy(b[32:36], m.NWDst[:])
	binary.BigEndian.PutUint16(b[36:38], m.TPSrc)
	binary.BigEndian.PutUint16(b[38:40], m.TPDst)
}

func parseMatch(b []byte) (Match, error) {
	if len(b) < MatchLen {
		return Match{}, ErrTruncated
	}
	var m Match
	m.Wildcards = binary.BigEndian.Uint32(b[0:4])
	m.InPort = binary.BigEndian.Uint16(b[4:6])
	copy(m.DLSrc[:], b[6:12])
	copy(m.DLDst[:], b[12:18])
	m.DLVLAN = binary.BigEndian.Uint16(b[18:20])
	m.DLVLANPCP = b[20]
	m.DLType = binary.BigEndian.Uint16(b[22:24])
	m.NWTOS = b[24]
	m.NWProto = b[25]
	copy(m.NWSrc[:], b[28:32])
	copy(m.NWDst[:], b[32:36])
	m.TPSrc = binary.BigEndian.Uint16(b[36:38])
	m.TPDst = binary.BigEndian.Uint16(b[38:40])
	return m, nil
}
