package openflow

import (
	"encoding/binary"
	"fmt"
)

// Ethernet types.
const (
	EthTypeIPv4 uint16 = 0x0800
	EthTypeARP  uint16 = 0x0806
	EthTypeLLDP uint16 = 0x88CC
	// EthTypeJuryEncap is the experimenter ethertype used to carry a full
	// OpenFlow PACKET_IN inside a data-plane frame (the ODL replication
	// path of §VI-A produces doubly encapsulated PACKET_INs).
	EthTypeJuryEncap uint16 = 0x88B5
)

// IP protocol numbers.
const (
	IPProtoICMP uint8 = 1
	IPProtoTCP  uint8 = 6
	IPProtoUDP  uint8 = 17
)

// ARP opcodes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// BroadcastMAC is the Ethernet broadcast address.
var BroadcastMAC = MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

const ethHeaderLen = 14

// PacketFields is the parsed header tuple a switch matches flow entries
// against (§II: the fields of ofp_match extracted from a frame).
type PacketFields struct {
	InPort  uint16
	EthSrc  MAC
	EthDst  MAC
	EthType uint16
	VLAN    uint16
	VLANPCP uint8
	IPSrc   IPv4
	IPDst   IPv4
	IPProto uint8
	IPTOS   uint8
	TPSrc   uint16
	TPDst   uint16
	// ARP fields, populated when EthType is ARP.
	ARPOp       uint16
	ARPSenderIP IPv4
	ARPTargetIP IPv4
	// LLDP fields, populated when EthType is LLDP.
	LLDPChassisID uint64
	LLDPPortID    uint16
}

// EthernetFrame builds a frame with the given payload.
func EthernetFrame(src, dst MAC, ethType uint16, payload []byte) []byte {
	frame := make([]byte, ethHeaderLen+len(payload))
	putEthernetHeader(frame, src, dst, ethType)
	copy(frame[ethHeaderLen:], payload)
	return frame
}

// putEthernetHeader writes an Ethernet header into frame[:ethHeaderLen].
func putEthernetHeader(frame []byte, src, dst MAC, ethType uint16) {
	copy(frame[0:6], dst[:])
	copy(frame[6:12], src[:])
	binary.BigEndian.PutUint16(frame[12:14], ethType)
}

// ARPPacket builds an Ethernet ARP request or reply.
func ARPPacket(op uint16, srcMAC MAC, srcIP IPv4, dstMAC MAC, dstIP IPv4) []byte {
	payload := make([]byte, 28)
	binary.BigEndian.PutUint16(payload[0:2], 1) // hardware type: Ethernet
	binary.BigEndian.PutUint16(payload[2:4], EthTypeIPv4)
	payload[4] = 6 // hlen
	payload[5] = 4 // plen
	binary.BigEndian.PutUint16(payload[6:8], op)
	copy(payload[8:14], srcMAC[:])
	copy(payload[14:18], srcIP[:])
	copy(payload[18:24], dstMAC[:])
	copy(payload[24:28], dstIP[:])
	ethDst := dstMAC
	if op == ARPRequest {
		ethDst = BroadcastMAC
	}
	return EthernetFrame(srcMAC, ethDst, EthTypeARP, payload)
}

// TCPPacket builds an Ethernet+IPv4+TCP frame (headers only; flag bits in
// flags, e.g. 0x02 for SYN). payloadLen pads the frame so size accounting
// is realistic without materializing payload bytes beyond zeros.
func TCPPacket(srcMAC, dstMAC MAC, srcIP, dstIP IPv4, srcPort, dstPort uint16, flags uint8, payloadLen int) []byte {
	const ipHeaderLen, tcpHeaderLen = 20, 20
	ip := make([]byte, ipHeaderLen+tcpHeaderLen+payloadLen)
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:4], uint16(len(ip)))
	ip[8] = 64 // TTL
	ip[9] = IPProtoTCP
	copy(ip[12:16], srcIP[:])
	copy(ip[16:20], dstIP[:])
	tcp := ip[ipHeaderLen:]
	binary.BigEndian.PutUint16(tcp[0:2], srcPort)
	binary.BigEndian.PutUint16(tcp[2:4], dstPort)
	tcp[12] = 5 << 4 // data offset
	tcp[13] = flags
	return EthernetFrame(srcMAC, dstMAC, EthTypeIPv4, ip)
}

// LLDPPacket builds the LLDP frame used for topology discovery: the chassis
// ID TLV carries the emitting switch's datapath ID and the port ID TLV the
// egress port (the encoding ONOS/ODL discovery providers use).
func LLDPPacket(srcMAC MAC, dpid uint64, port uint16) []byte {
	payload := make([]byte, 0, 32)
	// Chassis ID TLV (type 1): subtype 7 (locally assigned), 8-byte dpid.
	payload = appendTLV(payload, 1, append([]byte{7}, be64(dpid)...))
	// Port ID TLV (type 2): subtype 7, 2-byte port.
	payload = appendTLV(payload, 2, append([]byte{7}, be16(port)...))
	// TTL TLV (type 3).
	payload = appendTLV(payload, 3, be16(120))
	// End of LLDPDU TLV.
	payload = appendTLV(payload, 0, nil)
	dst := MAC{0x01, 0x80, 0xC2, 0x00, 0x00, 0x0E}
	return EthernetFrame(srcMAC, dst, EthTypeLLDP, payload)
}

func appendTLV(b []byte, tlvType uint8, value []byte) []byte {
	hdr := uint16(tlvType)<<9 | uint16(len(value))
	b = append(b, byte(hdr>>8), byte(hdr))
	return append(b, value...)
}

func be16(v uint16) []byte {
	b := make([]byte, 2)
	binary.BigEndian.PutUint16(b, v)
	return b
}

func be64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// ParsePacket extracts match fields from an Ethernet frame received on
// inPort.
func ParsePacket(frame []byte, inPort uint16) (PacketFields, error) {
	var pf PacketFields
	if len(frame) < ethHeaderLen {
		return pf, fmt.Errorf("openflow: frame too short (%d bytes)", len(frame))
	}
	pf.InPort = inPort
	copy(pf.EthDst[:], frame[0:6])
	copy(pf.EthSrc[:], frame[6:12])
	pf.EthType = binary.BigEndian.Uint16(frame[12:14])
	payload := frame[ethHeaderLen:]
	switch pf.EthType {
	case EthTypeARP:
		if len(payload) < 28 {
			return pf, fmt.Errorf("openflow: truncated ARP payload")
		}
		pf.ARPOp = binary.BigEndian.Uint16(payload[6:8])
		copy(pf.ARPSenderIP[:], payload[14:18])
		copy(pf.ARPTargetIP[:], payload[24:28])
		// OpenFlow 1.0 reuses nw_src/nw_dst/nw_proto for ARP fields.
		pf.IPSrc = pf.ARPSenderIP
		pf.IPDst = pf.ARPTargetIP
		pf.IPProto = uint8(pf.ARPOp)
	case EthTypeIPv4:
		if len(payload) < 20 {
			return pf, fmt.Errorf("openflow: truncated IPv4 header")
		}
		ihl := int(payload[0]&0x0F) * 4
		if ihl < 20 || len(payload) < ihl {
			return pf, fmt.Errorf("openflow: bad IPv4 IHL")
		}
		pf.IPTOS = payload[1]
		pf.IPProto = payload[9]
		copy(pf.IPSrc[:], payload[12:16])
		copy(pf.IPDst[:], payload[16:20])
		l4 := payload[ihl:]
		if (pf.IPProto == IPProtoTCP || pf.IPProto == IPProtoUDP) && len(l4) >= 4 {
			pf.TPSrc = binary.BigEndian.Uint16(l4[0:2])
			pf.TPDst = binary.BigEndian.Uint16(l4[2:4])
		}
	case EthTypeLLDP:
		tlvs := payload
		for len(tlvs) >= 2 {
			hdr := binary.BigEndian.Uint16(tlvs[0:2])
			tlvType := uint8(hdr >> 9)
			tlvLen := int(hdr & 0x1FF)
			if len(tlvs) < 2+tlvLen {
				break
			}
			value := tlvs[2 : 2+tlvLen]
			switch tlvType {
			case 0:
				tlvs = nil
				continue
			case 1:
				if len(value) == 9 && value[0] == 7 {
					pf.LLDPChassisID = binary.BigEndian.Uint64(value[1:9])
				}
			case 2:
				if len(value) == 3 && value[0] == 7 {
					pf.LLDPPortID = binary.BigEndian.Uint16(value[1:3])
				}
			}
			tlvs = tlvs[2+tlvLen:]
		}
	}
	return pf, nil
}

// EncapsulatePacketIn wraps a marshaled PACKET_IN inside a data-plane frame
// with the experimenter ethertype. This is what the OVS replication rules do
// on the ODL path (§VI-A): the secondary controller receives the original
// PACKET_IN as the payload of a fresh PACKET_IN and must strip one layer.
// The header and the PACKET_IN are written into the frame's one buffer.
func EncapsulatePacketIn(pin *PacketIn, replicatorMAC MAC) []byte {
	frame := make([]byte, ethHeaderLen+pin.Len())
	putEthernetHeader(frame, replicatorMAC, BroadcastMAC, EthTypeJuryEncap)
	pin.put(frame[ethHeaderLen:])
	return frame
}

// DecapsulatePacketIn recovers the inner PACKET_IN from a frame produced by
// EncapsulatePacketIn. It returns ErrNotEncapsulated when the frame does not
// carry the experimenter ethertype.
func DecapsulatePacketIn(frame []byte) (*PacketIn, error) {
	if len(frame) < ethHeaderLen {
		return nil, ErrTruncated
	}
	if binary.BigEndian.Uint16(frame[12:14]) != EthTypeJuryEncap {
		return nil, ErrNotEncapsulated
	}
	msg, err := Parse(frame[ethHeaderLen:])
	if err != nil {
		return nil, fmt.Errorf("openflow: decapsulate: %w", err)
	}
	pin, ok := msg.(*PacketIn)
	if !ok {
		return nil, fmt.Errorf("openflow: decapsulate: inner message is %v, want PACKET_IN", msg.Type())
	}
	return pin, nil
}
