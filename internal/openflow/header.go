// Package openflow implements the subset of the OpenFlow 1.0 wire protocol
// needed by the JURY reproduction: message framing, PACKET_IN / PACKET_OUT /
// FLOW_MOD / FEATURES / ECHO / BARRIER messages, the ofp_match structure
// with wildcard semantics, output actions, and construction/parsing of the
// Ethernet, ARP, IPv4, TCP and LLDP packets that drive the control plane.
//
// All encodings follow the OpenFlow 1.0.0 specification byte layouts so the
// codec round-trips real message sizes; the network overhead accounting in
// the evaluation (§VII-B2) uses these sizes.
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the OpenFlow protocol version implemented (1.0).
const Version = 0x01

// HeaderLen is the length of the ofp_header in bytes.
const HeaderLen = 8

// MsgType identifies an OpenFlow 1.0 message type.
type MsgType uint8

// OpenFlow 1.0 message types (ofp_type).
const (
	TypeHello           MsgType = 0
	TypeError           MsgType = 1
	TypeEchoRequest     MsgType = 2
	TypeEchoReply       MsgType = 3
	TypeVendor          MsgType = 4
	TypeFeaturesRequest MsgType = 5
	TypeFeaturesReply   MsgType = 6
	TypePacketIn        MsgType = 10
	TypeFlowRemoved     MsgType = 11
	TypePortStatus      MsgType = 12
	TypePacketOut       MsgType = 13
	TypeFlowMod         MsgType = 14
	TypeBarrierRequest  MsgType = 18
	TypeBarrierReply    MsgType = 19
)

var msgTypeNames = map[MsgType]string{
	TypeHello:           "HELLO",
	TypeError:           "ERROR",
	TypeEchoRequest:     "ECHO_REQUEST",
	TypeEchoReply:       "ECHO_REPLY",
	TypeVendor:          "VENDOR",
	TypeFeaturesRequest: "FEATURES_REQUEST",
	TypeFeaturesReply:   "FEATURES_REPLY",
	TypePacketIn:        "PACKET_IN",
	TypeFlowRemoved:     "FLOW_REMOVED",
	TypePortStatus:      "PORT_STATUS",
	TypePacketOut:       "PACKET_OUT",
	TypeFlowMod:         "FLOW_MOD",
	TypeStatsRequest:    "STATS_REQUEST",
	TypeStatsReply:      "STATS_REPLY",
	TypeBarrierRequest:  "BARRIER_REQUEST",
	TypeBarrierReply:    "BARRIER_REPLY",
}

// String returns the OpenFlow spec name for the type.
func (t MsgType) String() string {
	if s, ok := msgTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("OFPT(%d)", uint8(t))
}

// Errors returned by the codec.
var (
	ErrTruncated       = errors.New("openflow: truncated message")
	ErrBadVersion      = errors.New("openflow: unsupported protocol version")
	ErrUnknownType     = errors.New("openflow: unknown message type")
	ErrBadLength       = errors.New("openflow: header length mismatch")
	ErrNotEncapsulated = errors.New("openflow: packet is not an encapsulated PACKET_IN")
)

// Header is the common ofp_header.
type Header struct {
	Ver  uint8
	Type MsgType
	Len  uint16
	XID  uint32
}

func (h Header) put(b []byte) {
	b[0] = h.Ver
	b[1] = uint8(h.Type)
	binary.BigEndian.PutUint16(b[2:4], h.Len)
	binary.BigEndian.PutUint32(b[4:8], h.XID)
}

func parseHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, ErrTruncated
	}
	h := Header{
		Ver:  b[0],
		Type: MsgType(b[1]),
		Len:  binary.BigEndian.Uint16(b[2:4]),
		XID:  binary.BigEndian.Uint32(b[4:8]),
	}
	if h.Ver != Version {
		return Header{}, fmt.Errorf("%w: %d", ErrBadVersion, h.Ver)
	}
	if int(h.Len) < HeaderLen {
		return Header{}, ErrBadLength
	}
	return h, nil
}

// Message is an OpenFlow message that can be marshaled to its wire format.
type Message interface {
	// Type returns the OpenFlow message type.
	Type() MsgType
	// XID returns the transaction identifier.
	TransactionID() uint32
	// Len returns the size of Marshal's encoding without building it.
	Len() int
	// Marshal returns the full wire encoding including the header.
	Marshal() []byte
}

// Parse decodes one complete message from b. The slice must contain exactly
// one message (as produced by Marshal or extracted by a framer).
func Parse(b []byte) (Message, error) {
	h, err := parseHeader(b)
	if err != nil {
		return nil, err
	}
	if int(h.Len) > len(b) {
		return nil, ErrTruncated
	}
	body := b[HeaderLen:h.Len]
	switch h.Type {
	case TypeHello:
		return &Hello{XID: h.XID}, nil
	case TypeEchoRequest:
		return &EchoRequest{XID: h.XID, Data: cloneBytes(body)}, nil
	case TypeEchoReply:
		return &EchoReply{XID: h.XID, Data: cloneBytes(body)}, nil
	case TypeFeaturesRequest:
		return &FeaturesRequest{XID: h.XID}, nil
	case TypeFeaturesReply:
		return parseFeaturesReply(h, body)
	case TypePacketIn:
		return parsePacketIn(h, body)
	case TypePacketOut:
		return parsePacketOut(h, body)
	case TypeFlowMod:
		return parseFlowMod(h, body)
	case TypeFlowRemoved:
		return parseFlowRemoved(h, body)
	case TypeBarrierRequest:
		return &BarrierRequest{XID: h.XID}, nil
	case TypeBarrierReply:
		return &BarrierReply{XID: h.XID}, nil
	case TypeStatsRequest:
		return parseStatsRequest(h, body)
	case TypeStatsReply:
		return parseStatsReply(h, body)
	case TypePortStatus:
		return parsePortStatus(h, body)
	case TypeError:
		return parseErrorMsg(h, body)
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownType, h.Type)
	}
}

// ReadMessage reads one length-delimited message from r.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	h, err := parseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	buf := make([]byte, h.Len)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[HeaderLen:]); err != nil {
		return nil, fmt.Errorf("openflow: read body: %w", err)
	}
	return Parse(buf)
}

// WriteMessage writes msg to w in wire format.
func WriteMessage(w io.Writer, msg Message) error {
	_, err := w.Write(msg.Marshal())
	return err
}

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// newWire allocates an n-byte message, the only allocation of a Marshal,
// writes its header and ends it with tail; the caller fills the rest.
func newWire(t MsgType, xid uint32, n int, tail []byte) []byte {
	buf := make([]byte, n)
	putWire(buf, t, xid, tail)
	return buf
}

// putWire writes the header of a message that fills buf and ends buf with
// tail.
func putWire(buf []byte, t MsgType, xid uint32, tail []byte) {
	Header{Ver: Version, Type: t, Len: uint16(len(buf)), XID: xid}.put(buf)
	copy(buf[len(buf)-len(tail):], tail)
}
