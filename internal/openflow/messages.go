package openflow

import (
	"encoding/binary"
	"strconv"
)

// Special port numbers (ofp_port).
const (
	// PortFlood floods a packet out every port except the ingress port.
	PortFlood uint16 = 0xFFFB
	// PortController sends to the controller as a PACKET_IN.
	PortController uint16 = 0xFFFD
	// PortNone drops the packet / matches any out_port in deletes.
	PortNone uint16 = 0xFFFF
)

// FlowModCommand is the ofp_flow_mod command.
type FlowModCommand uint16

// Flow mod commands.
const (
	FlowAdd          FlowModCommand = 0
	FlowModify       FlowModCommand = 1
	FlowModifyStrict FlowModCommand = 2
	FlowDelete       FlowModCommand = 3
	FlowDeleteStrict FlowModCommand = 4
)

var flowModCommandNames = [...]string{"ADD", "MODIFY", "MODIFY_STRICT", "DELETE", "DELETE_STRICT"}

// String returns the spec name of the command.
func (c FlowModCommand) String() string {
	if int(c) < len(flowModCommandNames) {
		return flowModCommandNames[c]
	}
	return string(c.AppendTo(nil))
}

// AppendTo appends String's rendering to b.
func (c FlowModCommand) AppendTo(b []byte) []byte {
	if int(c) < len(flowModCommandNames) {
		return append(b, flowModCommandNames[c]...)
	}
	return append(strconv.AppendUint(append(b, "CMD("...), uint64(c), 10), ')')
}

// PacketInReason is the ofp_packet_in reason.
type PacketInReason uint8

// PACKET_IN reasons.
const (
	ReasonNoMatch PacketInReason = 0
	ReasonAction  PacketInReason = 1
)

// FlowRemovedReason is the ofp_flow_removed reason.
type FlowRemovedReason uint8

// FLOW_REMOVED reasons.
const (
	RemovedIdleTimeout FlowRemovedReason = 0
	RemovedHardTimeout FlowRemovedReason = 1
	RemovedDelete      FlowRemovedReason = 2
)

// Action is an OpenFlow action. Only output actions are needed by the
// reproduced controllers.
type Action struct {
	// Port is the output port (possibly PortFlood or PortController).
	Port uint16
	// MaxLen bounds bytes sent to the controller for PortController.
	MaxLen uint16
}

// Output returns an output-to-port action.
func Output(port uint16) Action { return Action{Port: port, MaxLen: 0xFFFF} }

const actionLen = 8

// putActions writes actions into buf, len(actions)*actionLen bytes.
func putActions(buf []byte, actions []Action) {
	for i, a := range actions {
		off := i * actionLen
		binary.BigEndian.PutUint16(buf[off:off+2], 0) // OFPAT_OUTPUT
		binary.BigEndian.PutUint16(buf[off+2:off+4], actionLen)
		binary.BigEndian.PutUint16(buf[off+4:off+6], a.Port)
		binary.BigEndian.PutUint16(buf[off+6:off+8], a.MaxLen)
	}
}

func parseActions(b []byte) ([]Action, error) {
	var actions []Action
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, ErrTruncated
		}
		atype := binary.BigEndian.Uint16(b[0:2])
		alen := int(binary.BigEndian.Uint16(b[2:4]))
		if alen < 4 || alen > len(b) {
			return nil, ErrTruncated
		}
		if atype == 0 { // OFPAT_OUTPUT
			if alen < actionLen {
				return nil, ErrTruncated
			}
			actions = append(actions, Action{
				Port:   binary.BigEndian.Uint16(b[4:6]),
				MaxLen: binary.BigEndian.Uint16(b[6:8]),
			})
		}
		b = b[alen:]
	}
	return actions, nil
}

// Hello is OFPT_HELLO.
type Hello struct{ XID uint32 }

// Type implements Message.
func (m *Hello) Type() MsgType { return TypeHello }

// TransactionID implements Message.
func (m *Hello) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *Hello) Len() int { return HeaderLen }

// Marshal implements Message.
func (m *Hello) Marshal() []byte { return newWire(TypeHello, m.XID, m.Len(), nil) }

// EchoRequest is OFPT_ECHO_REQUEST.
type EchoRequest struct {
	XID  uint32
	Data []byte
}

// Type implements Message.
func (m *EchoRequest) Type() MsgType { return TypeEchoRequest }

// TransactionID implements Message.
func (m *EchoRequest) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *EchoRequest) Len() int { return HeaderLen + len(m.Data) }

// Marshal implements Message.
func (m *EchoRequest) Marshal() []byte { return newWire(TypeEchoRequest, m.XID, m.Len(), m.Data) }

// EchoReply is OFPT_ECHO_REPLY.
type EchoReply struct {
	XID  uint32
	Data []byte
}

// Type implements Message.
func (m *EchoReply) Type() MsgType { return TypeEchoReply }

// TransactionID implements Message.
func (m *EchoReply) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *EchoReply) Len() int { return HeaderLen + len(m.Data) }

// Marshal implements Message.
func (m *EchoReply) Marshal() []byte { return newWire(TypeEchoReply, m.XID, m.Len(), m.Data) }

// FeaturesRequest is OFPT_FEATURES_REQUEST.
type FeaturesRequest struct{ XID uint32 }

// Type implements Message.
func (m *FeaturesRequest) Type() MsgType { return TypeFeaturesRequest }

// TransactionID implements Message.
func (m *FeaturesRequest) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *FeaturesRequest) Len() int { return HeaderLen }

// Marshal implements Message.
func (m *FeaturesRequest) Marshal() []byte { return newWire(TypeFeaturesRequest, m.XID, m.Len(), nil) }

// FeaturesReply is OFPT_FEATURES_REPLY (ports omitted beyond the count).
type FeaturesReply struct {
	XID          uint32
	DatapathID   uint64
	NumBuffers   uint32
	NumTables    uint8
	Capabilities uint32
	Actions      uint32
	Ports        []uint16
}

// Type implements Message.
func (m *FeaturesReply) Type() MsgType { return TypeFeaturesReply }

// TransactionID implements Message.
func (m *FeaturesReply) TransactionID() uint32 { return m.XID }

// physPortLen is the size of an ofp_phy_port.
const physPortLen = 48

// Len implements Message.
func (m *FeaturesReply) Len() int { return HeaderLen + 24 + len(m.Ports)*physPortLen }

// Marshal implements Message. Each port is encoded as a minimal 48-byte
// ofp_phy_port carrying only the port number.
func (m *FeaturesReply) Marshal() []byte {
	buf := newWire(TypeFeaturesReply, m.XID, m.Len(), nil)
	body := buf[HeaderLen:]
	binary.BigEndian.PutUint64(body[0:8], m.DatapathID)
	binary.BigEndian.PutUint32(body[8:12], m.NumBuffers)
	body[12] = m.NumTables
	binary.BigEndian.PutUint32(body[16:20], m.Capabilities)
	binary.BigEndian.PutUint32(body[20:24], m.Actions)
	for i, p := range m.Ports {
		off := 24 + i*physPortLen
		binary.BigEndian.PutUint16(body[off:off+2], p)
	}
	return buf
}

func parseFeaturesReply(h Header, body []byte) (*FeaturesReply, error) {
	if len(body) < 24 {
		return nil, ErrTruncated
	}
	m := &FeaturesReply{
		XID:          h.XID,
		DatapathID:   binary.BigEndian.Uint64(body[0:8]),
		NumBuffers:   binary.BigEndian.Uint32(body[8:12]),
		NumTables:    body[12],
		Capabilities: binary.BigEndian.Uint32(body[16:20]),
		Actions:      binary.BigEndian.Uint32(body[20:24]),
	}
	ports := body[24:]
	for len(ports) >= physPortLen {
		m.Ports = append(m.Ports, binary.BigEndian.Uint16(ports[0:2]))
		ports = ports[physPortLen:]
	}
	return m, nil
}

// PacketIn is OFPT_PACKET_IN.
type PacketIn struct {
	XID      uint32
	BufferID uint32
	TotalLen uint16
	InPort   uint16
	Reason   PacketInReason
	Data     []byte
}

// Type implements Message.
func (m *PacketIn) Type() MsgType { return TypePacketIn }

// TransactionID implements Message.
func (m *PacketIn) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *PacketIn) Len() int { return HeaderLen + 10 + len(m.Data) }

// Marshal implements Message.
func (m *PacketIn) Marshal() []byte {
	buf := newWire(TypePacketIn, m.XID, m.Len(), m.Data)
	body := buf[HeaderLen:]
	binary.BigEndian.PutUint32(body[0:4], m.BufferID)
	binary.BigEndian.PutUint16(body[4:6], m.TotalLen)
	binary.BigEndian.PutUint16(body[6:8], m.InPort)
	body[8] = uint8(m.Reason)
	return buf
}

func parsePacketIn(h Header, body []byte) (*PacketIn, error) {
	if len(body) < 10 {
		return nil, ErrTruncated
	}
	return &PacketIn{
		XID:      h.XID,
		BufferID: binary.BigEndian.Uint32(body[0:4]),
		TotalLen: binary.BigEndian.Uint16(body[4:6]),
		InPort:   binary.BigEndian.Uint16(body[6:8]),
		Reason:   PacketInReason(body[8]),
		Data:     cloneBytes(body[10:]),
	}, nil
}

// PacketOut is OFPT_PACKET_OUT.
type PacketOut struct {
	XID      uint32
	BufferID uint32
	InPort   uint16
	Actions  []Action
	Data     []byte
}

// Type implements Message.
func (m *PacketOut) Type() MsgType { return TypePacketOut }

// TransactionID implements Message.
func (m *PacketOut) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *PacketOut) Len() int { return HeaderLen + 8 + len(m.Actions)*actionLen + len(m.Data) }

// Marshal implements Message.
func (m *PacketOut) Marshal() []byte {
	buf := newWire(TypePacketOut, m.XID, m.Len(), m.Data)
	body := buf[HeaderLen:]
	acts := len(m.Actions) * actionLen
	binary.BigEndian.PutUint32(body[0:4], m.BufferID)
	binary.BigEndian.PutUint16(body[4:6], m.InPort)
	binary.BigEndian.PutUint16(body[6:8], uint16(acts))
	putActions(body[8:8+acts], m.Actions)
	return buf
}

func parsePacketOut(h Header, body []byte) (*PacketOut, error) {
	if len(body) < 8 {
		return nil, ErrTruncated
	}
	actsLen := int(binary.BigEndian.Uint16(body[6:8]))
	if 8+actsLen > len(body) {
		return nil, ErrTruncated
	}
	actions, err := parseActions(body[8 : 8+actsLen])
	if err != nil {
		return nil, err
	}
	return &PacketOut{
		XID:      h.XID,
		BufferID: binary.BigEndian.Uint32(body[0:4]),
		InPort:   binary.BigEndian.Uint16(body[4:6]),
		Actions:  actions,
		Data:     cloneBytes(body[8+actsLen:]),
	}, nil
}

// FlowMod is OFPT_FLOW_MOD.
type FlowMod struct {
	XID         uint32
	Match       Match
	Cookie      uint64
	Command     FlowModCommand
	IdleTimeout uint16
	HardTimeout uint16
	Priority    uint16
	BufferID    uint32
	OutPort     uint16
	Flags       uint16
	Actions     []Action
}

// FlowMod flags.
const (
	// FlagSendFlowRem requests a FLOW_REMOVED on expiry.
	FlagSendFlowRem uint16 = 1 << 0
)

// Type implements Message.
func (m *FlowMod) Type() MsgType { return TypeFlowMod }

// TransactionID implements Message.
func (m *FlowMod) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *FlowMod) Len() int { return HeaderLen + MatchLen + 24 + len(m.Actions)*actionLen }

// Marshal implements Message.
func (m *FlowMod) Marshal() []byte {
	buf := newWire(TypeFlowMod, m.XID, m.Len(), nil)
	body := buf[HeaderLen:]
	m.Match.put(body[0:MatchLen])
	off := MatchLen
	binary.BigEndian.PutUint64(body[off:off+8], m.Cookie)
	binary.BigEndian.PutUint16(body[off+8:off+10], uint16(m.Command))
	binary.BigEndian.PutUint16(body[off+10:off+12], m.IdleTimeout)
	binary.BigEndian.PutUint16(body[off+12:off+14], m.HardTimeout)
	binary.BigEndian.PutUint16(body[off+14:off+16], m.Priority)
	binary.BigEndian.PutUint32(body[off+16:off+20], m.BufferID)
	binary.BigEndian.PutUint16(body[off+20:off+22], m.OutPort)
	binary.BigEndian.PutUint16(body[off+22:off+24], m.Flags)
	putActions(body[off+24:], m.Actions)
	return buf
}

func parseFlowMod(h Header, body []byte) (*FlowMod, error) {
	if len(body) < MatchLen+24 {
		return nil, ErrTruncated
	}
	match, err := parseMatch(body[0:MatchLen])
	if err != nil {
		return nil, err
	}
	off := MatchLen
	actions, err := parseActions(body[off+24:])
	if err != nil {
		return nil, err
	}
	return &FlowMod{
		XID:         h.XID,
		Match:       match,
		Cookie:      binary.BigEndian.Uint64(body[off : off+8]),
		Command:     FlowModCommand(binary.BigEndian.Uint16(body[off+8 : off+10])),
		IdleTimeout: binary.BigEndian.Uint16(body[off+10 : off+12]),
		HardTimeout: binary.BigEndian.Uint16(body[off+12 : off+14]),
		Priority:    binary.BigEndian.Uint16(body[off+14 : off+16]),
		BufferID:    binary.BigEndian.Uint32(body[off+16 : off+20]),
		OutPort:     binary.BigEndian.Uint16(body[off+20 : off+22]),
		Flags:       binary.BigEndian.Uint16(body[off+22 : off+24]),
		Actions:     actions,
	}, nil
}

// FlowRemoved is OFPT_FLOW_REMOVED.
type FlowRemoved struct {
	XID         uint32
	Match       Match
	Cookie      uint64
	Priority    uint16
	Reason      FlowRemovedReason
	DurationSec uint32
	PacketCount uint64
	ByteCount   uint64
}

// Type implements Message.
func (m *FlowRemoved) Type() MsgType { return TypeFlowRemoved }

// TransactionID implements Message.
func (m *FlowRemoved) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *FlowRemoved) Len() int { return HeaderLen + MatchLen + 40 }

// Marshal implements Message.
func (m *FlowRemoved) Marshal() []byte {
	buf := newWire(TypeFlowRemoved, m.XID, m.Len(), nil)
	body := buf[HeaderLen:]
	m.Match.put(body[0:MatchLen])
	off := MatchLen
	binary.BigEndian.PutUint64(body[off:off+8], m.Cookie)
	binary.BigEndian.PutUint16(body[off+8:off+10], m.Priority)
	body[off+10] = uint8(m.Reason)
	binary.BigEndian.PutUint32(body[off+12:off+16], m.DurationSec)
	binary.BigEndian.PutUint64(body[off+24:off+32], m.PacketCount)
	binary.BigEndian.PutUint64(body[off+32:off+40], m.ByteCount)
	return buf
}

func parseFlowRemoved(h Header, body []byte) (*FlowRemoved, error) {
	if len(body) < MatchLen+40 {
		return nil, ErrTruncated
	}
	match, err := parseMatch(body[0:MatchLen])
	if err != nil {
		return nil, err
	}
	off := MatchLen
	return &FlowRemoved{
		XID:         h.XID,
		Match:       match,
		Cookie:      binary.BigEndian.Uint64(body[off : off+8]),
		Priority:    binary.BigEndian.Uint16(body[off+8 : off+10]),
		Reason:      FlowRemovedReason(body[off+10]),
		DurationSec: binary.BigEndian.Uint32(body[off+12 : off+16]),
		PacketCount: binary.BigEndian.Uint64(body[off+24 : off+32]),
		ByteCount:   binary.BigEndian.Uint64(body[off+32 : off+40]),
	}, nil
}

// BarrierRequest is OFPT_BARRIER_REQUEST.
type BarrierRequest struct{ XID uint32 }

// Type implements Message.
func (m *BarrierRequest) Type() MsgType { return TypeBarrierRequest }

// TransactionID implements Message.
func (m *BarrierRequest) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *BarrierRequest) Len() int { return HeaderLen }

// Marshal implements Message.
func (m *BarrierRequest) Marshal() []byte { return newWire(TypeBarrierRequest, m.XID, m.Len(), nil) }

// BarrierReply is OFPT_BARRIER_REPLY.
type BarrierReply struct{ XID uint32 }

// Type implements Message.
func (m *BarrierReply) Type() MsgType { return TypeBarrierReply }

// TransactionID implements Message.
func (m *BarrierReply) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *BarrierReply) Len() int { return HeaderLen }

// Marshal implements Message.
func (m *BarrierReply) Marshal() []byte { return newWire(TypeBarrierReply, m.XID, m.Len(), nil) }

// ErrorMsg is OFPT_ERROR.
type ErrorMsg struct {
	XID     uint32
	ErrType uint16
	Code    uint16
	Data    []byte
}

// Type implements Message.
func (m *ErrorMsg) Type() MsgType { return TypeError }

// TransactionID implements Message.
func (m *ErrorMsg) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *ErrorMsg) Len() int { return HeaderLen + 4 + len(m.Data) }

// Marshal implements Message.
func (m *ErrorMsg) Marshal() []byte {
	buf := newWire(TypeError, m.XID, m.Len(), m.Data)
	body := buf[HeaderLen:]
	binary.BigEndian.PutUint16(body[0:2], m.ErrType)
	binary.BigEndian.PutUint16(body[2:4], m.Code)
	return buf
}

func parseErrorMsg(h Header, body []byte) (*ErrorMsg, error) {
	if len(body) < 4 {
		return nil, ErrTruncated
	}
	return &ErrorMsg{
		XID:     h.XID,
		ErrType: binary.BigEndian.Uint16(body[0:2]),
		Code:    binary.BigEndian.Uint16(body[2:4]),
		Data:    cloneBytes(body[4:]),
	}, nil
}
