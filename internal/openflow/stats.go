package openflow

import (
	"encoding/binary"
)

// Stats and port-status message types (OpenFlow 1.0).
const (
	TypeStatsRequest MsgType = 16
	TypeStatsReply   MsgType = 17
)

// StatsType is the ofp_stats_types family. Only flow stats are needed.
const (
	// StatsFlow requests per-entry flow statistics.
	StatsFlow uint16 = 1
)

// FlowStatsRequest is OFPT_STATS_REQUEST with an ofp_flow_stats_request
// body (match + table + out_port).
type FlowStatsRequest struct {
	XID     uint32
	Match   Match
	TableID uint8
	OutPort uint16
}

// Type implements Message.
func (m *FlowStatsRequest) Type() MsgType { return TypeStatsRequest }

// TransactionID implements Message.
func (m *FlowStatsRequest) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *FlowStatsRequest) Len() int { return HeaderLen + 4 + MatchLen + 4 }

// Marshal implements Message.
func (m *FlowStatsRequest) Marshal() []byte {
	buf := newWire(TypeStatsRequest, m.XID, m.Len(), nil)
	body := buf[HeaderLen:]
	binary.BigEndian.PutUint16(body[0:2], StatsFlow)
	m.Match.put(body[4 : 4+MatchLen])
	body[4+MatchLen] = m.TableID
	binary.BigEndian.PutUint16(body[4+MatchLen+2:4+MatchLen+4], m.OutPort)
	return buf
}

func parseStatsRequest(h Header, body []byte) (Message, error) {
	if len(body) < 4+MatchLen+4 {
		return nil, ErrTruncated
	}
	match, err := parseMatch(body[4 : 4+MatchLen])
	if err != nil {
		return nil, err
	}
	return &FlowStatsRequest{
		XID:     h.XID,
		Match:   match,
		TableID: body[4+MatchLen],
		OutPort: binary.BigEndian.Uint16(body[4+MatchLen+2 : 4+MatchLen+4]),
	}, nil
}

// FlowStat is one entry of a flow-stats reply.
type FlowStat struct {
	Match       Match
	Priority    uint16
	DurationSec uint32
	IdleTimeout uint16
	HardTimeout uint16
	Cookie      uint64
	PacketCount uint64
	ByteCount   uint64
}

const flowStatLen = 2 + 1 + 1 + MatchLen + 4 + 4 + 2 + 2 + 2 + 6 + 8 + 8 + 8

// FlowStatsReply is OFPT_STATS_REPLY carrying flow entries.
type FlowStatsReply struct {
	XID   uint32
	Flows []FlowStat
}

// Type implements Message.
func (m *FlowStatsReply) Type() MsgType { return TypeStatsReply }

// TransactionID implements Message.
func (m *FlowStatsReply) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *FlowStatsReply) Len() int { return HeaderLen + 4 + len(m.Flows)*flowStatLen }

// Marshal implements Message.
func (m *FlowStatsReply) Marshal() []byte {
	buf := newWire(TypeStatsReply, m.XID, m.Len(), nil)
	body := buf[HeaderLen:]
	binary.BigEndian.PutUint16(body[0:2], StatsFlow)
	off := 4
	for _, f := range m.Flows {
		binary.BigEndian.PutUint16(body[off:off+2], uint16(flowStatLen))
		f.Match.put(body[off+4 : off+4+MatchLen])
		o := off + 4 + MatchLen
		binary.BigEndian.PutUint32(body[o:o+4], f.DurationSec)
		binary.BigEndian.PutUint16(body[o+8:o+10], f.Priority)
		binary.BigEndian.PutUint16(body[o+10:o+12], f.IdleTimeout)
		binary.BigEndian.PutUint16(body[o+12:o+14], f.HardTimeout)
		binary.BigEndian.PutUint64(body[o+20:o+28], f.Cookie)
		binary.BigEndian.PutUint64(body[o+28:o+36], f.PacketCount)
		binary.BigEndian.PutUint64(body[o+36:o+44], f.ByteCount)
		off += flowStatLen
	}
	return buf
}

func parseStatsReply(h Header, body []byte) (Message, error) {
	if len(body) < 4 {
		return nil, ErrTruncated
	}
	reply := &FlowStatsReply{XID: h.XID}
	rest := body[4:]
	for len(rest) >= flowStatLen {
		match, err := parseMatch(rest[4 : 4+MatchLen])
		if err != nil {
			return nil, err
		}
		o := 4 + MatchLen
		reply.Flows = append(reply.Flows, FlowStat{
			Match:       match,
			DurationSec: binary.BigEndian.Uint32(rest[o : o+4]),
			Priority:    binary.BigEndian.Uint16(rest[o+8 : o+10]),
			IdleTimeout: binary.BigEndian.Uint16(rest[o+10 : o+12]),
			HardTimeout: binary.BigEndian.Uint16(rest[o+12 : o+14]),
			Cookie:      binary.BigEndian.Uint64(rest[o+20 : o+28]),
			PacketCount: binary.BigEndian.Uint64(rest[o+28 : o+36]),
			ByteCount:   binary.BigEndian.Uint64(rest[o+36 : o+44]),
		})
		rest = rest[flowStatLen:]
	}
	return reply, nil
}

// PortStatus is OFPT_PORT_STATUS: the switch notifies the controller of a
// port's link going down or up.
type PortStatus struct {
	XID    uint32
	Reason PortReason
	Port   uint16
	// Down reports the link state carried in the port's config/state
	// bits (true = link down).
	Down bool
}

// PortReason is the ofp_port_reason.
type PortReason uint8

// Port status reasons.
const (
	PortAdd    PortReason = 0
	PortDelete PortReason = 1
	PortModify PortReason = 2
)

// Type implements Message.
func (m *PortStatus) Type() MsgType { return TypePortStatus }

// TransactionID implements Message.
func (m *PortStatus) TransactionID() uint32 { return m.XID }

// Len implements Message.
func (m *PortStatus) Len() int { return HeaderLen + 8 + physPortLen }

// Marshal implements Message. A minimal ofp_phy_port carries the port
// number and the OFPPS_LINK_DOWN state bit.
func (m *PortStatus) Marshal() []byte {
	buf := newWire(TypePortStatus, m.XID, m.Len(), nil)
	body := buf[HeaderLen:]
	body[0] = uint8(m.Reason)
	binary.BigEndian.PutUint16(body[8:10], m.Port)
	if m.Down {
		binary.BigEndian.PutUint32(body[8+28:8+32], 1) // OFPPS_LINK_DOWN
	}
	return buf
}

func parsePortStatus(h Header, body []byte) (Message, error) {
	if len(body) < 8+physPortLen {
		return nil, ErrTruncated
	}
	return &PortStatus{
		XID:    h.XID,
		Reason: PortReason(body[0]),
		Port:   binary.BigEndian.Uint16(body[8:10]),
		Down:   binary.BigEndian.Uint32(body[8+28:8+32])&1 != 0,
	}, nil
}
