package openflow

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	wire := msg.Marshal()
	got, err := Parse(wire)
	if err != nil {
		t.Fatalf("Parse(%v): %v", msg.Type(), err)
	}
	return got
}

// wireSamples is one message of every type Parse decodes, as the
// round-trip tests below build them: the FuzzOpenFlowParse seed corpus,
// whose round-trip check every go test run applies to each of them.
func wireSamples() []Message {
	frame := ARPPacket(ARPRequest, MAC{1}, IPv4{10, 0, 0, 1}, MAC{}, IPv4{10, 0, 0, 2})
	return []Message{
		&Hello{XID: 7},
		&EchoRequest{XID: 1, Data: []byte("ping")},
		&EchoReply{XID: 1, Data: []byte("pong")},
		&FeaturesRequest{XID: 2},
		&FeaturesReply{XID: 3, DatapathID: 0xABCDEF, NumBuffers: 256, NumTables: 2, Capabilities: 0xC7,
			Actions: 0xFFF, Ports: []uint16{1, 2, 3}},
		&PacketIn{XID: 9, BufferID: 0xFFFFFFFF, TotalLen: uint16(len(frame)), InPort: 4, Reason: ReasonNoMatch, Data: frame},
		&PacketOut{XID: 11, BufferID: 0xFFFFFFFF, InPort: 2, Actions: []Action{Output(3), Output(PortFlood)},
			Data: []byte{1, 2, 3, 4}},
		&FlowMod{XID: 21, Match: ExactSrcDst(MAC{1, 2, 3, 4, 5, 6}, MAC{6, 5, 4, 3, 2, 1}), Cookie: 0xDEADBEEF,
			Command: FlowAdd, IdleTimeout: 10, HardTimeout: 60, Priority: 100, BufferID: 0xFFFFFFFF,
			OutPort: PortNone, Flags: FlagSendFlowRem, Actions: []Action{Output(7)}},
		&FlowRemoved{XID: 5, Match: ExactDst(MAC{9}), Cookie: 77, Priority: 10, Reason: RemovedIdleTimeout,
			DurationSec: 12, PacketCount: 34, ByteCount: 56},
		&ErrorMsg{XID: 1, ErrType: 3, Code: 2, Data: []byte{0xAA}},
		&BarrierRequest{XID: 1},
		&BarrierReply{XID: 2},
		&FlowStatsRequest{XID: 3, Match: ExactDst(MAC{5}), TableID: 0, OutPort: PortNone},
		&FlowStatsReply{XID: 9, Flows: []FlowStat{
			{Match: ExactDst(MAC{1}), Priority: 10, DurationSec: 5, IdleTimeout: 10, Cookie: 7, PacketCount: 42, ByteCount: 4200},
			{Match: MatchAll(), Priority: 1},
		}},
		&PortStatus{XID: 2, Reason: PortModify, Port: 7, Down: true},
	}
}

// lenSamples is wireSamples plus, for every message with a variable part,
// one with that part empty and one with it as large as the 16-bit header
// length allows.
func lenSamples() []Message {
	const maxLen = 0xFFFF
	data := func(fixed int) []byte { return make([]byte, maxLen-fixed) }
	acts := func(fixed int) []Action { return make([]Action, (maxLen-fixed)/actionLen) }
	return append(wireSamples(),
		&EchoRequest{}, &EchoRequest{Data: data(HeaderLen)},
		&EchoReply{}, &EchoReply{Data: data(HeaderLen)},
		&FeaturesReply{}, &FeaturesReply{Ports: make([]uint16, (maxLen-HeaderLen-24)/physPortLen)},
		&PacketIn{}, &PacketIn{Data: data(HeaderLen + 10)},
		&PacketOut{}, &PacketOut{Data: data(HeaderLen + 8)}, &PacketOut{Actions: acts(HeaderLen + 8)},
		&PacketOut{Actions: []Action{Output(1)}, Data: data(HeaderLen + 8 + actionLen)},
		&FlowMod{}, &FlowMod{Actions: acts(HeaderLen + MatchLen + 24)},
		&ErrorMsg{}, &ErrorMsg{Data: data(HeaderLen + 4)},
		&FlowStatsReply{}, &FlowStatsReply{Flows: make([]FlowStat, (maxLen-HeaderLen-4)/flowStatLen)},
	)
}

// TestLenMatchesMarshal pins Len, which the overhead accounting reads,
// to the size of the encoding Marshal builds and to its header's length.
func TestLenMatchesMarshal(t *testing.T) {
	for _, m := range lenSamples() {
		wire := m.Marshal()
		if m.Len() != len(wire) {
			t.Errorf("%v: Len %d, Marshal %d bytes", m.Type(), m.Len(), len(wire))
		}
		if h, err := parseHeader(wire); err != nil || int(h.Len) != len(wire) {
			t.Errorf("%v: header length %d (err %v), Marshal %d bytes", m.Type(), h.Len, err, len(wire))
		}
	}
}

// TestMarshalAllocatesOnce holds every Marshal to the one buffer it
// returns.
func TestMarshalAllocatesOnce(t *testing.T) {
	for _, m := range lenSamples() {
		if n := testing.AllocsPerRun(20, func() { m.Marshal() }); n != 1 {
			t.Errorf("%v.Marshal with Len %d allocated %.0f times, want 1", m.Type(), m.Len(), n)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	got := roundTrip(t, &Hello{XID: 7})
	if got.(*Hello).XID != 7 {
		t.Fatalf("xid = %d", got.(*Hello).XID)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	req := &EchoRequest{XID: 1, Data: []byte("ping")}
	got := roundTrip(t, req).(*EchoRequest)
	if !bytes.Equal(got.Data, req.Data) {
		t.Fatalf("data = %q", got.Data)
	}
	rep := &EchoReply{XID: 1, Data: []byte("pong")}
	got2 := roundTrip(t, rep).(*EchoReply)
	if !bytes.Equal(got2.Data, rep.Data) {
		t.Fatalf("reply data = %q", got2.Data)
	}
}

func TestFeaturesReplyRoundTrip(t *testing.T) {
	msg := &FeaturesReply{
		XID:          3,
		DatapathID:   0xABCDEF,
		NumBuffers:   256,
		NumTables:    2,
		Capabilities: 0xC7,
		Actions:      0xFFF,
		Ports:        []uint16{1, 2, 3},
	}
	got := roundTrip(t, msg).(*FeaturesReply)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v, want %+v", got, msg)
	}
}

func TestPacketInRoundTrip(t *testing.T) {
	frame := ARPPacket(ARPRequest, MAC{1}, IPv4{10, 0, 0, 1}, MAC{}, IPv4{10, 0, 0, 2})
	msg := &PacketIn{XID: 9, BufferID: 0xFFFFFFFF, TotalLen: uint16(len(frame)), InPort: 4, Reason: ReasonNoMatch, Data: frame}
	got := roundTrip(t, msg).(*PacketIn)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v, want %+v", got, msg)
	}
}

func TestPacketOutRoundTrip(t *testing.T) {
	msg := &PacketOut{
		XID:      11,
		BufferID: 0xFFFFFFFF,
		InPort:   2,
		Actions:  []Action{Output(3), Output(PortFlood)},
		Data:     []byte{1, 2, 3, 4},
	}
	got := roundTrip(t, msg).(*PacketOut)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v, want %+v", got, msg)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	m := ExactSrcDst(MAC{1, 2, 3, 4, 5, 6}, MAC{6, 5, 4, 3, 2, 1})
	msg := &FlowMod{
		XID:         21,
		Match:       m,
		Cookie:      0xDEADBEEF,
		Command:     FlowAdd,
		IdleTimeout: 10,
		HardTimeout: 60,
		Priority:    100,
		BufferID:    0xFFFFFFFF,
		OutPort:     PortNone,
		Flags:       FlagSendFlowRem,
		Actions:     []Action{Output(7)},
	}
	got := roundTrip(t, msg).(*FlowMod)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v, want %+v", got, msg)
	}
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	msg := &FlowRemoved{
		XID:         5,
		Match:       ExactDst(MAC{9}),
		Cookie:      77,
		Priority:    10,
		Reason:      RemovedIdleTimeout,
		DurationSec: 12,
		PacketCount: 34,
		ByteCount:   56,
	}
	got := roundTrip(t, msg).(*FlowRemoved)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v, want %+v", got, msg)
	}
}

func TestErrorMsgRoundTrip(t *testing.T) {
	msg := &ErrorMsg{XID: 1, ErrType: 3, Code: 2, Data: []byte{0xAA}}
	got := roundTrip(t, msg).(*ErrorMsg)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v, want %+v", got, msg)
	}
}

func TestBarrierRoundTrip(t *testing.T) {
	roundTrip(t, &BarrierRequest{XID: 1})
	roundTrip(t, &BarrierReply{XID: 2})
}

func TestParseRejectsBadVersion(t *testing.T) {
	wire := (&Hello{}).Marshal()
	wire[0] = 0x04
	if _, err := Parse(wire); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	wire := (&FlowMod{Match: MatchAll()}).Marshal()
	if _, err := Parse(wire[:HeaderLen+10]); err == nil {
		t.Fatal("expected error for truncated body")
	}
	if _, err := Parse(wire[:4]); !errors.Is(err, ErrTruncated) {
		t.Fatal("expected ErrTruncated for short header")
	}
}

func TestReadWriteMessageStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Hello{XID: 1},
		&PacketIn{XID: 2, InPort: 3, Data: []byte{1, 2}},
		&FlowMod{XID: 3, Match: MatchAll(), Actions: []Action{Output(1)}},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type() != want.Type() || got.TransactionID() != want.TransactionID() {
			t.Fatalf("got %v/%d, want %v/%d", got.Type(), got.TransactionID(), want.Type(), want.TransactionID())
		}
	}
}

func TestMatchAllCoversEverything(t *testing.T) {
	m := MatchAll()
	pf := PacketFields{InPort: 9, EthSrc: MAC{1}, EthDst: MAC{2}, EthType: EthTypeIPv4, IPProto: IPProtoTCP, TPDst: 80}
	if !m.Covers(pf) {
		t.Fatal("wildcard-all match must cover any packet")
	}
}

func TestMatchExactSrcDst(t *testing.T) {
	src, dst := MAC{1, 1, 1, 1, 1, 1}, MAC{2, 2, 2, 2, 2, 2}
	m := ExactSrcDst(src, dst)
	if !m.Covers(PacketFields{EthSrc: src, EthDst: dst, EthType: EthTypeIPv4}) {
		t.Fatal("should cover matching src/dst")
	}
	if m.Covers(PacketFields{EthSrc: dst, EthDst: src}) {
		t.Fatal("should not cover swapped addresses")
	}
}

func TestMatchIPPrefix(t *testing.T) {
	m := MatchAll()
	m.NWDst = IPv4{10, 0, 0, 0}
	m = m.WithNWDstMask(8) // /24
	if m.NWDstMaskBits() != 8 {
		t.Fatalf("mask bits = %d", m.NWDstMaskBits())
	}
	if !m.Covers(PacketFields{IPDst: IPv4{10, 0, 0, 42}}) {
		t.Fatal("/24 should cover 10.0.0.42")
	}
	if m.Covers(PacketFields{IPDst: IPv4{10, 0, 1, 42}}) {
		t.Fatal("/24 should not cover 10.0.1.42")
	}
}

func TestMatchEqualNormalizesWildcardedFields(t *testing.T) {
	a := MatchAll()
	a.DLSrc = MAC{1, 2, 3, 4, 5, 6} // wildcarded garbage
	b := MatchAll()
	if !a.Equal(b) {
		t.Fatal("wildcarded field values must not affect equality")
	}
	c := ExactDst(MAC{9})
	if a.Equal(c) {
		t.Fatal("different matches compared equal")
	}
}

func TestMatchHierarchy(t *testing.T) {
	tests := []struct {
		name string
		make func() Match
		want bool
	}{
		{"wildcard-all", MatchAll, true},
		{"l4-without-proto", func() Match {
			m := MatchAll()
			m.Wildcards &^= WildcardTPDst
			m.TPDst = 80
			return m
		}, false},
		{"l4-with-tcp", func() Match {
			m := MatchAll()
			m.Wildcards &^= WildcardDLType | WildcardNWProto | WildcardTPDst
			m.DLType = EthTypeIPv4
			m.NWProto = IPProtoTCP
			m.TPDst = 80
			return m
		}, true},
		{"l3-without-dltype", func() Match {
			m := MatchAll().WithNWDstMask(0)
			m.NWDst = IPv4{10, 0, 0, 1}
			return m
		}, false},
		{"l3-with-ipv4", func() Match {
			m := MatchAll().WithNWDstMask(0)
			m.Wildcards &^= WildcardDLType
			m.DLType = EthTypeIPv4
			m.NWDst = IPv4{10, 0, 0, 1}
			return m
		}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.make().HierarchyValid(); got != tt.want {
				t.Fatalf("HierarchyValid = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMatchRoundTripProperty(t *testing.T) {
	f := func(wc uint32, inPort uint16, src, dst [6]byte, dlType uint16, proto uint8, nwSrc, nwDst [4]byte, tpSrc, tpDst uint16) bool {
		m := Match{
			Wildcards: wc & WildcardAll,
			InPort:    inPort,
			DLSrc:     src,
			DLDst:     dst,
			DLType:    dlType,
			NWProto:   proto,
			NWSrc:     nwSrc,
			NWDst:     nwDst,
			TPSrc:     tpSrc,
			TPDst:     tpDst,
		}
		fm := &FlowMod{Match: m}
		parsed, err := Parse(fm.Marshal())
		if err != nil {
			return false
		}
		return parsed.(*FlowMod).Match == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestARPPacketParse(t *testing.T) {
	src, dst := MAC{1, 1, 1, 1, 1, 1}, MAC{2, 2, 2, 2, 2, 2}
	sip, tip := IPv4{10, 0, 0, 1}, IPv4{10, 0, 0, 2}
	frame := ARPPacket(ARPRequest, src, sip, MAC{}, tip)
	pf, err := ParsePacket(frame, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pf.EthType != EthTypeARP || pf.ARPOp != ARPRequest {
		t.Fatalf("type/op = %x/%d", pf.EthType, pf.ARPOp)
	}
	if pf.EthDst != BroadcastMAC {
		t.Fatal("ARP request must be broadcast")
	}
	if pf.ARPSenderIP != sip || pf.ARPTargetIP != tip {
		t.Fatalf("ips = %v/%v", pf.ARPSenderIP, pf.ARPTargetIP)
	}
	reply := ARPPacket(ARPReply, dst, tip, src, sip)
	rf, err := ParsePacket(reply, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rf.EthDst != src || rf.ARPOp != ARPReply {
		t.Fatal("ARP reply must be unicast to requester")
	}
}

func TestTCPPacketParse(t *testing.T) {
	frame := TCPPacket(MAC{1}, MAC{2}, IPv4{10, 0, 0, 1}, IPv4{10, 0, 0, 2}, 1234, 80, 0x02, 100)
	pf, err := ParsePacket(frame, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pf.EthType != EthTypeIPv4 || pf.IPProto != IPProtoTCP {
		t.Fatalf("type/proto = %x/%d", pf.EthType, pf.IPProto)
	}
	if pf.TPSrc != 1234 || pf.TPDst != 80 {
		t.Fatalf("ports = %d/%d", pf.TPSrc, pf.TPDst)
	}
	if pf.InPort != 7 {
		t.Fatalf("inport = %d", pf.InPort)
	}
}

func TestLLDPPacketParse(t *testing.T) {
	frame := LLDPPacket(MAC{2}, 0x42, 3)
	pf, err := ParsePacket(frame, 9)
	if err != nil {
		t.Fatal(err)
	}
	if pf.EthType != EthTypeLLDP {
		t.Fatalf("type = %x", pf.EthType)
	}
	if pf.LLDPChassisID != 0x42 || pf.LLDPPortID != 3 {
		t.Fatalf("chassis/port = %x/%d", pf.LLDPChassisID, pf.LLDPPortID)
	}
}

func TestParsePacketRejectsShortFrames(t *testing.T) {
	if _, err := ParsePacket([]byte{1, 2, 3}, 0); err == nil {
		t.Fatal("short frame must error")
	}
}

func TestEncapsulateDecapsulate(t *testing.T) {
	inner := &PacketIn{XID: 5, InPort: 2, Data: TCPPacket(MAC{1}, MAC{2}, IPv4{}, IPv4{}, 1, 2, 0, 0)}
	frame := EncapsulatePacketIn(inner, MAC{0xEE})
	got, err := DecapsulatePacketIn(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, inner) {
		t.Fatalf("inner mismatch: %+v vs %+v", got, inner)
	}
}

func TestDecapsulateRejectsPlainFrames(t *testing.T) {
	frame := TCPPacket(MAC{1}, MAC{2}, IPv4{}, IPv4{}, 1, 2, 0, 0)
	if _, err := DecapsulatePacketIn(frame); !errors.Is(err, ErrNotEncapsulated) {
		t.Fatalf("err = %v, want ErrNotEncapsulated", err)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Fatalf("mac = %s", m)
	}
	if !(MAC{}).IsZero() || m.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestIPv4Conversions(t *testing.T) {
	ip := IPv4{10, 1, 2, 3}
	if ip.String() != "10.1.2.3" {
		t.Fatalf("string = %s", ip)
	}
	if IPv4FromUint32(ip.Uint32()) != ip {
		t.Fatal("uint32 round trip failed")
	}
}

func TestFuzzParseDoesNotPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(120)
		buf := make([]byte, n)
		rng.Read(buf)
		if n > 0 {
			buf[0] = Version // pass version check sometimes
		}
		if n >= 4 && rng.Intn(2) == 0 {
			buf[2] = 0
			buf[3] = byte(n) // plausible length
		}
		_, _ = Parse(buf) // must not panic
		if n > 14 {
			_, _ = ParsePacket(buf, 0)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypeFlowMod.String() != "FLOW_MOD" {
		t.Fatalf("got %s", TypeFlowMod)
	}
	if MsgType(200).String() != "OFPT(200)" {
		t.Fatalf("got %s", MsgType(200))
	}
}

func TestFlowModCommandString(t *testing.T) {
	if FlowAdd.String() != "ADD" || FlowDeleteStrict.String() != "DELETE_STRICT" {
		t.Fatal("command names wrong")
	}
}

func TestFlowStatsRequestRoundTrip(t *testing.T) {
	msg := &FlowStatsRequest{XID: 3, Match: ExactDst(MAC{5}), TableID: 0, OutPort: PortNone}
	got := roundTrip(t, msg).(*FlowStatsRequest)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v, want %+v", got, msg)
	}
}

func TestFlowStatsReplyRoundTrip(t *testing.T) {
	msg := &FlowStatsReply{
		XID: 9,
		Flows: []FlowStat{
			{Match: ExactDst(MAC{1}), Priority: 10, DurationSec: 5, IdleTimeout: 10, Cookie: 7, PacketCount: 42, ByteCount: 4200},
			{Match: MatchAll(), Priority: 1},
		},
	}
	got := roundTrip(t, msg).(*FlowStatsReply)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v, want %+v", got, msg)
	}
}

func TestPortStatusRoundTrip(t *testing.T) {
	for _, down := range []bool{true, false} {
		msg := &PortStatus{XID: 2, Reason: PortModify, Port: 7, Down: down}
		got := roundTrip(t, msg).(*PortStatus)
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("got %+v, want %+v", got, msg)
		}
	}
}
