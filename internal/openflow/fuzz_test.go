package openflow

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzOpenFlowParse feeds arbitrary bytes to the two parsers that read
// input from the wire, Parse (controller channel) and ParsePacket (frames
// in PACKET_IN / PACKET_OUT data), which must never panic. Every message
// Parse accepts must survive Marshal: its Len is the re-encoding's size,
// parsing the re-encoding gives the same message, and re-encoding that
// gives the same bytes.
func FuzzOpenFlowParse(f *testing.F) {
	for _, msg := range wireSamples() {
		wire := msg.Marshal()
		f.Add(wire)
		f.Add(wire[:len(wire)-1])
	}
	bad := (&Hello{}).Marshal()
	bad[0] = 0x04
	f.Add(bad)
	f.Add((&FlowMod{Match: MatchAll()}).Marshal()[:HeaderLen+10])
	f.Add([]byte{Version, byte(TypeHello), 0, 4})
	f.Add(ARPPacket(ARPRequest, MAC{1}, IPv4{10, 0, 0, 1}, MAC{}, IPv4{10, 0, 0, 2}))
	f.Add(TCPPacket(MAC{1}, MAC{2}, IPv4{10, 0, 0, 1}, IPv4{10, 0, 0, 2}, 1, 2, 0, 8))
	f.Add(LLDPPacket(MAC{2}, 0x42, 3))
	f.Add(EncapsulatePacketIn(&PacketIn{XID: 5, InPort: 2, Data: []byte{1, 2, 3}}, MAC{0xEE}))
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = ParsePacket(b, 0)
		msg, err := Parse(b)
		if err != nil {
			return
		}
		wire := msg.Marshal()
		if msg.Len() != len(wire) {
			t.Fatalf("%v parsed from %x: Len %d, Marshal %d bytes", msg.Type(), b, msg.Len(), len(wire))
		}
		back, err := Parse(wire)
		if err != nil {
			t.Fatalf("%v parsed from %x does not reparse from its Marshal %x: %v", msg.Type(), b, wire, err)
		}
		if !reflect.DeepEqual(back, msg) {
			t.Fatalf("%x parses to %#v, its Marshal %x to %#v", b, msg, wire, back)
		}
		if again := back.Marshal(); !bytes.Equal(again, wire) {
			t.Fatalf("%v re-marshals to %x, first Marshal gave %x", msg.Type(), again, wire)
		}
		if pin, ok := msg.(*PacketIn); ok {
			frame := EncapsulatePacketIn(pin, MAC{0xEE})
			if !bytes.Equal(frame[len(frame)-len(wire):], wire) {
				t.Fatalf("PACKET_IN %x encapsulates as %x, not behind its Marshal", wire, frame)
			}
			if inner, err := DecapsulatePacketIn(frame); err != nil || !reflect.DeepEqual(inner, msg) {
				t.Fatalf("PACKET_IN %x decapsulates to %#v (%v), want %#v", wire, inner, err, msg)
			}
		}
	})
}
