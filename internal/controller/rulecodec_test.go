package controller_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// encoding/json and the fmt renderings below are the oracle the FlowsDB rule
// codec and the append renderers are held to.

func refMAC(m openflow.MAC) string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

func refIPv4(ip openflow.IPv4) string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

func refMatch(m openflow.Match) string {
	var parts []string
	w := m.Wildcards
	if w&openflow.WildcardInPort == 0 {
		parts = append(parts, fmt.Sprintf("in_port=%d", m.InPort))
	}
	if w&openflow.WildcardDLSrc == 0 {
		parts = append(parts, "dl_src="+refMAC(m.DLSrc))
	}
	if w&openflow.WildcardDLDst == 0 {
		parts = append(parts, "dl_dst="+refMAC(m.DLDst))
	}
	if w&openflow.WildcardDLType == 0 {
		parts = append(parts, fmt.Sprintf("dl_type=0x%04x", m.DLType))
	}
	if w&openflow.WildcardNWProto == 0 {
		parts = append(parts, fmt.Sprintf("nw_proto=%d", m.NWProto))
	}
	if bits := m.NWSrcMaskBits(); bits < 32 {
		parts = append(parts, fmt.Sprintf("nw_src=%s/%d", refIPv4(m.NWSrc), 32-bits))
	}
	if bits := m.NWDstMaskBits(); bits < 32 {
		parts = append(parts, fmt.Sprintf("nw_dst=%s/%d", refIPv4(m.NWDst), 32-bits))
	}
	if w&openflow.WildcardTPSrc == 0 {
		parts = append(parts, fmt.Sprintf("tp_src=%d", m.TPSrc))
	}
	if w&openflow.WildcardTPDst == 0 {
		parts = append(parts, fmt.Sprintf("tp_dst=%d", m.TPDst))
	}
	if len(parts) == 0 {
		return "match=*"
	}
	return strings.Join(parts, ",")
}

func refCommand(c openflow.FlowModCommand) string {
	switch c {
	case openflow.FlowAdd:
		return "ADD"
	case openflow.FlowModify:
		return "MODIFY"
	case openflow.FlowModifyStrict:
		return "MODIFY_STRICT"
	case openflow.FlowDelete:
		return "DELETE"
	case openflow.FlowDeleteStrict:
		return "DELETE_STRICT"
	}
	return fmt.Sprintf("CMD(%d)", uint16(c))
}

func refKey(r controller.FlowRule) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", uint64(r.DPID), refMatch(r.Match), r.Priority)
	return fmt.Sprintf("of:%016x/%016x", uint64(r.DPID), h.Sum64())
}

func refFlowMod(m *openflow.FlowMod) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flowmod|%s|prio=%d|%s|", refCommand(m.Command), m.Priority, refMatch(m.Match))
	for _, a := range m.Actions {
		fmt.Fprintf(&b, "out:%d,", a.Port)
	}
	fmt.Fprintf(&b, "|idle=%d|hard=%d", m.IdleTimeout, m.HardTimeout)
	return b.String()
}

func refPacketOut(m *openflow.PacketOut) string {
	var b strings.Builder
	b.WriteString("packetout|")
	for _, a := range m.Actions {
		fmt.Fprintf(&b, "out:%d,", a.Port)
	}
	if pf, err := openflow.ParsePacket(m.Data, 0); err == nil {
		fmt.Fprintf(&b, "|eth=0x%04x|src=%s|dst=%s", pf.EthType, pf.EthSrc, pf.EthDst)
	}
	return b.String()
}

// rulePacketOut builds a PACKET_OUT from the rule's actions carrying an
// Ethernet header from its match (dl_dst, dl_src, dl_type) and 28 zero
// bytes, or only the first 13 bytes of that when truncate is set: a frame
// that parses for most ethertypes, not for IPv4, and never when truncated.
func rulePacketOut(r controller.FlowRule, truncate bool) *openflow.PacketOut {
	m := r.Match
	frame := make([]byte, 14+28)
	copy(frame, m.DLDst[:])
	copy(frame[6:], m.DLSrc[:])
	frame[12], frame[13] = byte(m.DLType>>8), byte(m.DLType)
	if truncate {
		frame = frame[:13]
	}
	return &openflow.PacketOut{Actions: r.Actions, Data: frame}
}

// checkEncode holds Encode to json.Marshal, and the decoding of its output
// to json.Unmarshal.
func checkEncode(t *testing.T, r controller.FlowRule) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Encode(); got != string(want) {
		t.Fatalf("Encode:\n%s\njson.Marshal:\n%s", got, want)
	}
	var ref controller.FlowRule
	back, err := controller.DecodeFlowRule(string(want))
	if werr := json.Unmarshal(want, &ref); err != nil || werr != nil || !reflect.DeepEqual(back, ref) {
		t.Fatalf("%s decodes to %#v (%v), json.Unmarshal gives %#v (%v)", want, back, err, ref, werr)
	}
}

// checkRenderers holds every append renderer to its fmt reference.
func checkRenderers(t *testing.T, r controller.FlowRule) {
	t.Helper()
	m := r.Match
	cmd := openflow.FlowModCommand(r.Command)
	for _, c := range []struct{ what, got, want string }{
		{"DPID", r.DPID.String(), fmt.Sprintf("of:%016x", uint64(r.DPID))},
		{"MAC", m.DLSrc.String(), refMAC(m.DLSrc)},
		{"IPv4", m.NWDst.String(), refIPv4(m.NWDst)},
		{"Match", m.String(), refMatch(m)},
		{"FlowModCommand", cmd.String(), refCommand(cmd)},
		{"Key", r.Key(), refKey(r)},
		{"CanonicalMessage", core.CanonicalMessage(r.FlowMod(0)), refFlowMod(r.FlowMod(0))},
		{"CanonicalMessage(PacketOut)", core.CanonicalMessage(rulePacketOut(r, false)), refPacketOut(rulePacketOut(r, false))},
		{"CanonicalMessage(PacketOut, truncated)", core.CanonicalMessage(rulePacketOut(r, true)), refPacketOut(rulePacketOut(r, true))},
	} {
		if c.got != c.want {
			t.Fatalf("%s renders %q, fmt reference %q", c.what, c.got, c.want)
		}
	}
	if dpid, ok := controller.KeyDPID(r.Key()); !ok || dpid != r.DPID {
		t.Fatalf("KeyDPID(%q) = %v, %v; want %v", r.Key(), dpid, ok, r.DPID)
	}
}

// TestKeyDPID holds KeyDPID to be the inverse of the switch prefix Key
// renders, over random rules, and to refuse keys that do not start with
// exactly "of:", 16 hex digits and "/".
func TestKeyDPID(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		r := codecRule()
		r.DPID = topo.DPID(rng.Uint64() >> uint(rng.Intn(64)))
		r.Priority = uint16(rng.Intn(1 << 16))
		r.Match.Wildcards = rng.Uint32()
		r.Match.DLSrc[rng.Intn(6)] = byte(rng.Intn(256))
		if dpid, ok := controller.KeyDPID(r.Key()); !ok || dpid != r.DPID {
			t.Fatalf("KeyDPID(%q) = %v, %v; want %v", r.Key(), dpid, ok, r.DPID)
		}
	}
	for _, c := range []struct {
		key  string
		dpid topo.DPID
		ok   bool
	}{
		{"of:0000000000000000/", 0, true},
		{"of:ffffffffffffffff/x", 1<<64 - 1, true},
		{"of:00000000000000a1/0123456789abcdef", 0xa1, true},
		{"", 0, false},
		{"of:", 0, false},
		{"of:0000000000000001", 0, false},
		{"of:00000000000001/0123", 0, false},
		{"of:0000000000000001x", 0, false},
		{"of:00000000000000A1/", 0xa1, true},
		{"of:000000000000000g/", 0, false},
		{"of: 000000000000001/", 0, false},
		{"OF:0000000000000001/", 0, false},
		{"0f:0000000000000001/", 0, false},
		{"k", 0, false},
		{"1:2->3:4", 0, false},
	} {
		if dpid, ok := controller.KeyDPID(c.key); dpid != c.dpid || ok != c.ok {
			t.Errorf("KeyDPID(%q) = %v, %v; want %v, %v", c.key, dpid, ok, c.dpid, c.ok)
		}
	}
}

// esc writes the JSON escape of one UTF-16 code unit given in hex.
func esc(hex string) string { return `\` + "u" + hex }

// codecRule sets every field of a rule, attribution included.
var codecRule = controller.CodecRule

// codecSeeds are FlowsDB values covering encoding/json's decoding rules:
// core's malformedValues and FuzzCanonicalValue shapes, then whitespace,
// null, folded and escaped keys, repeated keys, wrong lengths, types and
// ranges, unknown members, string escapes, syntax errors and nesting depth;
// then the edges of the layout DecodeFlowRule reads without encoding/json.
func codecSeeds() []string {
	plain := controller.FlowRule{DPID: 3, Match: openflow.ExactDst(topo.HostMAC(5)), Priority: 1,
		Actions: []openflow.Action{openflow.Output(2)}}
	nest := func(n int) string { return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}` }
	seeds := []string{
		plain.Encode(), codecRule().Encode(), controller.FlowRule{}.Encode(),
		"", "{", `{"dpid":`, `{"dpid":1}trailing`, `[1,2,3]`, `"rule"`, "null\x00",
		`{"dpid":"one"}`, `{"actions":[{"Port":99999999999999999999}]}`, "\xff\xfe",
		`{"origin":3,"trigger":"t","dpid":1,"priority":10,"actions":[]}`,
		" \t\r\n{ \"dpid\" : 1 ,\n\"priority\":2 } \n", "null", " null ", "{}", "nul", "nullx", "{}{}",
		`{"DPID":3,"PRIORITY":4,"Match":{"inport":5,"dlsrc":[1]},"ACTIONS":[{"port":1,"MAXLEN":2}]}`,
		"{\"\xc5\xbftate\":\"x\"}", "{\"\xe2\x84\xaaey\":1}",
		`{"d` + esc("0070") + `id":5}`, `{"` + esc("017f") + `tate":"k"}`, `{"dpid` + esc("0000") + `":5}`,
		`{"dpid":1,"dpid":2}`, `{"DPID":1,"dpid":null}`,
		`{"match":{"InPort":1,"TPSrc":9},"match":{"TPSrc":2}}`,
		`{"actions":[{"Port":1,"MaxLen":5}],"actions":[{"Port":2}]}`,
		`{"actions":[{"Port":1},{"Port":2}],"actions":[{"Port":3}],"actions":[{},{}]}`,
		`{"actions":[{"Port":1},{"Port":2},{"Port":3}],"actions":[],"actions":[{}]}`,
		`{"actions":[{"Port":1}],"actions":null}`, `{"actions":[null,{"Port":7},null]}`, `{"actions":null}`,
		`{"match":{"DLSrc":[1,2,3,4,5,6]},"match":{"DLSrc":[9,null]}}`, `{"match":null}`, `{"match":{"DLSrc":null}}`,
		`{"match":{"DLSrc":[1,2,3,4,5,6,7,"x",{"y":[]},null]}}`, `{"match":{"NWSrc":[256]}}`,
		`{"match":{"DLSrc":"AAECAwQF"}}`, `{"match":{"DLSrc":[]}}`,
		`{"priority":65535}`, `{"priority":65536}`, `{"priority":-1}`,
		`{"dpid":18446744073709551615}`, `{"dpid":18446744073709551616}`,
		`{"dpid":1.0}`, `{"dpid":1e2}`, `{"dpid":-0}`, `{"origin":-0}`,
		`{"origin":-9223372036854775808}`, `{"origin":9223372036854775808}`,
		`{"command":true}`, `{"match":5}`, `{"actions":{}}`, `{"actions":[1]}`, `{"trigger":5}`,
		`{"state":{}}`, `{"match":[]}`, `{"trigger":null,"state":null}`,
		`{"x":{"a":[1,-2.5e+3,0.5E-2,true,false,null,"s\"\\\/\b\f\n\r\t"]},"y":[],"z":{},"":0}`,
		`{"trigger":"` + esc("d83d") + esc("de00") + ` ` + esc("d800") + ` ` + esc("dc00") + esc("0041") +
			esc("d800") + esc("d800") + esc("DBFF") + esc("DFFF") + `","state":"` + esc("00e9") + esc("2028") + `"}`,
		"{\"trigger\":\"<>&\x7f\xe2\x80\xa8\xe2\x80\xa9\",\"state\":\"\xed\xa0\x80\xff\xc3\"}",
		"{\"trigger\":\"a\x01\"}", `{"trigger":"\x"}`, `{"trigger":"` + esc("12") + `"}`, `{"trigger":"abc`,
		`{"dpid":01}`, `{"dpid":-}`, `{"dpid":1.}`, `{"dpid":1e}`, `{"dpid":1e+}`, `{,}`, `{"dpid":1,}`,
		`{"dpid" 1}`, `{"a":nul}`, `{"a":tru}`, `{"a":[1,]}`, `{"a":[1 2]}`, `{"a":{"b"}}`, `{'a':1}`,
		"\xef\xbb\xbf{}",
		nest(9999), nest(10000),
	}
	// codecRule's encoding with one substitution each, at the edges of the
	// directly read layout: each must be read as json.Unmarshal reads it.
	enc := codecRule().Encode()
	for _, sub := range [][2]string{
		{`"DLVLAN":7`, `"DLVLAN":07`}, {`"NWSrc":[10,`, `"NWSrc":[256,`},
		{`"DLSrc":[0,0,0,0,0,1]`, `"DLSrc":[0,0,1]`}, {`"DLSrc":[0,0,0,0,0,1]`, `"DLSrc":[0,0,0,0,1]`},
		{`"Port":4,`, `"Port":65536,`},
		{`"origin":2`, `"origin":-0`}, {`"origin":2`, `"origin":-9223372036854775808`},
		{`"actions":[{"Port":4,"MaxLen":65535},{"Port":65533,"MaxLen":65535}]`, `"actions":[]`},
		{`"actions":[{"Port":4,"MaxLen":65535},{"Port":65533,"MaxLen":65535}]`, `"actions":null`},
		{`"actions":[`, `"actions":[{"Port":1,"MaxLen":0},`},
		{`"idleTimeoutSec":10`, `"idleTimeoutSec":0`},
		{`"trigger":"τ7"`, `"trigger":"τ\"7"`}, {`"trigger":"τ7"`, "\"trigger\":\"τ\u20287\""},
		{`"trigger":"τ7"`, "\"trigger\":\"τ\x017\""}, {`"trigger":"τ7"`, "\"trigger\":\"τ\xff7\""},
	} {
		seed := strings.Replace(enc, sub[0], sub[1], 1)
		if seed == enc {
			panic("codecSeeds: " + sub[0] + " is not in codecRule's encoding")
		}
		seeds = append(seeds, seed)
	}
	return append(seeds, enc+" ", enc+"x")
}

// FuzzFlowRuleCodec is the differential oracle for the FlowsDB rule codec:
// DecodeFlowRule accepts exactly what json.Unmarshal accepts and decodes it
// to a deeply equal rule (so nil and empty Actions differ); Encode writes
// json.Marshal's bytes, also with the fuzzed Trigger and State strings; and
// Key, Match.String, the other String methods and CanonicalMessage render
// what their fmt references above render.
func FuzzFlowRuleCodec(f *testing.F) {
	for _, s := range codecSeeds() {
		f.Add(s, "", "")
	}
	f.Add(codecRule().Encode(), "τ<>&\xe2\x80\xa8\x01\x1f\xff\"\\", "pending\xe2\x80\xa9\x7f\xed\xa0\x80\b\f\n\r\t")
	f.Fuzz(func(t *testing.T, value, trig, state string) {
		got, err := controller.DecodeFlowRule(value)
		var want controller.FlowRule
		werr := json.Unmarshal([]byte(value), &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: DecodeFlowRule error %v, json.Unmarshal error %v", value, err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q decodes to\n%#v\njson.Unmarshal gives\n%#v", value, got, want)
		}
		checkEncode(t, got)
		got.Trigger, got.State = trigger.ID(trig), state
		checkEncode(t, got)
		checkRenderers(t, got)
	})
}

// TestFlowRuleCodecAllocs pins the codec's allocations: decoding an encoded
// rule allocates only its Actions, and appending one into a reused buffer
// allocates nothing, not even for the rule itself.
func TestFlowRuleCodecAllocs(t *testing.T) {
	rule := codecRule()
	enc := rule.Encode()
	var got controller.FlowRule
	if n := testing.AllocsPerRun(100, func() { got, _ = controller.DecodeFlowRule(enc) }); n > 1 {
		t.Errorf("DecodeFlowRule allocated %.0f times, want at most 1 (the Actions)", n)
	}
	if !reflect.DeepEqual(got, rule) {
		t.Fatalf("round trip gives %#v, want %#v", got, rule)
	}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf = rule.AppendEncode(buf[:0]) }); n != 0 {
		t.Errorf("AppendEncode into a reused buffer allocated %.0f times, want 0", n)
	}
	// Nothing of the rule escapes through AppendEncode, so a rule built
	// just to be encoded, Actions included, stays on the stack.
	if n := testing.AllocsPerRun(100, func() {
		r := controller.FlowRule{Actions: []openflow.Action{openflow.Output(uint16(len(buf)))}, Trigger: rule.Trigger}
		buf = r.AppendEncode(buf[:0])
	}); n != 0 {
		t.Errorf("encoding a fresh rule into a reused buffer allocated %.0f times, want 0", n)
	}
}
