package controller

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// CodecRule sets every field of a rule, attribution included; the codec
// tests in package controller_test share it.
func CodecRule() FlowRule {
	m := openflow.Match{
		InPort: 3, DLSrc: topo.HostMAC(1), DLDst: topo.HostMAC(2), DLVLAN: 7, DLVLANPCP: 1,
		DLType: openflow.EthTypeIPv4, NWTOS: 4, NWProto: 6, NWSrc: topo.HostIP(1), NWDst: topo.HostIP(2),
		TPSrc: 80, TPDst: 443,
	}
	return FlowRule{
		DPID:        0x1f,
		Match:       m.WithNWDstMask(8),
		Priority:    10,
		Actions:     []openflow.Action{openflow.Output(4), openflow.Output(openflow.PortController)},
		IdleTimeout: 10,
		HardTimeout: 30,
		Command:     uint16(openflow.FlowModify),
		Trigger:     "τ7",
		Origin:      2,
		State:       RuleAdded,
	}
}

// randomRule draws every field at random, strings from an alphabet that
// needs no JSON escape (so empty Trigger and State, and zero timeouts,
// exercise the omitempty members too).
func randomRule(rng *rand.Rand) FlowRule {
	plain := []rune("abyz09-_.:/ τé")
	str := func() string {
		b := make([]rune, rng.Intn(6))
		for i := range b {
			b[i] = plain[rng.Intn(len(plain))]
		}
		return string(b)
	}
	u16 := func() uint16 { return uint16(rng.Intn(1 << 16)) }
	r := FlowRule{
		DPID: topo.DPID(rng.Uint64() >> uint(rng.Intn(64))),
		Match: openflow.Match{
			Wildcards: rng.Uint32(), InPort: u16(), DLVLAN: u16(), DLVLANPCP: uint8(rng.Intn(256)),
			DLType: u16(), NWTOS: uint8(rng.Intn(256)), NWProto: uint8(rng.Intn(256)),
			TPSrc: u16(), TPDst: u16(),
		},
		Priority:    u16(),
		IdleTimeout: u16() * uint16(rng.Intn(2)),
		HardTimeout: u16() * uint16(rng.Intn(2)),
		Command:     u16(),
		Trigger:     trigger.ID(str()),
		Origin:      store.NodeID(rng.Int63() - rng.Int63()),
		State:       str(),
	}
	for _, a := range [][]byte{r.Match.DLSrc[:], r.Match.DLDst[:], r.Match.NWSrc[:], r.Match.NWDst[:]} {
		rng.Read(a)
	}
	if n := rng.Intn(5); n > 0 {
		r.Actions = make([]openflow.Action, n-1)
		for i := range r.Actions {
			r.Actions[i] = openflow.Action{Port: u16(), MaxLen: u16()}
		}
	}
	return r
}

// TestEncodedRulesTakeDirectPath pins that decodeEncoded reads back every
// value AppendEncode writes with plain strings, so stored rules never fall
// through to json.Unmarshal: a change to the layout that the reader does
// not follow fails here instead of silently moving every decode to the
// slow path.
func TestEncodedRulesTakeDirectPath(t *testing.T) {
	bench := FlowRule{ // the rule shape the end-to-end benchmark stores
		DPID:        3,
		Match:       openflow.ExactSrcDst(topo.HostMAC(1), topo.HostMAC(1025)),
		Priority:    10,
		Actions:     []openflow.Action{openflow.Output(2)},
		IdleTimeout: 10,
		Command:     uint16(openflow.FlowAdd),
	}
	rules := []FlowRule{{}, CodecRule(), bench}
	three := []openflow.Action{openflow.Output(1), openflow.Output(openflow.PortFlood), {Port: 3, MaxLen: 9}}
	for _, acts := range [][]openflow.Action{nil, {}, three} {
		r := CodecRule()
		r.Actions = acts
		rules = append(rules, r)
	}
	for _, o := range []store.NodeID{math.MaxInt, math.MinInt, -1} {
		r := CodecRule()
		r.Origin = o
		rules = append(rules, r)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		rules = append(rules, randomRule(rng))
	}
	for _, r := range rules {
		enc := r.Encode()
		if got, ok := decodeEncoded(enc); !ok || !reflect.DeepEqual(got, r) {
			t.Fatalf("%s: decodeEncoded gives %#v, %v; want %#v, true", enc, got, ok, r)
		}
	}
}
