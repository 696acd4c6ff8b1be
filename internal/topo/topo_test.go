package topo

import (
	"testing"
)

func TestLinearTopology(t *testing.T) {
	top, err := Linear(24)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumSwitches() != 24 || len(top.Hosts()) != 24 {
		t.Fatalf("switches=%d hosts=%d", top.NumSwitches(), len(top.Hosts()))
	}
	// 23 bidirectional links = 46 directed.
	if got := len(top.Links()); got != 46 {
		t.Fatalf("links = %d, want 46", got)
	}
	// Middle switches have 3 ports (host + two neighbors), ends have 2.
	sw, _ := top.Switch(1)
	if len(sw.Ports) != 2 {
		t.Fatalf("end switch ports = %v", sw.Ports)
	}
	sw, _ = top.Switch(12)
	if len(sw.Ports) != 3 {
		t.Fatalf("middle switch ports = %v", sw.Ports)
	}
}

func TestLinearRejectsZero(t *testing.T) {
	if _, err := Linear(0); err == nil {
		t.Fatal("expected error")
	}
}

func TestThreeTierTopology(t *testing.T) {
	top, err := ThreeTier(8, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumSwitches() != 14 {
		t.Fatalf("switches = %d, want 14", top.NumSwitches())
	}
	if len(top.Hosts()) != 16 {
		t.Fatalf("hosts = %d, want 16", len(top.Hosts()))
	}
	// Edge-agg mesh: 8*4=32 + agg-core mesh: 4*2=8 → 40 bidirectional.
	if got := len(top.Links()); got != 80 {
		t.Fatalf("directed links = %d, want 80", got)
	}
	var edges, aggs, cores int
	for _, sw := range top.Switches() {
		switch sw.Tier {
		case "edge":
			edges++
		case "aggregate":
			aggs++
		case "core":
			cores++
		}
	}
	if edges != 8 || aggs != 4 || cores != 2 {
		t.Fatalf("tiers = %d/%d/%d", edges, aggs, cores)
	}
}

func TestSingleTopology(t *testing.T) {
	top, err := Single(24)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumSwitches() != 1 || len(top.Hosts()) != 24 {
		t.Fatal("wrong single topology shape")
	}
	if len(top.Links()) != 0 {
		t.Fatal("single switch should have no links")
	}
}

func TestPeer(t *testing.T) {
	top, _ := Linear(3)
	peer, ok := top.Peer(Port{DPID: 1, Port: 3})
	if !ok || peer != (Port{DPID: 2, Port: 2}) {
		t.Fatalf("peer = %v,%v", peer, ok)
	}
	if _, ok := top.Peer(Port{DPID: 1, Port: 1}); ok {
		t.Fatal("host port should have no peer")
	}
}

func TestHostLookup(t *testing.T) {
	top, _ := Linear(5)
	h, ok := top.Host("h3")
	if !ok || h.Attach.DPID != 3 {
		t.Fatalf("h3 = %+v,%v", h, ok)
	}
	byMAC, ok := top.HostByMAC(HostMAC(3))
	if !ok || byMAC.ID != "h3" {
		t.Fatalf("by mac = %+v,%v", byMAC, ok)
	}
	if _, ok := top.Host("h99"); ok {
		t.Fatal("phantom host")
	}
}

func TestAddLinkUnknownSwitch(t *testing.T) {
	top := New()
	top.AddSwitch(1, "")
	err := top.AddLink(Port{DPID: 1, Port: 2}, Port{DPID: 9, Port: 1})
	if err == nil {
		t.Fatal("expected error for unknown switch")
	}
}

func TestAddHostUnknownSwitch(t *testing.T) {
	top := New()
	if err := top.AddHost(Host{ID: "h1", Attach: Port{DPID: 5, Port: 1}}); err == nil {
		t.Fatal("expected error")
	}
}

func TestDPIDString(t *testing.T) {
	if DPID(0x1A).String() != "of:000000000000001a" {
		t.Fatalf("got %s", DPID(0x1A))
	}
}

func TestLinkReverse(t *testing.T) {
	l := Link{Src: Port{1, 2}, Dst: Port{3, 4}}
	r := l.Reverse()
	if r.Src != l.Dst || r.Dst != l.Src {
		t.Fatal("reverse wrong")
	}
}

func TestHostAddressing(t *testing.T) {
	if HostMAC(1) == HostMAC(2) {
		t.Fatal("host MACs collide")
	}
	if HostIP(300) == HostIP(301) {
		t.Fatal("host IPs collide")
	}
}
