package topo

import (
	"fmt"

	"github.com/jurysdn/jury/internal/openflow"
)

// HostMAC returns the deterministic MAC assigned to host index i (1-based).
// The index occupies the low four octets, so addresses stay distinct up to
// 2^32 hosts; the 00:00 prefix keeps host MACs disjoint from the workload
// generators' spoofed-source prefixes (00:aa, 00:bb, 00:cb). For indices
// below 2^16 the encoding matches the historical 16-bit layout, so small
// topologies keep their addresses.
func HostMAC(i int) openflow.MAC {
	return openflow.MAC{0x00, 0x00, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
}

// HostIP returns the deterministic IP assigned to host index i (1-based).
// The index occupies the low three octets of 10/8, so addresses stay
// distinct up to 2^24 hosts (the widest the IPv4 scheme can carry without
// leaving the private range); below 2^16 the encoding matches the
// historical layout.
func HostIP(i int) openflow.IPv4 {
	return openflow.IPv4{10, byte(i >> 16), byte(i >> 8), byte(i)}
}

// Linear builds the Mininet-style linear topology used throughout §VII:
// n switches in a chain, one host per switch. Port 1 of each switch faces
// its host; ports 2 and 3 face the previous and next switch.
func Linear(n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: linear topology needs >= 1 switch, got %d", n)
	}
	t := New()
	for i := 1; i <= n; i++ {
		t.AddSwitch(DPID(i), "")
	}
	for i := 1; i < n; i++ {
		link := Link{
			Src: Port{DPID: DPID(i), Port: 3},
			Dst: Port{DPID: DPID(i + 1), Port: 2},
		}
		if err := t.AddLink(link.Src, link.Dst); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= n; i++ {
		h := Host{
			ID:     HostID(fmt.Sprintf("h%d", i)),
			MAC:    HostMAC(i),
			IP:     HostIP(i),
			Attach: Port{DPID: DPID(i), Port: 1},
		}
		if err := t.AddHost(h); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ThreeTier builds the physical-testbed shape of §VII: edge switches fully
// meshed to aggregates, aggregates fully meshed to cores, with hostsPerEdge
// hosts per edge switch. The paper used 8 edge, 4 aggregate and 2 core
// switches.
func ThreeTier(edges, aggs, cores, hostsPerEdge int) (*Topology, error) {
	if edges < 1 || aggs < 1 || cores < 1 {
		return nil, fmt.Errorf("topo: three-tier needs at least one switch per tier")
	}
	t := New()
	var (
		edgeIDs = make([]DPID, edges)
		aggIDs  = make([]DPID, aggs)
		coreIDs = make([]DPID, cores)
	)
	next := DPID(1)
	for i := range edgeIDs {
		edgeIDs[i] = next
		t.AddSwitch(next, "edge")
		next++
	}
	for i := range aggIDs {
		aggIDs[i] = next
		t.AddSwitch(next, "aggregate")
		next++
	}
	for i := range coreIDs {
		coreIDs[i] = next
		t.AddSwitch(next, "core")
		next++
	}
	// Hosts occupy ports 1..hostsPerEdge on edge switches; uplinks follow.
	hostIdx := 1
	for _, e := range edgeIDs {
		for p := 1; p <= hostsPerEdge; p++ {
			h := Host{
				ID:     HostID(fmt.Sprintf("h%d", hostIdx)),
				MAC:    HostMAC(hostIdx),
				IP:     HostIP(hostIdx),
				Attach: Port{DPID: e, Port: uint16(p)},
			}
			if err := t.AddHost(h); err != nil {
				return nil, err
			}
			hostIdx++
		}
	}
	port := func(base, i int) uint16 { return uint16(base + i) }
	for ei, e := range edgeIDs {
		for ai, a := range aggIDs {
			src := Port{DPID: e, Port: port(hostsPerEdge, ai+1)}
			dst := Port{DPID: a, Port: port(0, ei+1)}
			if err := t.AddLink(src, dst); err != nil {
				return nil, err
			}
		}
	}
	for ai, a := range aggIDs {
		for ci, c := range coreIDs {
			src := Port{DPID: a, Port: port(edges, ci+1)}
			dst := Port{DPID: c, Port: port(0, ai+1)}
			if err := t.AddLink(src, dst); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// Single builds a one-switch topology with n hosts, the Cbench-style setup.
func Single(hosts int) (*Topology, error) {
	t := New()
	t.AddSwitch(1, "")
	for i := 1; i <= hosts; i++ {
		h := Host{
			ID:     HostID(fmt.Sprintf("h%d", i)),
			MAC:    HostMAC(i),
			IP:     HostIP(i),
			Attach: Port{DPID: 1, Port: uint16(i)},
		}
		if err := t.AddHost(h); err != nil {
			return nil, err
		}
	}
	return t, nil
}
