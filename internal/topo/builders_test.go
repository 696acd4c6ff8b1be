package topo

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/jurysdn/jury/internal/openflow"
)

// checkWiring asserts the structural invariants every builder must hold:
// each (switch, port) endpoint is used by at most one link or host
// attachment, every link endpoint names a known switch, and the Links()
// order is deterministic across two independent builds.
func checkWiring(t *testing.T, build func() (*Topology, error)) *Topology {
	t.Helper()
	top, err := build()
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[Port]string)
	claim := func(p Port, what string) {
		t.Helper()
		if prev, ok := used[p]; ok {
			t.Fatalf("port %v used twice: %s and %s", p, prev, what)
		}
		used[p] = what
	}
	for _, l := range top.Links() {
		if _, ok := top.Switch(l.Src.DPID); !ok {
			t.Fatalf("link %v from unknown switch", l)
		}
		if _, ok := top.Switch(l.Dst.DPID); !ok {
			t.Fatalf("link %v to unknown switch", l)
		}
		// Links() lists both directions; claim each endpoint once via
		// the canonical direction only.
		if l.Src.DPID < l.Dst.DPID || (l.Src.DPID == l.Dst.DPID && l.Src.Port < l.Dst.Port) {
			claim(l.Src, "link "+l.String())
			claim(l.Dst, "link "+l.String())
		}
	}
	for _, h := range top.Hosts() {
		claim(h.Attach, "host "+string(h.ID))
	}
	// Every registered switch port must back exactly one of the claims.
	ports := 0
	for _, sw := range top.Switches() {
		ports += len(sw.Ports)
		for _, p := range sw.Ports {
			if _, ok := used[Port{DPID: sw.DPID, Port: p}]; !ok {
				t.Fatalf("switch %v port %d registered but unused", sw.DPID, p)
			}
		}
	}
	if ports != len(used) {
		t.Fatalf("claimed %d endpoints but switches register %d ports", len(used), ports)
	}
	again, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(top.Links(), again.Links()) {
		t.Fatal("link order differs between two identical builds")
	}
	return top
}

func TestThreeTierWiringInvariants(t *testing.T) {
	for _, c := range []struct{ edges, aggs, cores, hostsPerEdge int }{
		{8, 4, 2, 2}, // the paper's physical testbed
		{4, 2, 1, 3},
		{1, 1, 1, 1},
	} {
		t.Run(fmt.Sprintf("%d-%d-%d-%d", c.edges, c.aggs, c.cores, c.hostsPerEdge), func(t *testing.T) {
			top := checkWiring(t, func() (*Topology, error) {
				return ThreeTier(c.edges, c.aggs, c.cores, c.hostsPerEdge)
			})
			if got, want := top.NumSwitches(), c.edges+c.aggs+c.cores; got != want {
				t.Fatalf("switches = %d, want %d", got, want)
			}
			if got, want := len(top.Hosts()), c.edges*c.hostsPerEdge; got != want {
				t.Fatalf("hosts = %d, want %d", got, want)
			}
			if got, want := len(top.Links()), 2*(c.edges*c.aggs+c.aggs*c.cores); got != want {
				t.Fatalf("directed links = %d, want %d", got, want)
			}
		})
	}
}

func TestLinearWiringInvariants(t *testing.T) {
	checkWiring(t, func() (*Topology, error) { return Linear(24) })
}

// TestHostAddressingWideNoCollisions is the regression for the 16-bit
// truncation bug: HostMAC/HostIP used to keep only the low 16 bits of the
// index, so host 65537 silently aliased host 1. The widened encodings must
// stay distinct to at least 2^24 hosts.
func TestHostAddressingWideNoCollisions(t *testing.T) {
	if HostMAC(1) == HostMAC(1<<16+1) {
		t.Fatal("HostMAC still truncates to 16 bits (65537 aliases 1)")
	}
	if HostIP(1) == HostIP(1<<16+1) {
		t.Fatal("HostIP still truncates to 16 bits (65537 aliases 1)")
	}
	// Probe a spread of indices across the 2^24 range, including the
	// old-collision pairs (i, i+65536) and byte-boundary edges.
	indices := []int{
		1, 2, 255, 256, 257, 65535, 65536, 65537, 65538,
		1 << 20, 1<<20 + 1, 1<<24 - 2, 1<<24 - 1, 1 << 24,
	}
	for step := 1; step < 1<<24; step *= 7 {
		indices = append(indices, step, step+65536)
	}
	macs := make(map[openflow.MAC]int)
	ips := make(map[openflow.IPv4]int)
	for _, i := range indices {
		if i > 1<<24 {
			continue
		}
		if prev, ok := macs[HostMAC(i)]; ok && prev != i {
			t.Fatalf("HostMAC collision: %d vs %d -> %v", prev, i, HostMAC(i))
		}
		macs[HostMAC(i)] = i
		if prev, ok := ips[HostIP(i)]; ok && prev != i {
			t.Fatalf("HostIP collision: %d vs %d -> %v", prev, i, HostIP(i))
		}
		ips[HostIP(i)] = i
	}
	// The widened layout must not collide with the workload generators'
	// spoofed-source MAC prefixes (00:aa, 00:bb, 00:cb sequences).
	for _, i := range []int{0xAA << 24, 0xBB << 24, 0xCB << 24} {
		if m := HostMAC(i); m[1] != 0x00 {
			t.Fatalf("HostMAC(%#x) = %v leaves the 00:00 host prefix", i, m)
		}
	}
}

// TestHostAddressingBackCompat pins that the widened encodings are
// identical to the historical 16-bit layout for indices below 2^16, so
// existing topologies and golden traces keep their addresses.
func TestHostAddressingBackCompat(t *testing.T) {
	for _, i := range []int{1, 2, 24, 255, 256, 4095, 65535} {
		wantMAC := openflow.MAC{0x00, 0x00, 0x00, 0x00, byte(i >> 8), byte(i)}
		if got := HostMAC(i); got != wantMAC {
			t.Fatalf("HostMAC(%d) = %v, want legacy %v", i, got, wantMAC)
		}
		wantIP := openflow.IPv4{10, 0, byte(i >> 8), byte(i)}
		if got := HostIP(i); got != wantIP {
			t.Fatalf("HostIP(%d) = %v, want legacy %v", i, got, wantIP)
		}
	}
}
