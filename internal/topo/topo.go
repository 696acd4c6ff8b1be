// Package topo models the physical network graph the controllers govern:
// switches with numbered ports, hosts attached to edge ports, and
// inter-switch links. Builders reproduce the topologies used in the paper's
// evaluation: the 24-switch Mininet linear topology and the 8-edge /
// 4-aggregate / 2-core three-tier physical testbed.
package topo

import (
	"fmt"
	"sort"

	"github.com/jurysdn/jury/internal/openflow"
)

// DPID is a switch datapath identifier.
type DPID uint64

// String renders the DPID as the usual hex form.
func (d DPID) String() string {
	var buf [19]byte
	return string(d.AppendTo(buf[:0]))
}

// AppendTo appends String's rendering to b.
func (d DPID) AppendTo(b []byte) []byte {
	return openflow.AppendHex(append(b, "of:"...), uint64(d), 16)
}

// HostID identifies a host.
type HostID string

// Port is one end of an attachment: a switch and a port number.
type Port struct {
	DPID DPID
	Port uint16
}

// String renders the port as "of:..../N".
func (p Port) String() string { return fmt.Sprintf("%s/%d", p.DPID, p.Port) }

// Link is a unidirectional switch-to-switch adjacency. Topologies store both
// directions.
type Link struct {
	Src Port
	Dst Port
}

// String renders the link endpoints.
func (l Link) String() string { return l.Src.String() + "->" + l.Dst.String() }

// Reverse returns the opposite direction of the link.
func (l Link) Reverse() Link { return Link{Src: l.Dst, Dst: l.Src} }

// Host is an end host attached to a switch port.
type Host struct {
	ID     HostID
	MAC    openflow.MAC
	IP     openflow.IPv4
	Attach Port
}

// Switch describes one switch and its ports.
type Switch struct {
	DPID  DPID
	Ports []uint16
	// Tier labels the switch's role in tiered topologies ("edge",
	// "aggregate", "core", or "" for flat topologies).
	Tier string
}

// Topology is an immutable network graph.
type Topology struct {
	switches  map[DPID]*Switch
	hosts     map[HostID]*Host
	hostByMAC map[openflow.MAC]*Host
	links     map[Port]Port // src -> dst
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		switches:  make(map[DPID]*Switch),
		hosts:     make(map[HostID]*Host),
		hostByMAC: make(map[openflow.MAC]*Host),
		links:     make(map[Port]Port),
	}
}

// AddSwitch adds a switch with no ports yet.
func (t *Topology) AddSwitch(dpid DPID, tier string) *Switch {
	sw := &Switch{DPID: dpid, Tier: tier}
	t.switches[dpid] = sw
	return sw
}

// AddLink connects two switch ports bidirectionally, allocating the port
// numbers supplied.
func (t *Topology) AddLink(a, b Port) error {
	for _, p := range []Port{a, b} {
		if _, ok := t.switches[p.DPID]; !ok {
			return fmt.Errorf("topo: unknown switch %v", p.DPID)
		}
	}
	t.links[a] = b
	t.links[b] = a
	t.addPort(a)
	t.addPort(b)
	return nil
}

// AddHost attaches a host to a switch port.
func (t *Topology) AddHost(h Host) error {
	if _, ok := t.switches[h.Attach.DPID]; !ok {
		return fmt.Errorf("topo: unknown switch %v", h.Attach.DPID)
	}
	hc := h
	t.hosts[h.ID] = &hc
	t.hostByMAC[h.MAC] = &hc
	t.addPort(h.Attach)
	return nil
}

func (t *Topology) addPort(p Port) {
	sw := t.switches[p.DPID]
	for _, existing := range sw.Ports {
		if existing == p.Port {
			return
		}
	}
	sw.Ports = append(sw.Ports, p.Port)
	sort.Slice(sw.Ports, func(i, j int) bool { return sw.Ports[i] < sw.Ports[j] })
}

// Switches returns all switches in DPID order.
func (t *Topology) Switches() []*Switch {
	out := make([]*Switch, 0, len(t.switches))
	//jurylint:allow maprange -- collected values are sorted before return
	for _, sw := range t.switches {
		out = append(out, sw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DPID < out[j].DPID })
	return out
}

// Switch returns the switch with the given DPID, if present.
func (t *Topology) Switch(dpid DPID) (*Switch, bool) {
	sw, ok := t.switches[dpid]
	return sw, ok
}

// Hosts returns all hosts in ID order.
func (t *Topology) Hosts() []*Host {
	out := make([]*Host, 0, len(t.hosts))
	//jurylint:allow maprange -- collected values are sorted before return
	for _, h := range t.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Host returns the host with the given ID, if present.
func (t *Topology) Host(id HostID) (*Host, bool) {
	h, ok := t.hosts[id]
	return h, ok
}

// HostByMAC returns the host with the given MAC address, if present.
func (t *Topology) HostByMAC(mac openflow.MAC) (*Host, bool) {
	h, ok := t.hostByMAC[mac]
	return h, ok
}

// Peer returns the far end of the link attached to p, if any.
func (t *Topology) Peer(p Port) (Port, bool) {
	d, ok := t.links[p]
	return d, ok
}

// Links returns every unidirectional link, sorted for determinism.
func (t *Topology) Links() []Link {
	out := make([]Link, 0, len(t.links))
	//jurylint:allow maprange -- collected links are sorted before return
	for src, dst := range t.links {
		out = append(out, Link{Src: src, Dst: dst})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src.DPID != out[j].Src.DPID {
			return out[i].Src.DPID < out[j].Src.DPID
		}
		if out[i].Src.Port != out[j].Src.Port {
			return out[i].Src.Port < out[j].Src.Port
		}
		return out[i].Dst.DPID < out[j].Dst.DPID
	})
	return out
}

// NumSwitches returns the switch count.
func (t *Topology) NumSwitches() int { return len(t.switches) }
