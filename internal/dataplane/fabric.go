package dataplane

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/topo"
)

// Fabric instantiates switches and hosts for a topology and moves frames
// across links with a configurable per-hop latency.
type Fabric struct {
	eng      *simnet.Engine
	topo     *topo.Topology
	switches map[topo.DPID]*Switch
	hosts    map[topo.HostID]*Host
	// hostAt maps a switch port to the lowest-ID host attached to it.
	hostAt map[topo.Port]*Host

	// HopLatency is the per-link propagation delay (default 50µs).
	HopLatency time.Duration
	// MaxFloodHops bounds flood propagation to prevent broadcast storms
	// in meshed topologies (models spanning tree).
	MaxFloodHops int

	downPorts map[topo.Port]bool

	// Frame dedup (spanning-tree stand-in): a frame entering a switch it
	// already visited within the rotation window is dropped, which keeps
	// floods in meshed topologies from storming. Two generations rotate
	// so identical periodic frames (LLDP probes) are not suppressed
	// across periods.
	seenCur   map[uint64]map[topo.DPID]bool
	seenPrev  map[uint64]map[topo.DPID]bool
	seenGenAt time.Duration

	delivered uint64
}

// NewFabric builds switches and hosts for t.
func NewFabric(eng *simnet.Engine, t *topo.Topology) *Fabric {
	f := &Fabric{
		eng:          eng,
		topo:         t,
		switches:     make(map[topo.DPID]*Switch),
		hosts:        make(map[topo.HostID]*Host),
		hostAt:       make(map[topo.Port]*Host),
		HopLatency:   50 * time.Microsecond,
		MaxFloodHops: 16,
		downPorts:    make(map[topo.Port]bool),
		seenCur:      make(map[uint64]map[topo.DPID]bool),
		seenPrev:     make(map[uint64]map[topo.DPID]bool),
	}
	for _, sw := range t.Switches() {
		s := NewSwitch(eng, sw.DPID)
		s.SetPorts(sw.Ports)
		dpid := sw.DPID
		s.SetForward(func(frame []byte, outPort, inPort uint16) {
			f.carry(dpid, frame, outPort, inPort, f.MaxFloodHops)
		})
		f.switches[dpid] = s
	}
	for _, h := range t.Hosts() {
		f.hosts[h.ID] = NewHost(f, *h)
		if _, taken := f.hostAt[h.Attach]; !taken {
			f.hostAt[h.Attach] = f.hosts[h.ID]
		}
	}
	return f
}

// Topology returns the underlying topology.
func (f *Fabric) Topology() *topo.Topology { return f.topo }

// Switch returns the switch with the given dpid.
func (f *Fabric) Switch(dpid topo.DPID) (*Switch, bool) {
	s, ok := f.switches[dpid]
	return s, ok
}

// Switches returns all switches in DPID order.
func (f *Fabric) Switches() []*Switch {
	out := make([]*Switch, 0, len(f.switches))
	for _, sw := range f.topo.Switches() {
		if s, ok := f.switches[sw.DPID]; ok {
			out = append(out, s)
		}
	}
	return out
}

// Host returns the host with the given id.
func (f *Fabric) Host(id topo.HostID) (*Host, bool) {
	h, ok := f.hosts[id]
	return h, ok
}

// Hosts returns all hosts in ID order.
func (f *Fabric) Hosts() []*Host {
	out := make([]*Host, 0, len(f.hosts))
	for _, h := range f.topo.Hosts() {
		if hh, ok := f.hosts[h.ID]; ok {
			out = append(out, hh)
		}
	}
	return out
}

// Delivered returns the number of frames delivered to hosts.
func (f *Fabric) Delivered() uint64 { return f.delivered }

// SetLinkDown fails (or restores) the inter-switch link attached to p, in
// both directions. Frames crossing a failed link are dropped, and both
// attached switches emit PORT_STATUS notifications as real switches do.
func (f *Fabric) SetLinkDown(p topo.Port, down bool) {
	f.downPorts[p] = down
	if sw, ok := f.switches[p.DPID]; ok {
		sw.NotifyPortStatus(p.Port, down)
	}
	if peer, ok := f.topo.Peer(p); ok {
		f.downPorts[peer] = down
		if sw, ok := f.switches[peer.DPID]; ok {
			sw.NotifyPortStatus(peer.Port, down)
		}
	}
}

// LinkDown reports whether the link at p is failed.
func (f *Fabric) LinkDown(p topo.Port) bool { return f.downPorts[p] }

// InjectAtSwitch delivers a frame into a switch port after one hop latency,
// as if sent by the attached device.
func (f *Fabric) InjectAtSwitch(p topo.Port, frame []byte) error {
	sw, ok := f.switches[p.DPID]
	if !ok {
		return fmt.Errorf("dataplane: unknown switch %v", p.DPID)
	}
	f.eng.Schedule(f.HopLatency, func() { sw.Inject(frame, p.Port) })
	return nil
}

// carry moves a frame leaving (from, outPort). PortFlood fans out to every
// port except the ingress.
func (f *Fabric) carry(from topo.DPID, frame []byte, outPort, inPort uint16, hops int) {
	if hops <= 0 {
		return
	}
	if outPort == openflow.PortFlood {
		sw, ok := f.topo.Switch(from)
		if !ok {
			return
		}
		for _, p := range sw.Ports {
			if p != inPort {
				f.carryOne(from, frame, p, hops)
			}
		}
		return
	}
	f.carryOne(from, frame, outPort, hops)
}

func (f *Fabric) carryOne(from topo.DPID, frame []byte, outPort uint16, hops int) {
	src := topo.Port{DPID: from, Port: outPort}
	if hh, ok := f.hostAt[src]; ok {
		f.eng.Schedule(f.HopLatency, func() {
			f.delivered++
			hh.Receive(frame)
		})
		return
	}
	if f.downPorts[src] {
		return // link failed: frame lost on the wire
	}
	// Switch-to-switch link?
	if peer, ok := f.topo.Peer(src); ok {
		if sw, ok := f.switches[peer.DPID]; ok {
			if f.alreadyVisited(frame, peer.DPID) {
				return
			}
			remaining := hops - 1
			f.eng.Schedule(f.HopLatency, func() {
				f.injectWithHops(sw, frame, peer.Port, remaining)
			})
		}
	}
}

// alreadyVisited records and checks frame/switch visits within the current
// dedup window.
func (f *Fabric) alreadyVisited(frame []byte, to topo.DPID) bool {
	const window = 100 * time.Millisecond
	now := f.eng.Now()
	if now-f.seenGenAt > window {
		f.seenPrev = f.seenCur
		f.seenCur = make(map[uint64]map[topo.DPID]bool)
		f.seenGenAt = now
	}
	h := fnv.New64a()
	h.Write(frame)
	key := h.Sum64()
	if f.seenCur[key][to] || f.seenPrev[key][to] {
		return true
	}
	set := f.seenCur[key]
	if set == nil {
		set = make(map[topo.DPID]bool)
		f.seenCur[key] = set
	}
	set[to] = true
	return false
}

// injectWithHops is like Switch.Inject but threads a hop budget through
// flood chains by temporarily overriding the forward callback depth. The
// switch's own forward closure always starts from MaxFloodHops, so here we
// inline the lookup to honor the remaining budget.
func (f *Fabric) injectWithHops(sw *Switch, frame []byte, inPort uint16, hops int) {
	pf, err := openflow.ParsePacket(frame, inPort)
	if err != nil {
		return
	}
	entry, ok := sw.Lookup(pf)
	if !ok {
		sw.Inject(frame, inPort) // miss path: PACKET_IN as usual
		return
	}
	entry.Packets++
	entry.Bytes += uint64(len(frame))
	entry.LastHit = f.eng.Now()
	for _, a := range entry.Actions {
		switch a.Port {
		case openflow.PortController:
			sw.sendPacketIn(frame, inPort, openflow.ReasonAction)
		case openflow.PortNone:
		default:
			f.carry(sw.DPID(), frame, a.Port, inPort, hops)
		}
	}
}
