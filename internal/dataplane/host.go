package dataplane

import (
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/topo"
)

// Host is a simulated end host: it answers ARP requests for its own IP and
// counts frames addressed to it, which lets tests verify end-to-end
// connectivity after flow installation.
type Host struct {
	fabric *Fabric
	info   topo.Host

	received  uint64
	arpSent   uint64
	arpRecv   uint64
	lastFrame []byte

	// OnReceive, when set, observes every frame delivered to the host.
	OnReceive func(frame []byte)
}

// NewHost creates a host attached to the fabric.
func NewHost(f *Fabric, info topo.Host) *Host {
	return &Host{fabric: f, info: info}
}

// Info returns the host's topology record.
func (h *Host) Info() topo.Host { return h.info }

// Received returns the number of frames delivered to this host.
func (h *Host) Received() uint64 { return h.received }

// ARPRepliesSent returns the number of ARP replies emitted.
func (h *Host) ARPRepliesSent() uint64 { return h.arpSent }

// LastFrame returns the most recently received frame.
func (h *Host) LastFrame() []byte { return h.lastFrame }

// Send injects a frame from this host into its attachment switch.
func (h *Host) Send(frame []byte) error {
	return h.fabric.InjectAtSwitch(h.info.Attach, frame)
}

// SendARPRequest broadcasts an ARP request for targetIP.
func (h *Host) SendARPRequest(targetIP openflow.IPv4) error {
	frame := openflow.ARPPacket(openflow.ARPRequest, h.info.MAC, h.info.IP, openflow.MAC{}, targetIP)
	return h.Send(frame)
}

// SendTCP sends a TCP frame (SYN by default semantics is up to flags) to a
// destination host's addresses.
func (h *Host) SendTCP(dstMAC openflow.MAC, dstIP openflow.IPv4, srcPort, dstPort uint16, flags uint8, payloadLen int) error {
	frame := openflow.TCPPacket(h.info.MAC, dstMAC, h.info.IP, dstIP, srcPort, dstPort, flags, payloadLen)
	return h.Send(frame)
}

// Receive processes a frame delivered to the host.
func (h *Host) Receive(frame []byte) {
	pf, err := openflow.ParsePacket(frame, 0)
	if err != nil {
		return
	}
	// Accept frames addressed to us or broadcast.
	if pf.EthDst != h.info.MAC && pf.EthDst != openflow.BroadcastMAC {
		return
	}
	h.received++
	h.lastFrame = frame
	if h.OnReceive != nil {
		h.OnReceive(frame)
	}
	if pf.EthType == openflow.EthTypeARP && pf.ARPOp == openflow.ARPRequest {
		h.arpRecv++
		if pf.ARPTargetIP == h.info.IP {
			reply := openflow.ARPPacket(openflow.ARPReply, h.info.MAC, h.info.IP, pf.EthSrc, pf.ARPSenderIP)
			h.arpSent++
			_ = h.Send(reply) //jurylint:allow errcrit -- the host attaches at a switch of its own fabric, so the inject cannot fail
		}
	}
}
