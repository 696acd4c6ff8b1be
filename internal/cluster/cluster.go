// Package cluster tracks controller cluster membership and switch
// mastership. It models the HA connection-management configurations the
// paper experiments with (§VI): ANY_CONTROLLER_ONE_MASTER for ONOS,
// SINGLE_CONTROLLER for ODL, and ACTIVE_PASSIVE.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
)

// Mode is the HA connection-management configuration.
type Mode uint8

// Connection-management modes.
const (
	// AnyControllerOneMaster connects every switch to every controller
	// with exactly one master per switch (the ONOS setup).
	AnyControllerOneMaster Mode = iota + 1
	// SingleController connects each switch to one controller (the ODL
	// setup).
	SingleController
	// ActivePassive directs all switches to a single active controller;
	// the rest are passive replicas.
	ActivePassive
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case AnyControllerOneMaster:
		return "ANY_CONTROLLER_ONE_MASTER"
	case SingleController:
		return "SINGLE_CONTROLLER"
	case ActivePassive:
		return "ACTIVE_PASSIVE"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Membership tracks live controllers and per-switch mastership.
type Membership struct {
	mode    Mode
	members map[store.NodeID]bool // true = alive
	masters map[topo.DPID]store.NodeID

	// observers are notified when mastership changes.
	observers []func(dpid topo.DPID, master store.NodeID)

	// Churn counters; standalone until InstrumentMetrics re-homes them in
	// a registry for exposition.
	masterChanges *obs.Counter
	deaths        *obs.Counter
	rejoins       *obs.Counter
}

// NewMembership creates a membership with the given mode and members, and
// assigns initial mastership for the given switches: round-robin across
// controllers for AnyControllerOneMaster/SingleController, all switches to
// the lowest controller ID for ActivePassive.
func NewMembership(mode Mode, members []store.NodeID, switches []topo.DPID) *Membership {
	m := &Membership{
		mode:          mode,
		members:       make(map[store.NodeID]bool, len(members)),
		masters:       make(map[topo.DPID]store.NodeID, len(switches)),
		masterChanges: &obs.Counter{},
		deaths:        &obs.Counter{},
		rejoins:       &obs.Counter{},
	}
	sorted := append([]store.NodeID(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, id := range sorted {
		m.members[id] = true
	}
	for i, dpid := range switches {
		switch mode {
		case ActivePassive:
			if len(sorted) > 0 {
				m.masters[dpid] = sorted[0]
			}
		default:
			if len(sorted) > 0 {
				m.masters[dpid] = sorted[i%len(sorted)]
			}
		}
	}
	return m
}

// Mode returns the connection-management mode.
func (m *Membership) Mode() Mode { return m.mode }

// InstrumentMetrics re-homes the churn counters in reg so they appear on
// /metrics, and exposes the live-member count as a gauge. Call it at
// wiring time, before any churn occurs.
func (m *Membership) InstrumentMetrics(reg *obs.Registry) {
	m.masterChanges = reg.Counter("jury_cluster_mastership_changes_total",
		"Switch mastership reassignments (failovers and rebalances).")
	m.deaths = reg.Counter("jury_cluster_member_deaths_total",
		"Controllers marked dead.")
	m.rejoins = reg.Counter("jury_cluster_member_rejoins_total",
		"Controllers marked alive again after a death.")
	reg.GaugeFunc("jury_cluster_members_alive", "Live controllers.",
		func() float64 { return float64(len(m.Alive())) })
}

// Size returns the number of known controllers, dead ones included.
func (m *Membership) Size() int { return len(m.members) }

// Alive returns the live controller IDs in order.
func (m *Membership) Alive() []store.NodeID {
	return m.AppendAlive(make([]store.NodeID, 0, len(m.members)))
}

// AppendAlive appends the live controller IDs to dst in order and returns
// the extended slice; it allocates only when dst lacks the capacity.
func (m *Membership) AppendAlive(dst []store.NodeID) []store.NodeID {
	n := len(dst)
	//jurylint:allow maprange -- filtered keys are sorted before return
	for id, alive := range m.members {
		if alive {
			dst = append(dst, id)
		}
	}
	slices.Sort(dst[n:])
	return dst
}

// IsAlive reports whether a controller is alive.
func (m *Membership) IsAlive(id store.NodeID) bool { return m.members[id] }

// Master returns the master controller for a switch.
func (m *Membership) Master(dpid topo.DPID) (store.NodeID, bool) {
	id, ok := m.masters[dpid]
	return id, ok
}

// IsMaster reports whether id masters dpid.
func (m *Membership) IsMaster(id store.NodeID, dpid topo.DPID) bool {
	master, ok := m.masters[dpid]
	return ok && master == id
}

// Governed returns the switches mastered by id, sorted.
func (m *Membership) Governed(id store.NodeID) []topo.DPID {
	var out []topo.DPID
	//jurylint:allow maprange -- filtered keys are sorted before return
	for dpid, master := range m.masters {
		if master == id {
			out = append(out, dpid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Observe registers a mastership-change callback.
func (m *Membership) Observe(fn func(dpid topo.DPID, master store.NodeID)) {
	m.observers = append(m.observers, fn)
}

// SetMaster reassigns mastership of a switch.
func (m *Membership) SetMaster(dpid topo.DPID, id store.NodeID) {
	m.masters[dpid] = id
	m.masterChanges.Inc()
	for _, fn := range m.observers {
		fn(dpid, id)
	}
}

// MarkDead marks a controller as failed and re-elects masters for its
// switches (lowest-ID live controller wins, the usual bully outcome).
func (m *Membership) MarkDead(id store.NodeID) {
	wasAlive, ok := m.members[id]
	if !ok {
		return
	}
	if wasAlive {
		m.deaths.Inc()
	}
	m.members[id] = false
	alive := m.Alive()
	if len(alive) == 0 {
		return
	}
	// Governed returns the orphaned switches sorted, so the reassignment
	// round-robin is deterministic (a map range here would hand different
	// switches to different survivors on every run).
	for i, dpid := range m.Governed(id) {
		m.SetMaster(dpid, alive[i%len(alive)])
	}
}

// MarkAlive marks a controller as (re)joined. Mastership is not rebalanced
// automatically, matching controllers that require explicit rebalance.
func (m *Membership) MarkAlive(id store.NodeID) {
	if alive, known := m.members[id]; known && !alive {
		m.rejoins.Inc()
	}
	m.members[id] = true
}

// LinkLivenessMaster returns the controller responsible for tracking
// liveness of a link between two switches: per the (buggy) election the
// paper describes for older ONOS (§III-B), the governing controller with
// the higher ID wins.
func (m *Membership) LinkLivenessMaster(a, b topo.DPID) (store.NodeID, bool) {
	ma, oka := m.masters[a]
	mb, okb := m.masters[b]
	if !oka || !okb {
		return 0, false
	}
	if ma >= mb {
		return ma, true
	}
	return mb, true
}
