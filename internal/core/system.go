package core

import (
	"fmt"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/dataplane"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// SystemConfig parameterizes a JURY deployment across a cluster.
type SystemConfig struct {
	// K is the replication factor.
	K int
	// Mode is the trigger replication mode (proxy for ONOS, encap for
	// ODL).
	Mode ReplicationMode
	// Validator carries the validator parameters (timeout etc.).
	Validator ValidatorConfig
	// Metrics is the registry shared by the validator, modules and
	// replicators; nil creates one per system.
	Metrics *obs.Registry
	// Tracer records the per-trigger span tree across the whole pipeline;
	// nil disables tracing.
	Tracer *obs.Tracer
}

// System assembles a JURY deployment: one module per controller, one
// replicator per switch, and the out-of-band validator.
type System struct {
	eng       *simnet.Engine
	cfg       SystemConfig
	members   *cluster.Membership
	validator *Validator

	modules     map[store.NodeID]*Module
	controllers map[store.NodeID]*controller.Controller
	replicators map[topo.DPID]*Replicator
}

// NewSystem creates a JURY system for the given membership.
func NewSystem(eng *simnet.Engine, members *cluster.Membership, cfg SystemConfig) *System {
	cfg.Validator.K = cfg.K
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	cfg.Validator.Metrics = cfg.Metrics
	cfg.Validator.Tracer = cfg.Tracer
	return &System{
		eng:         eng,
		cfg:         cfg,
		members:     members,
		validator:   NewValidator(eng, members, cfg.Validator),
		modules:     make(map[store.NodeID]*Module),
		controllers: make(map[store.NodeID]*controller.Controller),
		replicators: make(map[topo.DPID]*Replicator),
	}
}

// Validator returns the out-of-band validator.
func (s *System) Validator() *Validator { return s.validator }

// Metrics returns the registry shared across the deployment's components.
func (s *System) Metrics() *obs.Registry { return s.cfg.Metrics }

// Tracer returns the system tracer (nil when tracing is disabled).
func (s *System) Tracer() *obs.Tracer { return s.cfg.Tracer }

// AttachController instruments a controller with a JURY module.
func (s *System) AttachController(ctrl *controller.Controller) *Module {
	m := NewModule(s.eng, ctrl, s.validator, ModuleConfig{
		K:      s.cfg.K,
		Tracer: s.cfg.Tracer,
	})
	s.modules[ctrl.ID()] = m
	s.controllers[ctrl.ID()] = ctrl
	return m
}

// Module returns the module attached to a controller.
func (s *System) Module(id store.NodeID) (*Module, bool) {
	m, ok := s.modules[id]
	return m, ok
}

// AttachSwitch interposes a replicator on a switch's southbound channel.
// Controllers must be attached first.
func (s *System) AttachSwitch(sw *dataplane.Switch) (*Replicator, error) {
	if len(s.modules) == 0 {
		return nil, fmt.Errorf("core: attach controllers before switches")
	}
	rep := NewReplicator(s.eng, sw.DPID(), s.members, s.modules, s.deliverPrimary, ReplicatorConfig{
		K:       s.cfg.K,
		Mode:    s.cfg.Mode,
		Metrics: s.cfg.Metrics,
		Tracer:  s.cfg.Tracer,
	})
	sw.SetSendUp(rep.HandleFromSwitch)
	s.replicators[sw.DPID()] = rep
	return rep, nil
}

// Replicator returns the replicator interposed on a switch.
func (s *System) Replicator(dpid topo.DPID) (*Replicator, bool) {
	r, ok := s.replicators[dpid]
	return r, ok
}

// InstallFlowREST submits a northbound flow-install to the target
// controller through JURY's northbound interception.
func (s *System) InstallFlowREST(target store.NodeID, dpid topo.DPID, rule controller.FlowRule) error {
	rep, ok := s.replicators[dpid]
	if !ok {
		return fmt.Errorf("core: no replicator for switch %v", dpid)
	}
	rep.ReplicateREST(target, rule, func(id store.NodeID, rule controller.FlowRule, ctx *trigger.Context) {
		if ctrl, ok := s.controllers[id]; ok {
			ctrl.InstallFlowREST(rule, ctx)
		}
	})
	return nil
}

func (s *System) deliverPrimary(id store.NodeID, dpid topo.DPID, msg openflow.Message, ctx *trigger.Context) {
	if ctrl, ok := s.controllers[id]; ok {
		ctrl.HandleSouthbound(dpid, msg, ctx)
	}
}

// ReplicationBytes totals trigger-replication traffic across replicators.
func (s *System) ReplicationBytes() int64 {
	var total int64
	//jurylint:allow maprange -- commutative sum; visit order cannot change the total
	for _, r := range s.replicators {
		total += r.ReplicatedBytes()
	}
	return total
}

// ValidatorBytes totals module-to-validator traffic.
func (s *System) ValidatorBytes() int64 {
	var total int64
	//jurylint:allow maprange -- commutative sum; visit order cannot change the total
	for _, m := range s.modules {
		total += m.ValidatorBytes()
	}
	return total
}
