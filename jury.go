// Package jury is the public façade of the JURY reproduction: it assembles
// a simulated clustered SDN deployment (data plane, distributed store,
// controller replicas) with or without JURY's replicator/module/validator
// instrumentation, drives workloads against it, and exposes the metrics
// behind every figure of the paper's evaluation.
//
// Quickstart:
//
//	sim, err := jury.New(jury.Config{
//		Kind:        jury.ONOS,
//		ClusterSize: 3,
//		EnableJury:  true,
//		K:           2,
//	})
//	if err != nil { ... }
//	sim.Boot()
//	sim.Driver.Start(workload.ConstantRate(200), sim.Now()+10*time.Second)
//	sim.Run(10 * time.Second)
//	fmt.Println(sim.Validator().Decided(), "actions validated")
package jury

import (
	"fmt"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/dataplane"
	"github.com/jurysdn/jury/internal/metrics"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/policy"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
	"github.com/jurysdn/jury/internal/wire"
	"github.com/jurysdn/jury/internal/workload"
)

// Simulation is a fully wired deployment.
type Simulation struct {
	Config Config

	Engine      *simnet.Engine
	Topo        *topo.Topology
	Fabric      *dataplane.Fabric
	Members     *cluster.Membership
	Store       *store.Cluster
	Controllers []*controller.Controller
	System      *core.System // nil when JURY is disabled
	Driver      *workload.Driver

	// PacketIns counts southbound PACKET_INs over time (per-second bins).
	PacketIns *metrics.Series
	// FlowMods counts FLOW_MODs actually emitted southbound.
	FlowMods *metrics.Series
	// PacketOuts counts PACKET_OUTs emitted southbound.
	PacketOuts *metrics.Series
	// PacketInKinds histograms southbound PACKET_INs by payload
	// ethertype (diagnostics).
	PacketInKinds map[string]int64
	// mastershipChatter accounts the Hazelcast mastership request/notify
	// traffic secondaries exchange with the primary when switches connect
	// to every controller (§VII-B2 reports ~4 Mbps per secondary at a
	// 5.5K PACKET_IN/s load, i.e. ~95 bytes per PACKET_IN per secondary).
	mastershipChatter int64

	policyEngine *policy.Engine
}

// New assembles a simulation from the configuration.
func New(cfg Config) (*Simulation, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	eng := simnet.NewEngine(cfg.Seed)
	if cfg.EnableTracing && cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(eng.Now)
	}
	cfg.Tracer.InstrumentMetrics(cfg.Metrics)
	if cfg.FlightRing != 0 && cfg.FlightRecorder == nil {
		cfg.FlightRecorder = obs.NewRecorder(cfg.FlightRing)
	}

	top := cfg.CustomTopology
	if top == nil {
		switch cfg.Topology {
		case ThreeTier:
			top, err = topo.ThreeTier(8, 4, 2, 2)
		case SingleSwitch:
			top, err = topo.Single(24)
		default:
			top, err = topo.Linear(24)
		}
		if err != nil {
			return nil, fmt.Errorf("jury: build topology: %w", err)
		}
	}

	fabric := dataplane.NewFabric(eng, top)
	profile := cfg.profile()

	var dpids []topo.DPID
	for _, sw := range top.Switches() {
		dpids = append(dpids, sw.DPID)
	}
	var memberIDs []store.NodeID
	for i := 1; i <= cfg.ClusterSize; i++ {
		memberIDs = append(memberIDs, store.NodeID(i))
	}
	members := cluster.NewMembership(cfg.clusterMode(), memberIDs, dpids)
	members.InstrumentMetrics(cfg.Metrics)

	storeCluster := store.NewCluster(eng, cfg.storeConfig(profile))

	sim := &Simulation{
		Config:        cfg,
		Engine:        eng,
		Topo:          top,
		Fabric:        fabric,
		Members:       members,
		Store:         storeCluster,
		PacketIns:     metrics.NewSeries(time.Second),
		FlowMods:      metrics.NewSeries(time.Second),
		PacketOuts:    metrics.NewSeries(time.Second),
		PacketInKinds: make(map[string]int64),
	}

	for _, id := range memberIDs {
		node := storeCluster.AddNode(id)
		ctrl := controller.New(eng, id, profile, node, members)
		ctrl.OnEgress = sim.observeEgress
		sim.Controllers = append(sim.Controllers, ctrl)
	}

	if cfg.EnableJury {
		if err := sim.wireJury(); err != nil {
			return nil, err
		}
	} else {
		sim.wireVanilla()
	}

	// Southbound connections: every controller connects to every switch
	// in ANY_CONTROLLER_ONE_MASTER; only the master connects in
	// SINGLE_CONTROLLER.
	for _, sw := range fabric.Switches() {
		dpid := sw.DPID()
		downlink := sw.HandleControllerMessage
		for _, ctrl := range sim.Controllers {
			if cfg.clusterMode() == cluster.SingleController && !members.IsMaster(ctrl.ID(), dpid) {
				continue
			}
			ctrl.ConnectSwitch(dpid, downlink)
		}
	}
	for _, ctrl := range sim.Controllers {
		ctrl.Start()
	}
	sim.Driver = workload.NewDriver(eng, fabric)
	return sim, nil
}

func (s *Simulation) wireJury() error {
	cfg := s.Config
	sysCfg := core.SystemConfig{
		K:    cfg.K,
		Mode: cfg.replicationMode(),
		Validator: core.ValidatorConfig{
			Timeout:      cfg.ValidationTimeout,
			Adaptive:     cfg.AdaptiveTimeout,
			NoStateAware: cfg.NoStateAware,
		},
		RelayAll: cfg.RelayAll,
		Metrics:  cfg.Metrics,
		Tracer:   cfg.Tracer,
		Recorder: cfg.FlightRecorder,
	}
	s.System = core.NewSystem(s.Engine, s.Members, sysCfg)
	for _, ctrl := range s.Controllers {
		s.System.AttachController(ctrl)
	}
	if len(cfg.Policies) > 0 {
		var (
			eng *policy.Engine
			err error
		)
		if cfg.IndexedPolicies {
			eng, err = policy.NewIndexed(cfg.Policies)
		} else {
			eng, err = policy.New(cfg.Policies)
		}
		if err != nil {
			return fmt.Errorf("jury: compile policies: %w", err)
		}
		s.policyEngine = eng
		s.System.Validator().Policy = s.policyFunc
	}
	for _, sw := range s.Fabric.Switches() {
		rep, err := s.System.AttachSwitch(sw)
		if err != nil {
			return err
		}
		// Count PACKET_INs at the replicator boundary.
		inner := rep.HandleFromSwitch
		counted := s.countingSendUp(inner)
		sw.SetSendUp(counted)
	}
	return nil
}

func (s *Simulation) wireVanilla() {
	for _, sw := range s.Fabric.Switches() {
		dpid := sw.DPID()
		sw.SetSendUp(s.countingSendUp(func(msg openflow.Message) {
			master, ok := s.Members.Master(dpid)
			if !ok {
				return
			}
			if ctrl := s.controllerByID(master); ctrl != nil {
				ctrl.HandleSouthbound(dpid, msg, nil)
			}
		}))
	}
}

func (s *Simulation) countingSendUp(next func(openflow.Message)) func(openflow.Message) {
	return func(msg openflow.Message) {
		if pin, ok := msg.(*openflow.PacketIn); ok {
			s.PacketIns.Record(s.Engine.Now())
			if pf, err := openflow.ParsePacket(pin.Data, pin.InPort); err == nil {
				s.PacketInKinds[fmt.Sprintf("0x%04x", pf.EthType)]++
			}
			if s.Config.clusterMode() == cluster.AnyControllerOneMaster && s.Config.ClusterSize > 1 {
				const chatterPerSecondary = 95 // bytes, see field comment
				s.mastershipChatter += chatterPerSecondary * int64(s.Config.ClusterSize-1)
			}
		}
		next(msg)
	}
}

func (s *Simulation) observeEgress(_ topo.DPID, msg openflow.Message, _ *trigger.Context) {
	switch msg.Type() {
	case openflow.TypeFlowMod:
		s.FlowMods.Record(s.Engine.Now())
	case openflow.TypePacketOut:
		s.PacketOuts.Record(s.Engine.Now())
	}
}

func (s *Simulation) controllerByID(id store.NodeID) *controller.Controller {
	for _, c := range s.Controllers {
		if c.ID() == id {
			return c
		}
	}
	return nil
}

// policyFunc adapts the policy engine to the validator's POLICY_CHECK.
func (s *Simulation) policyFunc(kind trigger.Kind, primary store.NodeID, r core.Response) (string, bool) {
	if !r.IsCache() {
		return "", false
	}
	in := policy.Input{
		Kind:        kind,
		Controller:  primary,
		Cache:       r.Cache,
		Op:          r.Op,
		Key:         r.Key,
		Value:       r.Value,
		Destination: policy.DestAny,
	}
	if r.Cache == store.FlowsDB {
		if rule, err := controller.DecodeFlowRule(r.Value); err == nil {
			if s.Members.IsMaster(primary, rule.DPID) {
				in.Destination = policy.DestLocal
			} else {
				in.Destination = policy.DestRemote
			}
		}
	}
	return s.policyEngine.Check(in)
}

// InstallFlowREST submits a northbound flow-install request to the target
// controller. With JURY enabled, the request is intercepted and replicated
// like any other external trigger (§II-A2); without JURY it goes straight
// to the controller.
func (s *Simulation) InstallFlowREST(target int, rule controller.FlowRule) error {
	ctrl := s.Controller(target)
	if ctrl == nil {
		return fmt.Errorf("jury: unknown controller %d", target)
	}
	if s.System != nil {
		return s.System.InstallFlowREST(ctrl.ID(), rule.DPID, rule)
	}
	ctrl.InstallFlowREST(rule, nil)
	return nil
}

// MastershipChatterBytes returns the modeled mastership request/notify
// traffic between secondaries and primaries (§VII-B2).
func (s *Simulation) MastershipChatterBytes() int64 { return s.mastershipChatter }

// Metrics returns the observability registry shared by every component of
// this simulation, for /metrics exposition or direct reads.
func (s *Simulation) Metrics() *obs.Registry { return s.Config.Metrics }

// Tracer returns the trigger tracer (nil when tracing is disabled).
func (s *Simulation) Tracer() *obs.Tracer { return s.Config.Tracer }

// FlightRecorder returns the validator's flight recorder (nil when
// flight recording is disabled).
func (s *Simulation) FlightRecorder() *obs.Recorder { return s.Config.FlightRecorder }

// Validator returns the out-of-band validator (nil when JURY is off).
func (s *Simulation) Validator() *core.Validator {
	if s.System == nil {
		return nil
	}
	return s.System.Validator()
}

// Controller returns the controller with the given 1-based ID.
func (s *Simulation) Controller(id int) *controller.Controller {
	return s.controllerByID(store.NodeID(id))
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.Engine.Now() }

// Run advances the simulation by d of virtual time.
func (s *Simulation) Run(d time.Duration) error {
	return s.Engine.Run(s.Engine.Now() + d)
}

// Boot runs the warmup phase: the OpenFlow handshakes complete, LLDP
// discovers the full topology, and then hosts ARP each other so attachment
// points are learned on known edge ports. Returns the boot duration.
func (s *Simulation) Boot() time.Duration {
	start := s.Engine.Now()
	profile := s.Config.profile()
	// Two discovery periods: emit and learn, so LinksDB is populated
	// before host traffic appears.
	if err := s.Run(2*profile.LLDPPeriod + 100*time.Millisecond); err != nil {
		return s.Engine.Now() - start
	}
	s.Driver.Warmup()
	if err := s.Run(profile.LLDPPeriod + 400*time.Millisecond); err != nil {
		return s.Engine.Now() - start
	}
	return s.Engine.Now() - start
}

// ServeValidator runs the out-of-band validator as a standalone TCP
// service on addr (the separate validator host of Fig. 2): controller
// modules connect as wire clients and stream responses as JSON lines,
// and every validation result (or only alarms) is pushed back. The
// returned server owns background goroutines; call Close. The underlying
// wire bridge is resilient: framing is bounded, idle peers are
// heartbeated and reaped, and accept errors back off — see the
// "Resilient wire bridge" section of DESIGN.md.
func ServeValidator(addr string, cfg ValidatorServiceConfig) (*wire.Server, error) {
	cfg = cfg.withDefaults()
	ids := make([]store.NodeID, 0, cfg.ClusterSize)
	for i := 1; i <= cfg.ClusterSize; i++ {
		ids = append(ids, store.NodeID(i))
	}
	ds := make([]topo.DPID, 0, cfg.Switches)
	for i := 1; i <= cfg.Switches; i++ {
		ds = append(ds, topo.DPID(i))
	}
	return wire.Serve(addr, wire.ServerConfig{
		Validator: core.ValidatorConfig{
			K:        cfg.K,
			Timeout:  cfg.ValidationTimeout,
			Adaptive: cfg.AdaptiveTimeout,
		},
		Codec:          cfg.Codec,
		Shards:         cfg.Shards,
		QueueDepth:     cfg.QueueDepth,
		Members:        ids,
		Switches:       ds,
		AlarmsOnly:     cfg.AlarmsOnly,
		Tracing:        cfg.Tracing,
		FlightRing:     cfg.FlightRing,
		OnFlightDump:   cfg.OnFlightDump,
		MaxLineBytes:   cfg.MaxLineBytes,
		HeartbeatEvery: cfg.HeartbeatEvery,
		IdleTimeout:    cfg.IdleTimeout,
		Metrics:        cfg.Metrics,
	})
}
