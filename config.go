package jury

import (
	"fmt"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/policy"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
)

// ControllerKind selects a calibrated controller profile.
type ControllerKind uint8

// Controller kinds.
const (
	// ONOS models ONOS v1.0.0: eventually consistent store, fast
	// multi-worker pipeline, ANY_CONTROLLER_ONE_MASTER clustering.
	ONOS ControllerKind = iota + 1
	// ODL models OpenDaylight Hydrogen: strongly consistent store, slow
	// single-worker pipeline, SINGLE_CONTROLLER clustering.
	ODL
)

// String names the kind.
func (k ControllerKind) String() string {
	if k == ODL {
		return "odl"
	}
	return "onos"
}

// TopologyKind selects a built-in topology.
type TopologyKind uint8

// Topologies.
const (
	// Linear24 is the 24-switch / 24-host Mininet setup of §VII.
	Linear24 TopologyKind = iota + 1
	// ThreeTier is the 8-edge/4-aggregate/2-core physical testbed shape.
	ThreeTier
	// SingleSwitch is a one-switch Cbench-style topology.
	SingleSwitch
)

// Config assembles a simulated deployment.
type Config struct {
	// Seed makes the run reproducible.
	Seed int64
	// Kind selects the controller profile (default ONOS).
	Kind ControllerKind
	// Profile overrides the calibrated profile entirely when non-nil.
	Profile *controller.Profile
	// ClusterSize is n, the number of controller replicas (default 7).
	ClusterSize int
	// Topology selects the data-plane shape (default Linear24).
	Topology TopologyKind
	// CustomTopology overrides Topology when non-nil.
	CustomTopology *topo.Topology
	// ClusterMode overrides the HA connection-management mode implied by
	// the controller kind (ANY_CONTROLLER_ONE_MASTER for ONOS,
	// SINGLE_CONTROLLER for ODL). Set cluster.ActivePassive for the
	// Active-Passive deployment of §II-A.
	ClusterMode cluster.Mode

	// EnableJury interposes replicators, modules and the validator.
	EnableJury bool
	// K is JURY's replication factor (default n-1, full replication).
	K int
	// ValidationTimeout is θτ (default: calibrated per profile).
	ValidationTimeout time.Duration
	// AdaptiveTimeout enables the EWMA adaptive deadline (§VIII-1).
	AdaptiveTimeout bool
	// RelayAll disables k+1 sampling of cache relays.
	RelayAll bool
	// NoStateAware disables the validator's state-aware consensus
	// refinements (ablation).
	NoStateAware bool
	// Policies is the administrator policy set evaluated by the
	// validator.
	Policies []policy.Policy

	// Metrics is the observability registry shared by every component of
	// the deployment; nil creates one per simulation (reachable via
	// Simulation.Metrics).
	Metrics *obs.Registry
	// EnableTracing creates a tracer on the simulation's own virtual
	// clock, recording the per-trigger span tree across the pipeline
	// (replicate → exec → store fan-out → verdict); off, tracing costs
	// nothing on the hot path. Simulation.Tracer returns it.
	EnableTracing bool
	// FlightRing, when nonzero, arms a flight recorder that keeps the
	// validator's last FlightRing trigger lifecycle events in a fixed ring
	// (negative selects obs.DefaultFlightRing); zero disables it at no
	// hot-path cost. Simulation.FlightRecorder returns it.
	FlightRing int
}

func (c Config) withDefaults() (Config, error) {
	if c.Kind == 0 {
		c.Kind = ONOS
	}
	if c.ClusterSize == 0 {
		c.ClusterSize = 7
	}
	if c.ClusterSize < 1 {
		return c, fmt.Errorf("jury: cluster size must be >= 1, got %d", c.ClusterSize)
	}
	if c.Topology == 0 {
		c.Topology = Linear24
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.EnableJury {
		if c.K == 0 {
			c.K = c.ClusterSize - 1
		}
		if c.K > c.ClusterSize-1 {
			return c, fmt.Errorf("jury: k=%d exceeds cluster size n=%d", c.K, c.ClusterSize)
		}
		if c.ValidationTimeout == 0 {
			if c.Kind == ODL {
				c.ValidationTimeout = 700 * time.Millisecond
			} else {
				c.ValidationTimeout = 130 * time.Millisecond
			}
		}
	}
	return c, nil
}

func (c Config) profile() controller.Profile {
	if c.Profile != nil {
		return *c.Profile
	}
	if c.Kind == ODL {
		return controller.ODLProfile()
	}
	return controller.ONOSProfile()
}

func (c Config) clusterMode() cluster.Mode {
	if c.ClusterMode != 0 {
		return c.ClusterMode
	}
	if c.Kind == ODL {
		return cluster.SingleController
	}
	return cluster.AnyControllerOneMaster
}

func (c Config) storeConfig(p controller.Profile, tracer *obs.Tracer) store.Config {
	sc := store.DefaultConfig(p.Consistency)
	sc.Metrics = c.Metrics
	sc.Tracer = tracer
	if p.Consistency == store.Eventual {
		sc.FlowBusService = p.StoreBusService
	}
	if c.EnableJury && c.K > 0 && p.JuryStoreOverhead > 0 {
		extra := time.Duration(c.K) * p.JuryStoreOverhead
		if p.Consistency == store.Eventual {
			sc.FlowBusService += extra
		} else {
			sc.CommitBase += extra
		}
	}
	return sc
}

func (c Config) replicationMode() core.ReplicationMode {
	if c.Kind == ODL {
		return core.EncapMode
	}
	return core.ProxyMode
}

// ValidatorServiceConfig assembles the out-of-band validator service of
// Fig. 2 (what `jury serve` runs): the deployment shape the validator
// assumes plus the wire-bridge resilience knobs. The zero value selects
// the paper's defaults.
type ValidatorServiceConfig struct {
	// ClusterSize is n, the number of controllers whose responses the
	// validator expects (default 7).
	ClusterSize int
	// K is the replication factor (default n-1).
	K int
	// Switches is the number of datapaths in the membership map
	// (default 24).
	Switches int
	// ValidationTimeout is θτ (default 130ms, the §VII calibration).
	ValidationTimeout time.Duration
	// AdaptiveTimeout enables the EWMA adaptive deadline (§VIII-1).
	AdaptiveTimeout bool
	// Shards is the width of the validation plane: one worker goroutine
	// and one validator per shard, responses dispatched by FNV over the
	// taint ID (default 1 — the paper's single decision loop).
	Shards int
	// QueueDepth bounds each shard's intake queue (default
	// shard.DefaultQueueDepth), counted in batches: one per socket read a
	// connection hands over, at most 256 responses each. A full queue
	// applies backpressure to the dispatching connection — responses are
	// never dropped.
	QueueDepth int
	// AlarmsOnly pushes only fault results to connected clients.
	AlarmsOnly bool
	// Tracing arms a per-trigger span tracer on every shard's virtual
	// clock. The merged trace is read back with wire.Server.WriteTrace —
	// `jury serve -trace-out`.
	Tracing bool
	// FlightRing arms a flight recorder on every shard retaining its last
	// N trigger lifecycle events; zero disables.
	FlightRing int
	// OnFlightDump receives dump-on-alarm flight snapshots (reason plus
	// the merged ring, oldest first), serialized and rate-limited.
	OnFlightDump func(reason string, events []obs.Event)

	// MaxLineBytes caps one protocol line; oversized lines are rejected
	// and counted without killing the connection (default
	// wire.DefaultMaxLineBytes).
	MaxLineBytes int
	// HeartbeatEvery probes idle client connections with ping envelopes
	// (default wire.DefaultHeartbeatEvery; negative disables).
	HeartbeatEvery time.Duration
	// IdleTimeout reaps half-open peers idle past this horizon (default
	// wire.DefaultIdleTimeout; negative disables).
	IdleTimeout time.Duration
	// Metrics receives the jury_wire_* connection-lifecycle families;
	// nil shares the validator's own registry, so the service /metrics
	// page carries them automatically.
	Metrics *obs.Registry
}

func (c ValidatorServiceConfig) withDefaults() ValidatorServiceConfig {
	if c.ClusterSize <= 0 {
		c.ClusterSize = 7
	}
	if c.K <= 0 {
		c.K = c.ClusterSize - 1
	}
	if c.Switches <= 0 {
		c.Switches = 24
	}
	if c.ValidationTimeout <= 0 {
		c.ValidationTimeout = 130 * time.Millisecond
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}
