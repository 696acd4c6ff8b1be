// Package faults implements the fault catalog of the paper: the four real
// controller faults of §III-B, the three synthetic faults of §VII-A1, the
// four appendix faults, and generic crash / omission / timing / byzantine
// failures. Faults are injected through the controller's cache-write and
// egress hook seams, exactly where the paper's bugs manifest, so JURY
// validates the faulty behaviour instead of masking it.
package faults

import (
	"fmt"
	"time"

	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/dataplane"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
)

// Kind identifies a fault scenario.
type Kind string

// The fault catalog.
const (
	// Real faults demonstrated in §III-B.
	ONOSDatabaseLocking Kind = "onos-database-locking"
	ONOSMasterElection  Kind = "onos-master-election"
	ODLFlowModDrop      Kind = "odl-flowmod-drop"
	ODLIncorrectFlowMod Kind = "odl-incorrect-flowmod"

	// Synthetic faults of §VII-A1.
	LinkFailure           Kind = "link-failure"
	UndesirableFlowMod    Kind = "undesirable-flowmod"
	FaultyProactiveAction Kind = "faulty-proactive-action"

	// Appendix faults.
	FlowDeletionFailure       Kind = "flow-deletion-failure"
	LinkDetectionInconsistent Kind = "link-detection-inconsistent"
	FlowInstantiationFailure  Kind = "flow-instantiation-failure"
	PendingAdd                Kind = "pending-add"

	// Generic distributed-system failures (§III-B preamble).
	Crash               Kind = "crash"
	TimingDelay         Kind = "timing-delay"
	ByzantineCorruption Kind = "byzantine-corruption"
)

// Class is the paper's fault taxonomy (Table 1).
type Class string

// Fault classes.
const (
	ClassT1     Class = "T1" // reactive: incorrect cache and/or network writes
	ClassT2     Class = "T2" // proactive: cache and network inconsistent
	ClassT3     Class = "T3" // proactive: cache and network consistent but wrong
	ClassCrash  Class = "crash"
	ClassTiming Class = "timing"
	ClassByz    Class = "byzantine"
)

// Fault is an armed fault instance.
type Fault struct {
	Kind       Kind
	Target     *controller.Controller
	injections int

	// fire performs the proactive action for T2/T3 scenarios (nil for
	// reactive faults, which the workload triggers).
	fire func()
}

// Injections returns how many operations the fault has perturbed.
func (f *Fault) Injections() int { return f.injections }

// Fire performs the fault's proactive action, if any (T2/T3 faults whose
// trigger is an administrator or application).
func (f *Fault) Fire() {
	if f.fire != nil {
		f.fire()
	}
}

// String names the fault and its target.
func (f *Fault) String() string {
	return fmt.Sprintf("%s on C%d", f.Kind, f.Target.ID())
}

// InjectDatabaseLocking arms the ONOS database-locking fault: the target
// controller's SwitchDB writes for switch connects fail (lock error), so
// the primary omits its response while secondaries do not.
func InjectDatabaseLocking(target *controller.Controller) *Fault {
	f := &Fault{Kind: ONOSDatabaseLocking, Target: target}
	target.PrependCacheHook(func(_ *controller.Controller, w *controller.CacheWrite) controller.HookAction {
		if w.Ctx.Tainted() || w.Cache != store.SwitchDB {
			return controller.Proceed
		}
		f.injections++
		return controller.Suppress
	})
	return f
}

// InjectMasterElection arms the ONOS master-election fault: the target
// (previously the higher-ID liveness master, now reboots with a lower ID)
// stops tracking liveness for cross-governed links, believing it lost the
// election — while the other governor also believes it is not responsible.
func InjectMasterElection(target *controller.Controller) *Fault {
	target.LivenessIDOverride = store.NodeID(-1)
	return &Fault{Kind: ONOSMasterElection, Target: target}
}

// InjectFlowModDrop arms the ODL FLOW_MOD-drop fault: FLOW_MODs leaving
// the target controller are sporadically lost between the data store and
// the network (every dropNth message; 1 drops all).
func InjectFlowModDrop(target *controller.Controller, dropNth int) *Fault {
	if dropNth < 1 {
		dropNth = 1
	}
	f := &Fault{Kind: ODLFlowModDrop, Target: target}
	count := 0
	target.PrependEgressHook(func(_ *controller.Controller, w *controller.EgressWrite) controller.HookAction {
		if w.Ctx.Tainted() {
			return controller.Proceed
		}
		if _, ok := w.Msg.(*openflow.FlowMod); !ok {
			return controller.Proceed
		}
		count++
		if count%dropNth == 0 {
			f.injections++
			return controller.Suppress
		}
		return controller.Proceed
	})
	return f
}

// InjectIncorrectFlowMod arms the ODL incorrect-FLOW_MOD fault (T3): the
// administrator installs, via an internal trigger, a flow whose match
// violates the OpenFlow 1.0 field hierarchy; the permissive switch installs
// it after discarding fields, so cache and switch state silently diverge.
// Fire performs the installation.
func InjectIncorrectFlowMod(target *controller.Controller, sw *dataplane.Switch) *Fault {
	sw.AcceptInvalidMatch = true
	f := &Fault{Kind: ODLIncorrectFlowMod, Target: target}
	f.fire = func() {
		f.injections++
		target.InstallFlowInternal(InvalidHierarchyRule(sw.DPID()))
	}
	return f
}

// InvalidHierarchyRule builds a flow rule whose match sets L4 ports
// without constraining nw_proto — the hierarchy violation of the
// incorrect-FLOW_MOD fault.
func InvalidHierarchyRule(dpid topo.DPID) controller.FlowRule {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardTPDst // tp_dst set, nw_proto not
	m.TPDst = 80
	return controller.FlowRule{
		DPID:     dpid,
		Match:    m,
		Priority: 42,
		Actions:  []openflow.Action{openflow.Output(1)},
		Command:  uint16(openflow.FlowAdd),
	}
}

// InjectLinkFailure arms the synthetic T1 link-failure fault: the target
// responds to LLDP triggers by incorrectly writing LinksDB entries as
// "down", disabling links.
func InjectLinkFailure(target *controller.Controller) *Fault {
	f := &Fault{Kind: LinkFailure, Target: target}
	target.PrependCacheHook(func(_ *controller.Controller, w *controller.CacheWrite) controller.HookAction {
		if w.Ctx.Tainted() || w.Cache != store.LinksDB {
			return controller.Proceed
		}
		if w.Value == "up" {
			f.injections++
			w.Value = "down"
		}
		return controller.Proceed
	})
	return f
}

// InjectUndesirableFlowMod arms the synthetic T2 fault: the cache receives
// the correct rule, but the FLOW_MOD emitted on the wire is rewritten to
// drop all packets at the destination switch.
func InjectUndesirableFlowMod(target *controller.Controller) *Fault {
	f := &Fault{Kind: UndesirableFlowMod, Target: target}
	target.PrependEgressHook(func(_ *controller.Controller, w *controller.EgressWrite) controller.HookAction {
		if w.Ctx.Tainted() {
			return controller.Proceed
		}
		fm, ok := w.Msg.(*openflow.FlowMod)
		if !ok {
			return controller.Proceed
		}
		f.injections++
		bad := *fm
		bad.Actions = nil // empty action list drops all matching packets
		w.Msg = &bad
		return controller.Proceed
	})
	return f
}

// InjectFaultyProactiveAction arms the synthetic T3 fault: an internal
// trigger (administrator/application) writes a consistent but wrong
// LinksDB entry that brings a critical link down. Fire performs the write.
// Only a policy can catch this class (§VII-A1(3)).
func InjectFaultyProactiveAction(target *controller.Controller, linkKey string) *Fault {
	f := &Fault{Kind: FaultyProactiveAction, Target: target}
	f.fire = func() {
		f.injections++
		target.AdminWriteCache(store.LinksDB, store.OpUpdate, linkKey, "down")
	}
	return f
}

// InjectFlowDeletionFailure arms the appendix T1 fault: REST-initiated
// FlowsDB deletions are silently dropped at the target (the controller
// "locks up" on deletes).
func InjectFlowDeletionFailure(target *controller.Controller) *Fault {
	f := &Fault{Kind: FlowDeletionFailure, Target: target}
	target.PrependCacheHook(func(_ *controller.Controller, w *controller.CacheWrite) controller.HookAction {
		if w.Ctx.Tainted() {
			return controller.Proceed
		}
		if w.Cache == store.FlowsDB && w.Op == store.OpDelete {
			f.injections++
			return controller.Suppress
		}
		return controller.Proceed
	})
	return f
}

// InjectLinkDetectionInconsistent arms the appendix T1 fault: the target
// non-deterministically drops a fraction of its LinksDB writes (threading
// conflicts), so detected links vary run to run. dropPercent in [0,100].
func InjectLinkDetectionInconsistent(target *controller.Controller, eng interface{ Intn(int) int }, dropPercent int) *Fault {
	f := &Fault{Kind: LinkDetectionInconsistent, Target: target}
	target.PrependCacheHook(func(_ *controller.Controller, w *controller.CacheWrite) controller.HookAction {
		if w.Ctx.Tainted() || w.Cache != store.LinksDB {
			return controller.Proceed
		}
		if eng.Intn(100) < dropPercent {
			f.injections++
			return controller.Suppress
		}
		return controller.Proceed
	})
	return f
}

// InjectFlowInstantiationFailure arms the appendix T2 fault: restconf
// reports success and the data store is updated, but no FLOW_MOD leaves
// the controller.
func InjectFlowInstantiationFailure(target *controller.Controller) *Fault {
	f := &Fault{Kind: FlowInstantiationFailure, Target: target}
	target.PrependEgressHook(func(_ *controller.Controller, w *controller.EgressWrite) controller.HookAction {
		if w.Ctx.Tainted() {
			return controller.Proceed
		}
		if _, ok := w.Msg.(*openflow.FlowMod); ok {
			f.injections++
			return controller.Suppress
		}
		return controller.Proceed
	})
	return f
}

// InjectPendingAdd arms the appendix T2 fault at the data plane: the
// switch accepts FLOW_MODs but leaves entries in PENDING_ADD, so the
// store's view (ADDED) disagrees with the switch. Each flow add the target
// sends that switch counts as an injection.
func InjectPendingAdd(target *controller.Controller, sw *dataplane.Switch) *Fault {
	sw.HoldPendingAdd = true
	f := &Fault{Kind: PendingAdd, Target: target}
	target.PrependEgressHook(func(_ *controller.Controller, w *controller.EgressWrite) controller.HookAction {
		if fm, ok := w.Msg.(*openflow.FlowMod); ok && !w.Ctx.Tainted() && w.DPID == sw.DPID() && fm.Command == openflow.FlowAdd {
			f.injections++
		}
		return controller.Proceed
	})
	return f
}

// InjectCrash fail-stops the target when fired.
func InjectCrash(target *controller.Controller) *Fault {
	f := &Fault{Kind: Crash, Target: target}
	f.fire = func() {
		f.injections++
		target.Crash()
	}
	return f
}

// InjectTimingDelay arms a timing fault: the target processes every
// trigger delay (+ up to jitter) slower than its peers — the "faulty
// replica" model of the m>0 detection experiments (§VII-A). Each cache
// write the target makes as primary counts as an injection.
func InjectTimingDelay(target *controller.Controller, delay, jitter time.Duration) *Fault {
	target.SetExtraDelay(delay, jitter)
	f := &Fault{Kind: TimingDelay, Target: target}
	target.PrependCacheHook(func(_ *controller.Controller, w *controller.CacheWrite) controller.HookAction {
		if !w.Ctx.Tainted() {
			f.injections++
		}
		return controller.Proceed
	})
	return f
}

// InjectByzantineCorruption arms random corruption: a percentage of the
// target's cache writes have their values corrupted.
func InjectByzantineCorruption(target *controller.Controller, eng interface{ Intn(int) int }, percent int) *Fault {
	f := &Fault{Kind: ByzantineCorruption, Target: target}
	target.PrependCacheHook(func(_ *controller.Controller, w *controller.CacheWrite) controller.HookAction {
		if w.Ctx.Tainted() {
			return controller.Proceed
		}
		if eng.Intn(100) < percent {
			f.injections++
			w.Value = w.Value + "|corrupted"
		}
		return controller.Proceed
	})
	return f
}
