package controller

import (
	"time"

	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/trigger"
)

// Northbound and internal (proactive) trigger entry points (§II-A2).
//
// REST requests are *external* triggers: with JURY enabled, the replicator
// intercepts and replicates them to secondaries exactly like PACKET_INs.
// Administrator sessions and truly proactive applications are *internal*
// triggers: they cannot be intercepted on the wire, so JURY observes only
// their cache side-effects (§IV-A(2)).

// InstallFlowREST processes a northbound flow-install request. ctx carries
// the trigger identity assigned by the replicator (nil in vanilla
// deployments, in which case a local ID is minted).
func (c *Controller) InstallFlowREST(rule FlowRule, ctx *trigger.Context) {
	if c.crashed {
		return
	}
	if ctx == nil {
		ctx = &trigger.Context{ID: c.alloc.Next(), Kind: trigger.External, Primary: c.id}
	}
	c.server.Submit(request{c, func() {
		if c.OnProcessStart != nil {
			c.OnProcessStart(ctx)
		}
		rule.Trigger = ctx.ID
		rule.Origin = c.id
		op := store.OpCreate
		if rule.Command == 3 || rule.Command == 4 { // delete / delete-strict
			op = store.OpDelete
		}
		c.WriteCache(store.FlowsDB, op, rule.Key(), rule.Encode(), ctx, nil)
		if c.OnProcessed != nil {
			c.OnProcessed(rule.DPID, nil, ctx)
		}
	}})
}

// InstallFlowInternal installs a flow on behalf of an administrator logged
// into the controller or a truly proactive application — an internal
// trigger (§II-A2).
func (c *Controller) InstallFlowInternal(rule FlowRule) {
	if c.crashed {
		return
	}
	ctx := &trigger.Context{ID: c.alloc.Next(), Kind: trigger.Internal, Primary: c.id}
	c.server.Submit(request{c, func() {
		rule.Trigger = ""
		rule.Origin = c.id
		c.WriteCache(store.FlowsDB, store.OpCreate, rule.Key(), rule.Encode(), ctx, nil)
	}})
}

// AdminWriteCache performs a direct administrator/application write to a
// controller-wide cache — the proactive action class (T2/T3) JURY
// validates through cache-event interception and policies.
func (c *Controller) AdminWriteCache(cache store.CacheName, op store.Op, key, value string) {
	if c.crashed {
		return
	}
	ctx := &trigger.Context{ID: c.alloc.Next(), Kind: trigger.Internal, Primary: c.id}
	c.server.Submit(request{c, func() { c.WriteCache(cache, op, key, value, ctx, nil) }})
}

// request is a northbound or internal request's job on the pipeline
// server: it costs a handshake-class service time, then runs.
type request struct {
	c   *Controller
	run func()
}

func (j request) Service() time.Duration {
	return j.c.expDelay(j.c.profile.HandshakeService) + j.c.pauseDelay()
}

func (j request) Done() { j.run() }
