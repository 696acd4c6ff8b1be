package core

import (
	"time"

	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// psiState is one controller's Ψ entry (§IV-B): the self-reported state
// snapshot that makes omission conviction state-aware.
type psiState struct {
	// digest is the controller's last self-reported state snapshot.
	digest uint64
	seen   bool
}

// entry is one stored response beside its comparison forms. The forms are
// computed once, when Submit stores the response, by the definitions in
// response.go (Slot, Body, appendExpectedFlowMod); consensus and the sanity
// check only compare these strings.
type entry struct {
	r    Response
	slot string // r.Slot()
	body string // r.Body()
	// netBody is the Body() of the FLOW_MOD a FlowsDB cache write must put
	// on the wire — "" unless the response is a non-delete FlowsDB
	// CacheUpdate whose rule decodes — and netDPID that rule's switch.
	netBody string
	netDPID topo.DPID
	ctrl    int // index into pendingTrigger.ctrls
}

// responder is one controller's standing within a trigger.
type responder struct {
	id      store.NodeID
	tainted bool // reported a replicated execution (side-effects or ExecDone)
	effects bool // ... with at least one side-effect
	// Scratch of a single tally or grouping pass over the entries.
	matched, conflicted, sameState bool
	mark                           int
}

// pendingTrigger is the validator's open state for one trigger τ: the
// responses in arrival order and, per responding controller, the counters
// evaluate reads. The validator pools these (Validator.free): everything
// below is recycled at finish, so nothing handed to a hook may alias
// entries — finish and expire copy at the two retention edges
// (Result.Evidence, OnTimeoutResponses).
type pendingTrigger struct {
	id      trigger.ID
	firstAt time.Duration
	timer   simnet.Timer
	// expireFn is the θτ callback, bound once per pooled object.
	expireFn func()

	// primaryPsi snapshots Ψ[primary] when the trigger opened, i.e. the
	// primary's last self-reported state close to when the secondaries
	// replayed the trigger.
	primaryPsi    psiState
	primaryPsiSet bool
	// primary is learned from response attribution.
	primary store.NodeID

	entries []entry
	ctrls   []responder
	// Maintained by store: distinct controllers that reported replicated
	// execution, distinct controllers whose replicated execution had
	// side-effects, and entries that count as the primary's responses
	// (isPrimaryEntry).
	taintedResponders int
	withEffects       int
	primaryEntries    int
}

// maxPooledEntries bounds the entry capacity a recycled pendingTrigger
// keeps, so one oversized trigger cannot pin its backing array forever.
const maxPooledEntries = 64

// isPrimaryEntry reports whether a response is one of the primary's own
// (untainted) responses. Untainted network writes from other controllers
// (e.g. the master of a remote switch materializing the primary's FlowsDB
// write) also count as authoritative cluster actions for the trigger.
func (p *pendingTrigger) isPrimaryEntry(r *Response) bool {
	return !r.Tainted && (r.Controller == p.primary || r.Kind == NetworkWrite)
}

// store appends a response with its comparison forms and updates the
// per-controller counters. An earlier entry of the trigger whose raw
// fields are byte-equal lends its forms — the k+1 replicas of a benign
// trigger canonicalize (and JSON-decode) once, not k+1 times — and render
// makes the rest.
func (p *pendingTrigger) store(r Response) {
	e := entry{r: r}
	needNet := r.Kind == CacheUpdate && r.Cache == store.FlowsDB && r.Op != store.OpDelete
	for i := range p.entries {
		o := &p.entries[i]
		if !sameSlotFields(&o.r, &r) {
			continue
		}
		e.slot = o.slot
		if sameBodyFields(&o.r, &r) {
			e.body = o.body
			if needNet && o.r.Kind == CacheUpdate {
				e.netBody, e.netDPID, needNet = o.netBody, o.netDPID, false
			}
			break
		}
	}
	if r.Kind == ExecDone {
		e.slot, e.body = r.Slot(), r.Body() // constant forms
	}
	if e.body == "" || needNet {
		e.render(needNet)
	}

	e.ctrl = -1
	for i := range p.ctrls {
		if p.ctrls[i].id == r.Controller {
			e.ctrl = i
			break
		}
	}
	if e.ctrl < 0 {
		e.ctrl = len(p.ctrls)
		p.ctrls = append(p.ctrls, responder{id: r.Controller})
	}
	if c := &p.ctrls[e.ctrl]; r.Tainted {
		if !c.tainted {
			c.tainted = true
			p.taintedResponders++
		}
		if r.Kind != ExecDone && !c.effects {
			c.effects = true
			p.withEffects++
		}
	}
	p.entries = append(p.entries, e)

	if r.Primary != 0 && r.Primary != p.primary {
		p.primary = r.Primary
		p.primaryEntries = 0
		for i := range p.entries {
			if p.isPrimaryEntry(&p.entries[i].r) {
				p.primaryEntries++
			}
		}
	} else if p.isPrimaryEntry(&r) {
		p.primaryEntries++
	}
}

// render makes the forms e did not borrow — its slot and body when they
// are "", its expected FLOW_MOD when needNet — from one decode of a
// FlowsDB value, back to back in one buffer, and cuts them from one
// string: one allocation per entry, none for the forms it borrows.
func (e *entry) render(needNet bool) {
	r := &e.r
	var rule *controller.FlowRule
	if r.IsCache() && r.Cache == store.FlowsDB && (e.body == "" || needNet) {
		if fr, err := controller.DecodeFlowRule(r.Value); err == nil {
			rule = &fr
		}
	}
	var buf [1024]byte
	b := buf[:0]
	if e.slot == "" {
		b = r.appendSlot(b)
	}
	slotEnd := len(b)
	if e.body == "" {
		b = r.appendBody(b, rule)
	}
	bodyEnd := len(b)
	needNet = needNet && rule != nil
	if needNet {
		b = appendExpectedFlowMod(b, rule)
		e.netDPID = rule.DPID
	}
	if len(b) == 0 {
		return
	}
	forms := string(b)
	if e.slot == "" {
		e.slot = forms[:slotEnd]
	}
	if e.body == "" {
		e.body = forms[slotEnd:bodyEnd]
	}
	if needNet {
		e.netBody = forms[bodyEnd:]
	}
}

// responses copies the first max stored responses out of the pooled state.
func (p *pendingTrigger) responses(max int) []Response {
	n := len(p.entries)
	if n > max {
		n = max
	}
	out := make([]Response, n)
	for i := range out {
		out[i] = p.entries[i].r
	}
	return out
}

// open starts the pending state (and the θτ timer) for a trigger's first
// response, reusing a recycled pendingTrigger when one is free.
func (v *Validator) open(id trigger.ID) *pendingTrigger {
	var p *pendingTrigger
	if n := len(v.free); n > 0 {
		p = v.free[n-1]
		v.free = v.free[:n-1]
	} else {
		p = &pendingTrigger{}
		p.expireFn = func() { v.expire(p) }
	}
	to := v.timeout()
	p.id = id
	p.firstAt = v.eng.Now()
	p.timer = v.eng.Schedule(to, p.expireFn)
	v.pending[id] = p
	v.pendingG.Add(1)
	if v.tracer != nil {
		// Ensure a root exists (idempotent: the replicator's
		// replicate-time open wins for external triggers; internal
		// triggers open here).
		v.tracer.StartTrigger(string(id), "")
		v.tracer.StartSpan(string(id), "validate", "validator")
	}
	if v.rec != nil {
		v.rec.Record(obs.Event{
			AtNS: int64(p.firstAt), Kind: obs.EvSubmit,
			Trigger: string(id), Arg: int64(to),
		})
	}
	return p
}

// release recycles a decided trigger's state. Entries are zeroed so the
// pool holds no response strings alive.
func (v *Validator) release(p *pendingTrigger) {
	entries, ctrls, expireFn := p.entries, p.ctrls, p.expireFn
	clear(entries)
	if cap(entries) > maxPooledEntries {
		entries = nil
	}
	*p = pendingTrigger{entries: entries[:0], ctrls: ctrls[:0], expireFn: expireFn}
	v.free = append(v.free, p)
}

// ObserveState applies a response's Ψ update without advancing any
// per-trigger state; tainted responses carry no Ψ update and are ignored.
// The parallel plane (internal/shard) calls it for the broadcast copies of
// an untainted response, so every worker's Ψ equals the global table and
// state-aware omission checks do not depend on which worker owns the
// trigger.
func (v *Validator) ObserveState(r Response) {
	if r.Tainted {
		return
	}
	v.psi[r.Controller] = psiState{digest: r.StateDigest, seen: true}
	if v.rec != nil {
		v.rec.Record(obs.Event{
			AtNS: int64(v.eng.Now()), Kind: obs.EvPsi,
			Trigger: string(r.Trigger), Ctrl: int64(r.Controller),
		})
	}
}

// Submit delivers one controller response ρ = (id, τ, entry) to the
// validator — the entry point of Algorithm 1. An untainted response
// updates Ψ; a response attributed to a trigger then advances that
// trigger's consensus state.
func (v *Validator) Submit(r Response) {
	v.ObserveState(r)
	if r.Trigger == "" {
		return // unattributed traffic (handshakes) is not validated
	}
	p, ok := v.pending[r.Trigger]
	if !ok {
		p = v.open(r.Trigger)
	}
	if p == v.tomb {
		v.lateResponses.Inc()
		if v.rec != nil {
			v.rec.Record(obs.Event{
				AtNS: int64(v.eng.Now()), Kind: obs.EvResponse,
				Trigger: string(r.Trigger), Ctrl: int64(r.Controller),
				Detail: "late",
			})
		}
		return
	}
	if v.rec != nil {
		v.rec.Record(obs.Event{
			AtNS: int64(v.eng.Now()), Kind: obs.EvResponse,
			Trigger: string(r.Trigger), Ctrl: int64(r.Controller),
		})
	}
	p.store(r)
	if r.Primary != 0 && !p.primaryPsiSet {
		p.primaryPsi = v.psi[r.Primary]
		p.primaryPsiSet = true
	}
	// Early decision once an unambiguous outcome exists (consensus
	// reached on every slot and sanity satisfied, or a quorum already
	// contradicts the primary).
	if res, conclusive := v.evaluate(p, false); conclusive {
		v.finish(p, res, false)
	}
}

func (v *Validator) timeout() time.Duration {
	if !v.cfg.Adaptive || !v.ewmaInit {
		return v.cfg.Timeout
	}
	t := time.Duration(v.ewmaMean + adaptiveFactor*v.ewmaDev)
	if min := 2 * time.Millisecond; t < min {
		t = min
	}
	if t > v.cfg.Timeout {
		t = v.cfg.Timeout
	}
	return t
}

// expire is the θτ callback. finish cancels the timer, so it only ever runs
// for a trigger that is still open.
func (v *Validator) expire(p *pendingTrigger) {
	v.totalTimeouts.Inc()
	if v.rec != nil {
		v.rec.Record(obs.Event{
			AtNS: int64(v.eng.Now()), Kind: obs.EvTimer,
			Trigger: string(p.id),
		})
	}
	if v.OnTimeoutResponses != nil {
		v.OnTimeoutResponses(p.id, p.responses(len(p.entries)))
	}
	// The full CONSENSUS / SANITY_CHECK / POLICY_CHECK cascade: at expiry
	// evaluate always returns a result.
	res, _ := v.evaluate(p, true)
	v.finish(p, res, true)
}

func (v *Validator) finish(p *pendingTrigger, res Result, timedOut bool) {
	id := p.id
	p.timer.Cancel()
	// Keep the trigger marked decided for a grace period so responses still
	// in flight are absorbed as late responses rather than resurrecting it
	// as a ghost that would time out as a spurious omission. Only the
	// shared tombstone stays in the map; the trigger's state is recycled
	// below.
	v.pending[id] = v.tomb
	v.graves.Send(id)
	res.Trigger = id
	res.Responses = len(p.entries)
	res.DecidedAt = v.eng.Now()
	res.DetectionTime = res.DecidedAt - p.firstAt
	res.TimedOut = timedOut
	v.Detections.Observe(res.DetectionTime)
	if res.Kind == trigger.External {
		v.DetectionsExternal.Observe(res.DetectionTime)
	}
	v.updateAdaptive(res.DetectionTime)
	v.totalDecided.Inc()
	switch res.Verdict {
	case VerdictValid:
		v.totalValid.Inc()
	case VerdictNonDeterministic:
		v.totalNonDet.Inc()
	case VerdictFault:
		v.totalFaults.Inc()
		res.Evidence = p.responses(32)
		if v.alarms.Len() < maxAlarms {
			v.alarms.Append(res)
		}
	}
	v.release(p)
	if v.tracer != nil {
		v.tracer.EndSpan(string(id), "validate", "validator", res.Reason)
		v.tracer.EndTrigger(string(id), res.Verdict.String(), res.Fault.String())
	}
	if v.rec != nil {
		v.rec.Record(obs.Event{
			AtNS: int64(res.DecidedAt), Kind: obs.EvVerdict,
			Trigger: string(id),
			Verdict: res.Verdict.String(), Fault: res.Fault.String(),
			Detail: res.Reason, Arg: int64(res.Responses),
		})
	}
	if v.OnResult != nil {
		v.OnResult(res)
	}
}

// bury closes a decided trigger's grace window.
func (v *Validator) bury(id trigger.ID) {
	delete(v.pending, id) // only bury deletes, so the tombstone is there
	v.pendingG.Add(-1)
}

func (v *Validator) updateAdaptive(d time.Duration) {
	const alpha = 0.05
	x := float64(d)
	if !v.ewmaInit {
		v.ewmaMean = x
		v.ewmaInit = true
		return
	}
	dev := x - v.ewmaMean
	if dev < 0 {
		dev = -dev
	}
	v.ewmaMean = (1-alpha)*v.ewmaMean + alpha*x
	v.ewmaDev = (1-alpha)*v.ewmaDev + alpha*dev
}
