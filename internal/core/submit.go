package core

import (
	"time"

	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/trigger"
)

// psiState is one controller's Ψ entry: running count plus latest entry
// digest (§IV-B), extended with the self-reported state snapshot used to
// make omission conviction state-aware.
type psiState struct {
	count  uint64
	latest string
	// digest is the controller's last self-reported state snapshot.
	digest uint64
	seen   bool
	at     time.Duration
}

// pendingTrigger is the validator's open state for one trigger τ.
type pendingTrigger struct {
	id        trigger.ID
	firstAt   time.Duration
	timer     *simnet.Event
	tainted   bool
	decided   bool
	responses int

	// primaryPsi snapshots Ψ[primary] when the trigger opened, i.e. the
	// primary's last self-reported state close to when the secondaries
	// replayed the trigger.
	primaryPsi    psiState
	primaryPsiSet bool

	// Per-controller responses.
	byController map[store.NodeID][]Response
	// primary is learned from response attribution.
	primary store.NodeID
	// noops counts secondaries that reported a side-effect-free
	// replicated execution.
	noops map[store.NodeID]bool

	all []Response
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
	st := v.psi[r.Controller]
	if r.IsCache() {
		st.count++
		st.latest = r.Body()
	}
	st.digest = r.StateDigest
	st.seen = true
	st.at = v.eng.Now()
	v.psi[r.Controller] = st
	if v.rec != nil {
		v.rec.Record(obs.Event{
			AtNS: int64(st.at), Kind: obs.EvPsi,
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
		p = &pendingTrigger{
			id:           r.Trigger,
			firstAt:      v.eng.Now(),
			byController: make(map[store.NodeID][]Response),
			noops:        make(map[store.NodeID]bool),
		}
		to := v.timeout()
		p.timer = v.eng.Schedule(to, func() { v.expire(p) })
		v.pending[r.Trigger] = p
		v.pendingG.Add(1)
		if v.tracer != nil {
			id := string(r.Trigger)
			// Ensure a root exists (idempotent: the replicator's
			// replicate-time open wins for external triggers; internal
			// triggers open here).
			v.tracer.StartTrigger(id, "")
			v.tracer.StartSpan(id, "validate", "validator")
		}
		if v.rec != nil {
			v.rec.Record(obs.Event{
				AtNS: int64(p.firstAt), Kind: obs.EvSubmit,
				Trigger: string(r.Trigger), Arg: int64(to),
			})
		}
	}
	if p.decided {
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
	p.responses++
	p.all = append(p.all, r)
	p.byController[r.Controller] = append(p.byController[r.Controller], r)
	if r.Tainted {
		p.tainted = true
	}
	if r.Kind == ExecDone {
		p.noops[r.Controller] = true
	}
	if r.Primary != 0 {
		p.primary = r.Primary
		if !p.primaryPsiSet {
			p.primaryPsi = v.psi[r.Primary]
			p.primaryPsiSet = true
		}
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
	t := time.Duration(v.ewmaMean + v.cfg.AdaptiveFactor*v.ewmaDev)
	if min := 2 * time.Millisecond; t < min {
		t = min
	}
	if t > v.cfg.Timeout {
		t = v.cfg.Timeout
	}
	return t
}

func (v *Validator) expire(p *pendingTrigger) {
	if p.decided {
		return
	}
	v.totalTimeouts.Inc()
	if v.rec != nil {
		v.rec.Record(obs.Event{
			AtNS: int64(v.eng.Now()), Kind: obs.EvTimer,
			Trigger: string(p.id),
		})
	}
	if v.OnTimeoutResponses != nil {
		v.OnTimeoutResponses(p.id, p.all)
	}
	// The full CONSENSUS / SANITY_CHECK / POLICY_CHECK cascade: at expiry
	// evaluate always returns a result.
	res, _ := v.evaluate(p, true)
	v.finish(p, res, true)
}

func (v *Validator) finish(p *pendingTrigger, res Result, timedOut bool) {
	p.decided = true
	p.timer.Cancel()
	// Retain the decided entry for a grace period so responses still in
	// flight are absorbed as late responses rather than resurrecting the
	// trigger as a ghost that would time out as a spurious omission.
	grace := 2 * v.cfg.Timeout
	if grace < time.Second {
		grace = time.Second
	}
	v.eng.Schedule(grace, func() {
		if _, ok := v.pending[p.id]; ok {
			delete(v.pending, p.id)
			v.pendingG.Add(-1)
		}
	})
	res.Trigger = p.id
	res.Responses = p.responses
	res.DecidedAt = v.eng.Now()
	res.DetectionTime = res.DecidedAt - p.firstAt
	res.TimedOut = timedOut
	v.Detections.Add(res.DetectionTime)
	if res.Kind == trigger.External {
		v.DetectionsExternal.Add(res.DetectionTime)
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
		evidence := p.all
		if len(evidence) > 32 {
			evidence = evidence[:32]
		}
		res.Evidence = append([]Response(nil), evidence...)
		if v.alarms.Len() < v.cfg.MaxAlarms {
			v.alarms.Append(res)
		}
	}
	if v.tracer != nil {
		id := string(p.id)
		v.tracer.EndSpan(id, "validate", "validator", res.Reason)
		v.tracer.EndTrigger(id, res.Verdict.String(), res.Fault.String())
	}
	if v.rec != nil {
		v.rec.Record(obs.Event{
			AtNS: int64(res.DecidedAt), Kind: obs.EvVerdict,
			Trigger: string(p.id),
			Verdict: res.Verdict.String(), Fault: res.Fault.String(),
			Detail: res.Reason, Arg: int64(res.Responses),
		})
	}
	if v.OnResult != nil {
		v.OnResult(res)
	}
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
