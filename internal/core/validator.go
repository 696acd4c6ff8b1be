package core

import (
	"fmt"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/trigger"
)

// Verdict is the validator's decision for one trigger.
type Verdict uint8

// Verdicts.
const (
	VerdictValid Verdict = iota + 1
	VerdictFault
	// VerdictNonDeterministic labels triggers whose responses were all
	// pairwise distinct — non-deterministic application logic, treated
	// as non-faulty (§IV-C B).
	VerdictNonDeterministic
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictValid:
		return "valid"
	case VerdictFault:
		return "fault"
	case VerdictNonDeterministic:
		return "non-deterministic"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// FaultClass categorizes a detected fault.
type FaultClass uint8

// Fault classes raised by the validator.
const (
	FaultNone FaultClass = iota
	// FaultOmission: the primary produced no response before the
	// validation timeout (crash / response-omission / timing fault).
	FaultOmission
	// FaultValue: the primary's response conflicts with the consensus of
	// same-state secondaries (T1).
	FaultValue
	// FaultInconsistent: the primary's network write disagrees with the
	// replicated cache state (T2).
	FaultInconsistent
	// FaultMissingNetwork: cache updates exist but the expected network
	// write never appeared (T2, e.g. ODL FLOW_MOD drop).
	FaultMissingNetwork
	// FaultNetworkOnly: a FLOW_MOD appeared with no corresponding cache
	// update (§II-A3: network-only side-effects indicate misbehaviour).
	FaultNetworkOnly
	// FaultPolicy: an administrator policy was violated (T3).
	FaultPolicy
)

// String names the fault class.
func (f FaultClass) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultOmission:
		return "omission"
	case FaultValue:
		return "value"
	case FaultInconsistent:
		return "inconsistent"
	case FaultMissingNetwork:
		return "missing-network"
	case FaultNetworkOnly:
		return "network-only"
	case FaultPolicy:
		return "policy"
	default:
		return fmt.Sprintf("fault(%d)", uint8(f))
	}
}

// Result is the validator's output Oτ for one trigger.
type Result struct {
	Trigger   trigger.ID
	Kind      trigger.Kind
	Verdict   Verdict
	Fault     FaultClass
	Offender  store.NodeID
	Reason    string
	Responses int
	// DetectionTime is the interval from the first response (θτ start)
	// to the decision.
	DetectionTime time.Duration // protocol time base is virtual ns
	DecidedAt     time.Duration // protocol time base is virtual ns
	TimedOut      bool
	// Evidence carries the responses behind a fault verdict (bounded),
	// the diagnostics the paper presents to the administrator (§V).
	Evidence []Response `json:"evidence,omitempty"`
}

// PolicyFunc evaluates administrator policies against one primary response
// (POLICY_CHECK in Algorithm 1). It returns the name of a violated policy.
type PolicyFunc func(kind trigger.Kind, primary store.NodeID, r Response) (violation string, violated bool)

const (
	// adaptiveFactor scales the deviation in the adaptive timeout:
	// deadline = mean + adaptiveFactor·deviation.
	adaptiveFactor = 4
	// maxAlarms bounds the retained alarm list.
	maxAlarms = 16384
)

// ValidatorConfig parameterizes the validator.
type ValidatorConfig struct {
	// K is the replication factor.
	K int
	// Timeout is the per-trigger validation deadline θτ (§IV-C C). The
	// paper determines it empirically as the 95th percentile of
	// consensus time for the deployment's (k, m).
	Timeout time.Duration
	// Adaptive enables the EWMA-based adaptive timeout the paper leaves
	// as future work (§VIII-1): the deadline tracks recent consensus
	// latency as mean + adaptiveFactor·deviation.
	Adaptive bool
	// NoStateAware disables the state-aware consensus refinements
	// (§IV-C A) — an ablation knob: all conflicting replicas count
	// toward conviction regardless of their snapshots, and omission
	// exemptions are skipped. Expect higher false-positive rates under
	// eventually-consistent churn.
	NoStateAware bool
	// Metrics receives the validator's counters, pending gauge and
	// detection-time summaries; nil falls back to a private registry so
	// the accessor methods keep working with nothing scraped.
	// Registration is get-or-create, so validators handed one registry
	// share every aggregate and each accessor reads the shared total.
	Metrics *obs.Registry
	// Tracer records a "validate" span per trigger and closes the root
	// span with the verdict; nil disables tracing at zero hot-path cost.
	Tracer *obs.Tracer
	// Recorder is the always-on flight recorder: every submit, response
	// arrival, ψ update, timer expiry and verdict lands in its fixed ring
	// for post-mortem dumps. nil disables recording at zero hot-path
	// cost; with a recorder set the Submit path stays allocation-free
	// (TestSubmitRecorderBoundedAlloc pins it).
	Recorder *obs.Recorder
}

// Validator is JURY's out-of-band response validator: the paper's single
// decision loop (Algorithm 1, §IV-C). Ψ, the pending map, the timers and
// the adaptive-timeout estimator have one writer — the goroutine that owns
// the engine and calls Submit; internal/shard multiplies whole validators
// across goroutines when one loop is not enough. The accessors read
// atomics and immutable snapshots, so they are safe to call while another
// goroutine owns the decision loop (the shard plane's stats side does).
type Validator struct {
	eng     *simnet.Engine
	cfg     ValidatorConfig
	members *cluster.Membership
	reg     *obs.Registry
	tracer  *obs.Tracer
	rec     *obs.Recorder

	// Policy is the optional POLICY_CHECK hook.
	Policy PolicyFunc
	// NonDetExempt, when set, marks responses from applications known to
	// be non-deterministic: conflicting slots whose primary response is
	// exempt are labeled non-deterministic instead of faulty. This
	// implements the mitigation the paper leaves as future work
	// (§VIII-2: "identify actions from non-deterministic applications").
	NonDetExempt func(Response) bool
	// OnTimeoutResponses, when set, observes the response set of every
	// trigger decided by timer expiry (diagnostics).
	OnTimeoutResponses func(id trigger.ID, responses []Response)
	// OnResult observes every decision.
	OnResult func(Result)

	// Ψ: each controller's last self-reported state snapshot.
	psi map[store.NodeID]psiState
	// pending maps a trigger to its open state or, once decided and until
	// the late-response grace window closes, to the shared tombstone tomb.
	pending map[trigger.ID]*pendingTrigger
	tomb    *pendingTrigger
	// graves closes each decided trigger's late-response grace window:
	// every window lasts max(2θτ, 1 s), so they close in decision order.
	graves *simnet.FIFO[trigger.ID]
	// free is the pool of recycled pendingTriggers; primary, slots, group
	// and rules are evaluate's scratch lists. They point into the trigger
	// being evaluated and are dead once evaluate returns.
	free    []*pendingTrigger
	primary []*entry
	slots   []*entry
	group   []*entry
	rules   []*entry

	// Adaptive timeout state (EWMA of consensus time and deviation).
	ewmaMean float64
	ewmaDev  float64
	ewmaInit bool

	// Aggregates. They live in the obs registry so a live /metrics
	// endpoint can scrape them; the accessors below are thin reads over
	// the same instances. Validators handed one registry (the shard
	// plane's workers) share them, so every read is the registry's total.
	Detections *obs.Histogram // detection time per decided trigger
	// DetectionsExternal records detection time for external triggers
	// only (the population of Figs. 4a-4d).
	DetectionsExternal *obs.Histogram
	totalDecided       *obs.Counter
	totalValid         *obs.Counter
	totalFaults        *obs.Counter
	totalNonDet        *obs.Counter
	totalTimeouts      *obs.Counter
	lateResponses      *obs.Counter
	// pendingG counts open pending entries; an atomic gauge, so Pending()
	// is safe under concurrent Submit.
	pendingG *obs.Gauge
	// alarms retains fault results as a single-writer snapshot log, so
	// Alarms() is safe under concurrent Submit.
	alarms obs.Log[Result]
}

// NewValidator creates a validator. members provides governance information
// for destination and sanity checks.
func NewValidator(eng *simnet.Engine, members *cluster.Membership, cfg ValidatorConfig) *Validator {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 250 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	v := &Validator{
		eng:     eng,
		cfg:     cfg,
		members: members,
		reg:     reg,
		tracer:  cfg.Tracer,
		rec:     cfg.Recorder,
		psi:     make(map[store.NodeID]psiState),
		pending: make(map[trigger.ID]*pendingTrigger),
		tomb:    &pendingTrigger{},
	}
	v.graves = simnet.NewFIFO(eng, max(2*cfg.Timeout, time.Second), v.bury)
	v.totalDecided = reg.Counter("jury_validator_decided_total", "Triggers decided.")
	v.totalValid = reg.Counter("jury_validator_valid_total", "Triggers judged valid.")
	v.totalFaults = reg.Counter("jury_validator_faults_total", "Alarms raised (fault verdicts).")
	v.totalNonDet = reg.Counter("jury_validator_nondeterministic_total", "Triggers labeled non-deterministic.")
	v.totalTimeouts = reg.Counter("jury_validator_timeouts_total", "Decisions forced by timer expiry.")
	v.lateResponses = reg.Counter("jury_validator_late_responses_total", "Responses arriving after the verdict.")
	v.pendingG = reg.Gauge("jury_validator_pending", "Triggers awaiting decision.")
	v.Detections = reg.Histogram("jury_validator_detection_seconds", "Detection time per decided trigger.")
	v.DetectionsExternal = reg.Histogram("jury_validator_detection_external_seconds", "Detection time for external triggers (Figs. 4a-4d).")
	return v
}

// Metrics returns the registry holding the validator's counters, for
// exposition.
func (v *Validator) Metrics() *obs.Registry { return v.reg }

// Recorder returns the flight recorder (nil when recording is disabled).
func (v *Validator) Recorder() *obs.Recorder { return v.rec }

// Config returns the validator configuration.
func (v *Validator) Config() ValidatorConfig { return v.cfg }

// Decided returns the number of triggers decided.
func (v *Validator) Decided() int64 { return v.totalDecided.Value() }

// Valid returns the number of triggers judged valid.
func (v *Validator) Valid() int64 { return v.totalValid.Value() }

// Faults returns the number of alarms raised.
func (v *Validator) Faults() int64 { return v.totalFaults.Value() }

// NonDeterministic returns the number of triggers labeled non-deterministic.
func (v *Validator) NonDeterministic() int64 { return v.totalNonDet.Value() }

// Timeouts returns the number of decisions forced by timer expiry.
func (v *Validator) Timeouts() int64 { return v.totalTimeouts.Value() }

// LateResponses returns the number of responses that arrived after their
// trigger's verdict.
func (v *Validator) LateResponses() int64 { return v.lateResponses.Value() }

// Pending returns the number of triggers awaiting decision (including
// decided entries inside their late-response grace window). Backed by an
// atomic gauge, so it is safe to call from outside the goroutine that owns
// the decision loop.
func (v *Validator) Pending() int { return int(v.pendingG.Value()) }

// Alarms returns the retained alarm results in decision order. The list
// is an immutable snapshot published by the decision loop, so concurrent
// Submit traffic on the owning goroutine cannot race a reader.
func (v *Validator) Alarms() []Result {
	return v.alarms.Snapshot()
}

// FalsePositiveRate returns alarms / decisions — meaningful on benign runs.
func (v *Validator) FalsePositiveRate() float64 {
	decided := v.totalDecided.Value()
	if decided == 0 {
		return 0
	}
	return float64(v.totalFaults.Value()) / float64(decided)
}

// evaluate implements the consensus core. When final is false it only
// reports conclusive early outcomes; at expiry (final=true) it always
// returns a result. While a trigger is still short of its response
// complement the answer comes from the per-trigger counters alone.
func (v *Validator) evaluate(p *pendingTrigger, final bool) (Result, bool) {
	kind := trigger.Internal
	if p.taintedResponders > 0 || len(p.entries) > v.cfg.K+2 {
		kind = trigger.External
	}
	res := Result{Kind: kind, Verdict: VerdictValid}

	primaryID := p.primary

	if p.primaryEntries == 0 {
		if !final {
			// No-op consensus: every one of the k replicated executions
			// completed without side-effects, so the expected primary
			// behaviour is silence; nothing further to wait for.
			if kind == trigger.External && p.taintedResponders >= v.cfg.K &&
				p.withEffects == 0 {
				return res, true
			}
			return Result{}, false
		}
		if kind == trigger.External && p.taintedResponders > 0 {
			// A primary producing no side-effects is indistinguishable
			// from one that never responded — unless the secondaries'
			// replicated executions were also side-effect-free, in which
			// case the consensus is a legitimate no-op. A single
			// secondary with side-effects may simply have replayed from
			// stale state, so conviction requires a quorum of
			// secondaries agreeing that action was required, at least
			// one of them executing from the primary's last known state
			// (state-aware omission, §IV-C A).
			if p.withEffects < quorumOf(v.cfg.K) {
				return res, true
			}
			// State-aware mitigation (§IV-C A), applied to network-only
			// evidence: deliveries (PACKET_OUTs) depend on lookups that
			// race with store replication, so they convict only when
			// some effect-producing secondary executed from the
			// primary's last known state (Ψ[primary] at trigger open).
			// Cache-write evidence is the deterministic, state-logged
			// action class the paper validates and convicts directly.
			if !v.cfg.NoStateAware && !cacheEffectsPresent(p) &&
				p.primaryPsiSet && p.primaryPsi.seen &&
				!effectFromState(p, p.primaryPsi.digest) {
				return res, true
			}
			// Secondaries produced side-effects; the primary never did:
			// response omission or timing fault; the lack of taint
			// identifies the offender (§VII-A1(1)).
			res.Verdict = VerdictFault
			res.Fault = FaultOmission
			res.Offender = primaryID
			res.Reason = "no primary response before validation timeout"
			return res, true
		}
		// Internal trigger with no responses should not happen (the
		// trigger exists because a response arrived); treat as valid.
		return res, true
	}

	// The paper's validator waits for responses from all replicas before
	// checking for controllers with equivalent network view (§VII-A): an
	// early decision on an external trigger therefore requires the full
	// complement of k replicated executions, which is what makes detection
	// time grow with k and with slow (faulty) replicas.
	if kind == trigger.External && !final && p.taintedResponders < v.cfg.K {
		return Result{}, false
	}
	primary := v.primaryResponses(p)
	var conclusive bool
	if kind == trigger.External {
		res, conclusive = v.consensusExternal(p, primary, quorumOf(v.cfg.K), final)
	} else {
		res, conclusive = v.consensusInternal(p, primary, final)
	}
	if !conclusive {
		return Result{}, false
	}
	if res.Verdict == VerdictFault {
		res.Kind = kind
		return res, true
	}

	// SANITY_CHECK: network writes must be consistent with cache state.
	sres, bad, complete := v.sanityCheck(primary, final)
	if bad {
		sres.Kind = kind
		return sres, true
	}
	if !final && !complete {
		return Result{}, false
	}

	// POLICY_CHECK on the primary's responses.
	if v.Policy != nil {
		for _, pr := range primary {
			if name, violated := v.Policy(kind, primaryID, pr.r); violated {
				return Result{
					Kind:     kind,
					Verdict:  VerdictFault,
					Fault:    FaultPolicy,
					Offender: primaryID,
					Reason:   "policy violation: " + name,
				}, true
			}
		}
	}
	res.Kind = kind
	return res, true
}

// primaryResponses collects the primary's responses (isPrimaryEntry) into
// the validator's scratch list: the primary controller's own first, then
// other controllers' network writes in controller-ID order — the sanity
// check's first-mismatch verdict depends on this order.
func (v *Validator) primaryResponses(p *pendingTrigger) []*entry {
	out := v.primary[:0]
	for i := range p.entries {
		if e := &p.entries[i]; !e.r.Tainted && e.r.Controller == p.primary {
			out = append(out, e)
		}
	}
	own := len(out)
	for i := range p.entries {
		e := &p.entries[i]
		if e.r.Tainted || e.r.Controller == p.primary || e.r.Kind != NetworkWrite {
			continue
		}
		// Stable insertion by controller ID keeps arrival order within
		// one controller.
		j := len(out)
		out = append(out, e)
		for ; j > own && out[j-1].r.Controller > e.r.Controller; j-- {
			out[j] = out[j-1]
		}
		out[j] = e
	}
	v.primary = out
	return out
}

// slotsOf collects, from the primary's responses that pass keep, one entry
// per slot — the last in primary order, as a later write supersedes an
// earlier one — sorted by slot: per-slot verdict loops report the first
// faulting slot, so evaluation order must not depend on arrival order.
func (v *Validator) slotsOf(primary []*entry, keep func(*Response) bool) []*entry {
	out := v.slots[:0]
next:
	for _, e := range primary {
		if !keep(&e.r) {
			continue
		}
		for i, o := range out {
			if o.slot == e.slot {
				out[i] = e
				continue next
			}
		}
		j := len(out)
		out = append(out, e)
		for ; j > 0 && out[j-1].slot > e.slot; j-- {
			out[j] = out[j-1]
		}
		out[j] = e
	}
	v.slots = out
	return out
}

// consensusExternal validates the primary's side-effects against the
// independent replicated executions of the secondaries, slot by slot.
func (v *Validator) consensusExternal(p *pendingTrigger, primary []*entry, quorum int, final bool) (Result, bool) {
	slots := v.slotsOf(primary, func(r *Response) bool {
		// FLOW_MODs materialize from the flow cache, which secondaries
		// never write (side-effect suppression), so no replicated
		// execution can vouch for this slot directly: it is validated
		// against the replicated cache copies by SANITY_CHECK instead.
		if r.Kind == NetworkWrite {
			return r.MsgType != openflow.TypeFlowMod
		}
		return r.Kind == CacheUpdate
	})
	if len(slots) == 0 {
		// Primary reported only no-ops; nothing to validate.
		return Result{Verdict: VerdictValid}, final
	}
	allAgreed := true
	for _, pr := range slots {
		agree, sameStateConflicts, anyConflicts := v.tally(p, pr)
		// A conflicting quorum is reached either by secondaries sharing
		// the primary's pre-trigger state, or by a group of secondaries
		// with equivalent views among themselves that independently
		// computed the same different answer.
		group := 0
		if anyConflicts > 0 {
			group = v.conflictGroup(p, pr)
		}
		if group > sameStateConflicts {
			sameStateConflicts = group
		}
		if sameStateConflicts >= quorum {
			// Known non-deterministic applications are exempt from
			// conviction (§VIII-2 future work).
			if v.NonDetExempt != nil && v.NonDetExempt(pr.r) {
				return Result{Verdict: VerdictNonDeterministic}, true
			}
			// Non-determinism check (§IV-C B): when every response on
			// the slot is pairwise distinct, the application logic is
			// non-deterministic and the action is labeled non-faulty
			// rather than convicted.
			if allDistinct(p, pr.slot) {
				return Result{Verdict: VerdictNonDeterministic}, true
			}
			return Result{
				Verdict:  VerdictFault,
				Fault:    FaultValue,
				Offender: p.primary,
				Reason:   fmt.Sprintf("slot %s: %d same-state replicas contradict the primary", pr.slot, sameStateConflicts),
			}, true
		}
		if agree+1 < quorum { // +1 for the primary itself
			allAgreed = false
			if final {
				// Non-determinism check (§IV-C B): all responses on this
				// slot pairwise distinct → non-deterministic app logic.
				if allDistinct(p, pr.slot) {
					return Result{Verdict: VerdictNonDeterministic}, true
				}
				// Only same-state counter-evidence convicts: replicas
				// whose snapshot differed from the primary's are
				// excluded to avert false positives from transient
				// state asynchrony (§IV-C A).
				counter := sameStateConflicts + sameStateNoops(p, pr)
				if group > counter {
					counter = group
				}
				if counter >= quorum {
					return Result{
						Verdict:  VerdictFault,
						Fault:    FaultValue,
						Offender: p.primary,
						Reason:   fmt.Sprintf("slot %s: majority of same-state replicas disagree with the primary", pr.slot),
					}, true
				}
				// Insufficient counter-evidence: accept.
			}
		}
	}
	if !allAgreed && !final {
		return Result{}, false
	}
	return Result{Verdict: VerdictValid}, true
}

// consensusInternal validates internal triggers: the k+1 cache-update
// copies must agree (they are replicas of one event, so disagreement means
// corruption in flight or at a replica).
func (v *Validator) consensusInternal(p *pendingTrigger, primary []*entry, final bool) (Result, bool) {
	for _, pr := range v.slotsOf(primary, func(r *Response) bool { return r.Kind == CacheUpdate }) {
		for i := range p.entries {
			e := &p.entries[i]
			if e.r.Controller == p.primary || e.r.Kind != CacheUpdate || e.slot != pr.slot {
				continue
			}
			if e.body != pr.body {
				return Result{
					Verdict:  VerdictFault,
					Fault:    FaultValue,
					Offender: p.primary,
					Reason:   fmt.Sprintf("slot %s: replica cache copies diverge", pr.slot),
				}, true
			}
		}
	}
	// An internal trigger's response complement is not knowable up
	// front (more cache writes may still arrive), so a clean verdict
	// waits for the timer (Algorithm 1 decides internal triggers at
	// expiry).
	return Result{Verdict: VerdictValid}, final
}

// tally counts, for one of the primary's slots, the secondaries agreeing
// with the primary's body and the conflicting ones (split by state
// equivalence, §IV-C A). A controller with any matching response agrees.
func (v *Validator) tally(p *pendingTrigger, pr *entry) (agree, sameStateConflicts, anyConflicts int) {
	for i := range p.ctrls {
		c := &p.ctrls[i]
		c.matched, c.conflicted, c.sameState = false, false, false
	}
	for i := range p.entries {
		e := &p.entries[i]
		if e.r.Controller == p.primary || e.r.Kind == ExecDone || e.slot != pr.slot {
			continue
		}
		c := &p.ctrls[e.ctrl]
		if e.body == pr.body {
			c.matched = true
			continue
		}
		c.conflicted = true
		if v.cfg.NoStateAware || equivState(&e.r, &pr.r) {
			c.sameState = true
		}
	}
	for i := range p.ctrls {
		switch c := &p.ctrls[i]; {
		case c.matched:
			agree++
		case c.conflicted:
			anyConflicts++
			if c.sameState {
				sameStateConflicts++
			}
		}
	}
	return agree, sameStateConflicts, anyConflicts
}

// conflictGroup returns the size of the largest set of secondaries that
// disagree with the primary on a slot while agreeing with each other on
// both the response body and their own state snapshot — an
// equivalent-view consensus contradicting the primary.
func (v *Validator) conflictGroup(p *pendingTrigger, pr *entry) int {
	cand := v.group[:0]
	for i := range p.entries {
		e := &p.entries[i]
		if e.r.Controller == p.primary || e.r.Kind == ExecDone || e.slot != pr.slot || e.body == pr.body {
			continue
		}
		// Group conviction applies to cache slots, where the
		// per-entry prior value pins the view the group acted from;
		// network responses (deliveries) depend on racy lookups and
		// only count when their whole-store snapshot matches the
		// primary's (handled by the per-replica tally).
		if !e.r.IsCache() && !v.cfg.NoStateAware && !equivState(&e.r, &pr.r) {
			continue
		}
		// A group of replicas that is *behind* the primary (fewer
		// events applied at replay time) merely replayed from stale
		// state; only groups at least as current as the primary can
		// contradict it.
		if !v.cfg.NoStateAware && e.r.StateApplied < pr.r.StateApplied {
			continue
		}
		cand = append(cand, e)
	}
	v.group = cand
	for i := range p.ctrls {
		p.ctrls[i].mark = 0
	}
	best := 0
	for i, a := range cand {
		// Distinct controllers among the candidates sharing a's body and
		// view; mark stamps a controller as counted for group i.
		size := 0
		for _, b := range cand {
			if c := &p.ctrls[b.ctrl]; c.mark != i+1 && b.body == a.body && sameView(&a.r, &b.r) {
				c.mark = i + 1
				size++
			}
		}
		if size > best {
			best = size
		}
	}
	return best
}

// equivState reports whether two responses were produced from equivalent
// views: for cache writes, both responders saw the same prior value of the
// acted-on entry (the per-entry refinement of Ψ's "latest update"); for
// other responses, the whole-store snapshot digests must match.
func equivState(a, b *Response) bool {
	if isCache(a) && isCache(b) {
		return a.PrevOK == b.PrevOK && a.Prev == b.Prev
	}
	return a.StateDigest == b.StateDigest
}

// sameView reports whether two responses on one slot belong to the same
// conflict group: cache writes by the acted-on entry's prior value (any two
// absent priors are one view), other responses by snapshot digest.
func sameView(a, b *Response) bool {
	if isCache(a) != isCache(b) {
		return false
	}
	if !isCache(a) {
		return a.StateDigest == b.StateDigest
	}
	return a.PrevOK == b.PrevOK && (!a.PrevOK || a.Prev == b.Prev)
}

// sameStateNoops counts the distinct secondaries that reported a no-op
// execution from the same pre-trigger state as the primary's response; a
// retransmitted ExecDone is still one controller's testimony.
func sameStateNoops(p *pendingTrigger, pr *entry) int {
	for i := range p.ctrls {
		p.ctrls[i].mark = 0
	}
	count := 0
	for i := range p.entries {
		e := &p.entries[i]
		if e.r.Kind == ExecDone && e.r.StateDigest == pr.r.StateDigest && p.ctrls[e.ctrl].mark == 0 {
			p.ctrls[e.ctrl].mark = 1
			count++
		}
	}
	return count
}

// quorumOf returns the majority threshold over the k+1 participants.
func quorumOf(k int) int { return k/2 + 1 }

// cacheEffectsPresent reports whether any replicated execution produced a
// cache-write side-effect.
func cacheEffectsPresent(p *pendingTrigger) bool {
	for i := range p.entries {
		if r := &p.entries[i].r; r.Tainted && r.Kind != ExecDone && r.IsCache() {
			return true
		}
	}
	return false
}

// effectFromState reports whether some side-effect-producing secondary
// executed from the given state snapshot.
func effectFromState(p *pendingTrigger, digest uint64) bool {
	for i := range p.entries {
		if r := &p.entries[i].r; r.Tainted && r.Kind != ExecDone && r.StateDigest == digest {
			return true
		}
	}
	return false
}

// allDistinct reports whether every response on a slot has a unique body
// (and there is more than one).
func allDistinct(p *pendingTrigger, slot string) bool {
	n := 0
	for i := range p.entries {
		e := &p.entries[i]
		if e.slot != slot || e.r.Kind == ExecDone {
			continue
		}
		n++
		for j := 0; j < i; j++ {
			if o := &p.entries[j]; o.slot == slot && o.r.Kind != ExecDone && o.body == e.body {
				return false
			}
		}
	}
	return n > 1
}

// sanityCheck asserts cache/network consistency for the primary's
// responses: every non-delete FlowsDB cache write must be matched by an
// equivalent FLOW_MOD on the network, and every FLOW_MOD must be backed by
// a cache write (§II-A3). A cache write's expected FLOW_MOD (entry.netBody)
// and a FLOW_MOD's own body are the same canonical form.
func (v *Validator) sanityCheck(primary []*entry, final bool) (res Result, bad, complete bool) {
	// rules: the cache writes still waiting for their FLOW_MOD, one per
	// distinct expected FLOW_MOD, sorted by it.
	rules := v.rules[:0]
next:
	for _, e := range primary {
		if e.r.Kind != CacheUpdate || e.netBody == "" {
			continue
		}
		j := len(rules)
		for i, o := range rules {
			if o.netBody == e.netBody {
				continue next
			}
			if o.netBody > e.netBody && j == len(rules) {
				j = i
			}
		}
		rules = append(rules, nil)
		copy(rules[j+1:], rules[j:])
		rules[j] = e
	}
	v.rules = rules
	// Every FLOW_MOD must correspond to a cache rule.
	for _, nw := range primary {
		if nw.r.Kind != NetworkWrite || nw.r.MsgType != openflow.TypeFlowMod {
			continue
		}
		matched := false
		for i, o := range rules {
			if o.netBody == nw.body {
				rules = append(rules[:i], rules[i+1:]...)
				matched = true
				break
			}
		}
		if matched {
			continue
		}
		if len(rules) > 0 {
			// A cache rule exists but the network write differs: the
			// network write is inconsistent with the replicated cache
			// state (T2, e.g. the undesirable-FLOW_MOD fault).
			return Result{
				Verdict:  VerdictFault,
				Fault:    FaultInconsistent,
				Offender: nw.r.Controller,
				Reason:   fmt.Sprintf("FLOW_MOD to %s disagrees with FlowsDB state", nw.r.DPID),
			}, true, true
		}
		return Result{
			Verdict:  VerdictFault,
			Fault:    FaultNetworkOnly,
			Offender: nw.r.Controller,
			Reason:   fmt.Sprintf("FLOW_MOD to %s without any cache update", nw.r.DPID),
		}, true, true
	}
	// Remaining cache rules lack their FLOW_MOD. Before the timeout this
	// just means we must keep waiting; at expiry it is a T2 fault when the
	// target switch has a live master that should have acted. The rules
	// are sorted, so the same orphaned rule is convicted on every run.
	if len(rules) > 0 && !final {
		return Result{}, false, false
	}
	for _, cr := range rules {
		if master, ok := v.members.Master(cr.netDPID); ok && v.members.IsAlive(master) {
			return Result{
				Verdict:  VerdictFault,
				Fault:    FaultMissingNetwork,
				Offender: master,
				Reason:   fmt.Sprintf("FlowsDB rule for %s never written to the network", cr.netDPID),
			}, true, true
		}
	}
	return Result{}, false, true
}
