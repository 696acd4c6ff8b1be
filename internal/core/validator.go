package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/metrics"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
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
	DetectionTime time.Duration // vclock:wire -- protocol time base is virtual ns
	DecidedAt     time.Duration // vclock:wire -- protocol time base is virtual ns
	TimedOut      bool
	// Evidence carries the responses behind a fault verdict (bounded),
	// the diagnostics the paper presents to the administrator (§V).
	Evidence []Response `json:"evidence,omitempty"`
}

// PolicyFunc evaluates administrator policies against one primary response
// (POLICY_CHECK in Algorithm 1). It returns the name of a violated policy.
type PolicyFunc func(kind trigger.Kind, primary store.NodeID, r Response) (violation string, violated bool)

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
	// latency as mean + AdaptiveFactor·deviation.
	Adaptive       bool
	AdaptiveFactor float64
	// MaxAlarms bounds the retained alarm list.
	MaxAlarms int
	// NoStateAware disables the state-aware consensus refinements
	// (§IV-C A) — an ablation knob: all conflicting replicas count
	// toward conviction regardless of their snapshots, and omission
	// exemptions are skipped. Expect higher false-positive rates under
	// eventually-consistent churn.
	NoStateAware bool
	// Metrics receives the validator's counters and detection-time
	// distributions; nil falls back to a private registry so the accessor
	// methods keep working with nothing scraped.
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

	// Ψ: per-controller state (running count + latest entry digest).
	psi     map[store.NodeID]psiState
	pending map[trigger.ID]*pendingTrigger

	// Adaptive timeout state (EWMA of consensus time and deviation).
	ewmaMean float64
	ewmaDev  float64
	ewmaInit bool

	// Aggregates. The counters live in the obs registry so a live
	// /metrics endpoint can scrape them; the accessors below are thin
	// reads over the same instances.
	Detections metrics.Distribution // detection time per decided trigger
	// DetectionsExternal records detection time for external triggers
	// only (the population of Figs. 4a-4d).
	DetectionsExternal metrics.Distribution
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
	if cfg.MaxAlarms <= 0 {
		cfg.MaxAlarms = 16384
	}
	if cfg.AdaptiveFactor <= 0 {
		cfg.AdaptiveFactor = 4
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
	}
	v.totalDecided = reg.Counter("jury_validator_decided_total", "Triggers decided.")
	v.totalValid = reg.Counter("jury_validator_valid_total", "Triggers judged valid.")
	v.totalFaults = reg.Counter("jury_validator_faults_total", "Alarms raised (fault verdicts).")
	v.totalNonDet = reg.Counter("jury_validator_nondeterministic_total", "Triggers labeled non-deterministic.")
	v.totalTimeouts = reg.Counter("jury_validator_timeouts_total", "Decisions forced by timer expiry.")
	v.lateResponses = reg.Counter("jury_validator_late_responses_total", "Responses arriving after the verdict.")
	v.pendingG = reg.Gauge("jury_validator_pending", "Triggers awaiting decision.")
	reg.Histogram("jury_validator_detection_seconds", "Detection time per decided trigger.", &v.Detections)
	reg.Histogram("jury_validator_detection_external_seconds", "Detection time for external triggers (Figs. 4a-4d).", &v.DetectionsExternal)
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
// returns a result.
func (v *Validator) evaluate(p *pendingTrigger, final bool) (Result, bool) {
	kind := trigger.Internal
	if p.tainted || p.responses > v.cfg.K+2 {
		kind = trigger.External
	}
	res := Result{Kind: kind, Verdict: VerdictValid}

	primaryID := p.primary
	primary := v.primaryResponses(p, primaryID)

	if len(primary) == 0 {
		if !final {
			// No-op consensus: every one of the k replicated executions
			// completed without side-effects, so the expected primary
			// behaviour is silence; nothing further to wait for.
			if kind == trigger.External && v.taintedResponders(p) >= v.cfg.K &&
				v.secondariesWithEffects(p) == 0 {
				return res, true
			}
			return Result{}, false
		}
		if kind == trigger.External && p.tainted {
			// A primary producing no side-effects is indistinguishable
			// from one that never responded — unless the secondaries'
			// replicated executions were also side-effect-free, in which
			// case the consensus is a legitimate no-op. A single
			// secondary with side-effects may simply have replayed from
			// stale state, so conviction requires a quorum of
			// secondaries agreeing that action was required, at least
			// one of them executing from the primary's last known state
			// (state-aware omission, §IV-C A).
			if v.secondariesWithEffects(p) < quorumOf(v.cfg.K) {
				return res, true
			}
			// State-aware mitigation (§IV-C A), applied to network-only
			// evidence: deliveries (PACKET_OUTs) depend on lookups that
			// race with store replication, so they convict only when
			// some effect-producing secondary executed from the
			// primary's last known state (Ψ[primary] at trigger open).
			// Cache-write evidence is the deterministic, state-logged
			// action class the paper validates and convicts directly.
			if !v.cfg.NoStateAware && !v.cacheEffectsPresent(p) &&
				p.primaryPsiSet && p.primaryPsi.seen &&
				!v.effectFromState(p, p.primaryPsi.digest) {
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

	quorum := quorumOf(v.cfg.K)

	switch kind {
	case trigger.External:
		// The paper's validator waits for responses from all replicas
		// before checking for controllers with equivalent network view
		// (§VII-A): an early decision therefore requires the full
		// complement of k replicated executions, which is what makes
		// detection time grow with k and with slow (faulty) replicas.
		if !final && v.taintedResponders(p) < v.cfg.K {
			return Result{}, false
		}
		r, conclusive := v.consensusExternal(p, primary, primaryID, quorum, final)
		if !conclusive {
			return Result{}, false
		}
		res = r
	default:
		r, conclusive := v.consensusInternal(p, primary, primaryID, quorum, final)
		if !conclusive {
			return Result{}, false
		}
		res = r
	}
	if res.Verdict == VerdictFault {
		res.Kind = kind
		return res, true
	}

	// SANITY_CHECK: network writes must be consistent with cache state.
	sres, bad, complete := v.sanityCheck(p, primary, final)
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
			if name, violated := v.Policy(kind, primaryID, pr); violated {
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

// primaryResponses collects the primary controller's own (untainted)
// responses.
func (v *Validator) primaryResponses(p *pendingTrigger, primaryID store.NodeID) []Response {
	var out []Response
	for _, r := range p.byController[primaryID] {
		if !r.Tainted {
			out = append(out, r)
		}
	}
	// Untainted responses from other controllers (e.g. the master of a
	// remote switch materializing the primary's FlowsDB write) also count
	// as authoritative cluster actions for this trigger. Controllers are
	// visited in ID order: the collected responses feed the sanity check,
	// whose first-mismatch verdict depends on their order.
	for _, id := range controllerIDs(p) {
		if id == primaryID {
			continue
		}
		for _, r := range p.byController[id] {
			if !r.Tainted && r.Kind == NetworkWrite {
				out = append(out, r)
			}
		}
	}
	return out
}

// controllerIDs returns the trigger's responders in sorted order so
// order-sensitive consumers visit controllers deterministically.
func controllerIDs(p *pendingTrigger) []store.NodeID {
	ids := make([]store.NodeID, 0, len(p.byController))
	for id := range p.byController {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sortedKeys returns a response map's keys in sorted order; per-slot
// verdict loops report the first faulting slot, so evaluation order must
// not depend on map iteration.
func sortedKeys(m map[string]Response) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// consensusExternal validates the primary's side-effects against the
// independent replicated executions of the secondaries, slot by slot.
func (v *Validator) consensusExternal(p *pendingTrigger, primary []Response, primaryID store.NodeID, quorum int, final bool) (Result, bool) {
	slots := make(map[string]Response)
	for _, r := range primary {
		if r.Kind == NetworkWrite && r.MsgType == openflow.TypeFlowMod {
			// FLOW_MODs materialize from the flow cache, which
			// secondaries never write (side-effect suppression), so no
			// replicated execution can vouch for this slot directly:
			// it is validated against the replicated cache copies by
			// SANITY_CHECK instead.
			continue
		}
		if r.Kind == CacheUpdate || r.Kind == NetworkWrite {
			slots[r.Slot()] = r
		}
	}
	if len(slots) == 0 {
		// Primary reported only no-ops; nothing to validate.
		return Result{Verdict: VerdictValid}, final
	}
	allAgreed := true
	for _, slot := range sortedKeys(slots) {
		pr := slots[slot]
		agree, sameStateConflicts, _ := v.tally(p, pr, slot, primaryID)
		// A conflicting quorum is reached either by secondaries sharing
		// the primary's pre-trigger state, or by a group of secondaries
		// with equivalent views among themselves that independently
		// computed the same different answer.
		if g := v.conflictGroup(p, pr, slot, primaryID); g > sameStateConflicts {
			sameStateConflicts = g
		}
		if sameStateConflicts >= quorum {
			// Known non-deterministic applications are exempt from
			// conviction (§VIII-2 future work).
			if v.NonDetExempt != nil && v.NonDetExempt(pr) {
				return Result{Verdict: VerdictNonDeterministic}, true
			}
			// Non-determinism check (§IV-C B): when every response on
			// the slot is pairwise distinct, the application logic is
			// non-deterministic and the action is labeled non-faulty
			// rather than convicted.
			if v.allDistinct(p, slot) {
				return Result{Verdict: VerdictNonDeterministic}, true
			}
			return Result{
				Verdict:  VerdictFault,
				Fault:    FaultValue,
				Offender: primaryID,
				Reason:   fmt.Sprintf("slot %s: %d same-state replicas contradict the primary", slot, sameStateConflicts),
			}, true
		}
		if agree+1 < quorum { // +1 for the primary itself
			allAgreed = false
			if final {
				// Non-determinism check (§IV-C B): all responses on this
				// slot pairwise distinct → non-deterministic app logic.
				if v.allDistinct(p, slot) {
					return Result{Verdict: VerdictNonDeterministic}, true
				}
				// Only same-state counter-evidence convicts: replicas
				// whose snapshot differed from the primary's are
				// excluded to avert false positives from transient
				// state asynchrony (§IV-C A).
				counter := sameStateConflicts + v.sameStateNoops(p, pr)
				if g := v.conflictGroup(p, pr, slot, primaryID); g > counter {
					counter = g
				}
				if counter >= quorum {
					return Result{
						Verdict:  VerdictFault,
						Fault:    FaultValue,
						Offender: primaryID,
						Reason:   fmt.Sprintf("slot %s: majority of same-state replicas disagree with the primary", slot),
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
func (v *Validator) consensusInternal(p *pendingTrigger, primary []Response, primaryID store.NodeID, quorum int, final bool) (Result, bool) {
	slots := make(map[string]Response)
	for _, r := range primary {
		if r.Kind == CacheUpdate {
			slots[r.Slot()] = r
		}
	}
	for _, slot := range sortedKeys(slots) {
		pr := slots[slot]
		conflicts := 0
		//jurylint:allow maprange -- commutative conflict count; visit order cannot change it
		for id, rs := range p.byController {
			if id == primaryID {
				continue
			}
			for _, r := range rs {
				if r.Kind != CacheUpdate || r.Slot() != slot {
					continue
				}
				if r.Body() != pr.Body() {
					conflicts++
				}
			}
		}
		if conflicts > 0 {
			return Result{
				Verdict:  VerdictFault,
				Fault:    FaultValue,
				Offender: primaryID,
				Reason:   fmt.Sprintf("slot %s: replica cache copies diverge", slot),
			}, true
		}
	}
	// An internal trigger's response complement is not knowable up
	// front (more cache writes may still arrive), so a clean verdict
	// waits for the timer (Algorithm 1 decides internal triggers at
	// expiry).
	if !final {
		return Result{}, false
	}
	_ = quorum
	return Result{Verdict: VerdictValid}, true
}

// tally counts, for one slot, secondaries agreeing with the primary's body
// and conflicting responses (split by state equivalence, §IV-C A).
func (v *Validator) tally(p *pendingTrigger, pr Response, slot string, primaryID store.NodeID) (agree, sameStateConflicts, anyConflicts int) {
	want := pr.Body()
	//jurylint:allow maprange -- commutative tally; per-controller counts do not depend on visit order
	for id, rs := range p.byController {
		if id == primaryID {
			continue
		}
		matched := false
		conflicted := false
		sameState := false
		for _, r := range rs {
			if r.Slot() != slot || r.Kind == ExecDone {
				continue
			}
			if r.Body() == want {
				matched = true
				continue
			}
			conflicted = true
			if v.cfg.NoStateAware || equivState(r, pr) {
				sameState = true
			}
		}
		switch {
		case matched:
			agree++
		case conflicted:
			anyConflicts++
			if sameState {
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
func (v *Validator) conflictGroup(p *pendingTrigger, pr Response, slot string, primaryID store.NodeID) int {
	want := pr.Body()
	groups := make(map[string]map[store.NodeID]bool)
	//jurylint:allow maprange -- commutative grouping; membership sets do not depend on visit order
	for id, rs := range p.byController {
		if id == primaryID {
			continue
		}
		for _, r := range rs {
			if r.Slot() != slot || r.Kind == ExecDone {
				continue
			}
			body := r.Body()
			if body == want {
				continue
			}
			// Group conviction applies to cache slots, where the
			// per-entry prior value pins the view the group acted from;
			// network responses (deliveries) depend on racy lookups and
			// only count when their whole-store snapshot matches the
			// primary's (handled by the per-replica tally).
			if !r.IsCache() && !v.cfg.NoStateAware && !equivState(r, pr) {
				continue
			}
			// A group of replicas that is *behind* the primary (fewer
			// events applied at replay time) merely replayed from stale
			// state; only groups at least as current as the primary can
			// contradict it.
			if !v.cfg.NoStateAware && r.StateApplied < pr.StateApplied {
				continue
			}
			key := fmt.Sprintf("%s|%s", stateKey(r), body)
			set := groups[key]
			if set == nil {
				set = make(map[store.NodeID]bool)
				groups[key] = set
			}
			set[id] = true
		}
	}
	best := 0
	//jurylint:allow maprange -- commutative max; visit order cannot change the largest size
	for _, set := range groups {
		if len(set) > best {
			best = len(set)
		}
	}
	return best
}

// equivState reports whether two responses were produced from equivalent
// views: for cache writes, both responders saw the same prior value of the
// acted-on entry (the per-entry refinement of Ψ's "latest update"); for
// other responses, the whole-store snapshot digests must match.
func equivState(a, b Response) bool {
	if a.IsCache() && b.IsCache() {
		return a.PrevOK == b.PrevOK && a.Prev == b.Prev
	}
	return a.StateDigest == b.StateDigest
}

// stateKey renders the comparable view of a response for grouping.
func stateKey(r Response) string {
	if r.IsCache() {
		if !r.PrevOK {
			return "absent"
		}
		return "prev:" + r.Prev
	}
	return fmt.Sprintf("digest:%x", r.StateDigest)
}

// sameStateNoops counts secondaries that reported a no-op execution from
// the same pre-trigger state as the primary's response.
func (v *Validator) sameStateNoops(p *pendingTrigger, pr Response) int {
	count := 0
	for _, r := range p.all {
		if r.Kind == ExecDone && r.StateDigest == pr.StateDigest {
			count++
		}
	}
	return count
}

// quorumOf returns the majority threshold over the k+1 participants.
func quorumOf(k int) int { return k/2 + 1 }

// taintedResponders counts distinct controllers that reported replicated
// execution (side-effects or ExecDone) for the trigger.
func (v *Validator) taintedResponders(p *pendingTrigger) int {
	count := 0
	//jurylint:allow maprange -- commutative count of distinct responders
	for id, rs := range p.byController {
		_ = id
		for _, r := range rs {
			if r.Tainted {
				count++
				break
			}
		}
	}
	return count
}

// cacheEffectsPresent reports whether any replicated execution produced a
// cache-write side-effect.
func (v *Validator) cacheEffectsPresent(p *pendingTrigger) bool {
	for _, r := range p.all {
		if r.Tainted && r.Kind != ExecDone && r.IsCache() {
			return true
		}
	}
	return false
}

// effectFromState reports whether some side-effect-producing secondary
// executed from the given state snapshot.
func (v *Validator) effectFromState(p *pendingTrigger, digest uint64) bool {
	for _, r := range p.all {
		if r.Tainted && r.Kind != ExecDone && r.StateDigest == digest {
			return true
		}
	}
	return false
}

// secondariesWithEffects counts distinct secondaries whose replicated
// execution produced at least one side-effect.
func (v *Validator) secondariesWithEffects(p *pendingTrigger) int {
	seen := make(map[store.NodeID]bool)
	for _, r := range p.all {
		if r.Tainted && r.Kind != ExecDone {
			seen[r.Controller] = true
		}
	}
	return len(seen)
}

// allDistinct reports whether every response on a slot has a unique body.
func (v *Validator) allDistinct(p *pendingTrigger, slot string) bool {
	seen := make(map[string]bool)
	for _, r := range p.all {
		if r.Slot() != slot || r.Kind == ExecDone {
			continue
		}
		if seen[r.Body()] {
			return false
		}
		seen[r.Body()] = true
	}
	return len(seen) > 1
}

// sanityCheck asserts cache/network consistency for the primary's
// responses: every non-delete FlowsDB cache write must be matched by an
// equivalent FLOW_MOD on the network, and every FLOW_MOD must be backed by
// a cache write (§II-A3).
func (v *Validator) sanityCheck(p *pendingTrigger, primary []Response, final bool) (res Result, bad, complete bool) {
	var (
		cacheRules = make(map[string]Response) // canonical net body -> cache response
		netWrites  []Response
	)
	for _, r := range primary {
		switch r.Kind {
		case CacheUpdate:
			if r.Cache == store.FlowsDB && r.Op != store.OpDelete {
				if body, dpid, ok := expectedNetBody(r); ok {
					cacheRules["net|"+dpid.String()+"|FLOW_MOD|"+body] = r
				}
			}
		case NetworkWrite:
			if r.MsgType == openflow.TypeFlowMod {
				netWrites = append(netWrites, r)
			}
		}
	}
	// Every FLOW_MOD must correspond to a cache rule.
	for _, nw := range netWrites {
		key := "net|" + nw.DPID.String() + "|FLOW_MOD|" + nw.MsgBody
		if _, ok := cacheRules[key]; ok {
			delete(cacheRules, key)
			continue
		}
		if len(cacheRules) > 0 {
			// A cache rule exists but the network write differs: the
			// network write is inconsistent with the replicated cache
			// state (T2, e.g. the undesirable-FLOW_MOD fault).
			return Result{
				Verdict:  VerdictFault,
				Fault:    FaultInconsistent,
				Offender: nw.Controller,
				Reason:   fmt.Sprintf("FLOW_MOD to %s disagrees with FlowsDB state", nw.DPID),
			}, true, true
		}
		return Result{
			Verdict:  VerdictFault,
			Fault:    FaultNetworkOnly,
			Offender: nw.Controller,
			Reason:   fmt.Sprintf("FLOW_MOD to %s without any cache update", nw.DPID),
		}, true, true
	}
	// Remaining cache rules lack their FLOW_MOD. Before the timeout this
	// just means we must keep waiting; at expiry it is a T2 fault when the
	// target switch has a live master that should have acted.
	if len(cacheRules) > 0 {
		if !final {
			return Result{}, false, false
		}
		// Sorted so the same orphaned rule is convicted on every run.
		for _, key := range sortedKeys(cacheRules) {
			cr := cacheRules[key]
			if rule, err := controller.DecodeFlowRule(cr.Value); err == nil {
				if master, ok := v.members.Master(rule.DPID); ok && v.members.IsAlive(master) {
					return Result{
						Verdict:  VerdictFault,
						Fault:    FaultMissingNetwork,
						Offender: master,
						Reason:   fmt.Sprintf("FlowsDB rule for %s never written to the network", rule.DPID),
					}, true, true
				}
			}
		}
	}
	return Result{}, false, true
}

// expectedNetBody derives the canonical FLOW_MOD body a FlowsDB cache
// entry should produce on the wire.
func expectedNetBody(r Response) (body string, dpid topo.DPID, ok bool) {
	rule, err := controller.DecodeFlowRule(r.Value)
	if err != nil {
		return "", 0, false
	}
	return CanonicalMessage(rule.FlowMod(0)), rule.DPID, true
}
