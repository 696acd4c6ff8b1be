package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

func newValidator(t *testing.T, k int) (*simnet.Engine, *Validator) {
	t.Helper()
	eng := simnet.NewEngine(1)
	var ids []store.NodeID
	for i := 1; i <= k+1; i++ {
		ids = append(ids, store.NodeID(i))
	}
	members := cluster.NewMembership(cluster.AnyControllerOneMaster, ids, []topo.DPID{1, 2})
	v := NewValidator(eng, members, ValidatorConfig{K: k, Timeout: 100 * time.Millisecond})
	return eng, v
}

func cacheResp(ctrl, primary store.NodeID, trig string, key, value string, digest uint64) Response {
	return Response{
		Controller:  ctrl,
		Primary:     primary,
		Trigger:     trigger.ID(trig),
		Kind:        CacheUpdate,
		Cache:       store.LinksDB,
		Op:          store.OpCreate,
		Key:         key,
		Value:       value,
		StateDigest: digest,
	}
}

func execResp(ctrl, primary store.NodeID, trig string, key, value string, digest uint64) Response {
	r := cacheResp(ctrl, primary, trig, key, value, digest)
	r.Kind = SecondaryExec
	r.Tainted = true
	return r
}

func doneResp(ctrl, primary store.NodeID, trig string, digest uint64) Response {
	return Response{
		Controller:  ctrl,
		Primary:     primary,
		Trigger:     trigger.ID(trig),
		Kind:        ExecDone,
		Tainted:     true,
		StateDigest: digest,
	}
}

func TestValidatorAgreementIsValid(t *testing.T) {
	eng, v := newValidator(t, 2)
	var results []Result
	v.OnResult = func(r Result) { results = append(results, r) }
	v.Submit(cacheResp(1, 1, "τ", "k", "up", 7))
	v.Submit(execResp(2, 1, "τ", "k", "up", 7))
	v.Submit(execResp(3, 1, "τ", "k", "up", 7))
	if len(results) != 1 {
		t.Fatalf("decided %d times, want early decision", len(results))
	}
	if results[0].Verdict != VerdictValid {
		t.Fatalf("verdict = %v (%s)", results[0].Verdict, results[0].Reason)
	}
	if results[0].TimedOut {
		t.Fatal("should not be a timeout decision")
	}
	_ = eng
}

func TestValidatorExternalClassification(t *testing.T) {
	_, v := newValidator(t, 2)
	var res Result
	v.OnResult = func(r Result) { res = r }
	v.Submit(cacheResp(1, 1, "τ", "k", "up", 7))
	v.Submit(execResp(2, 1, "τ", "k", "up", 7))
	v.Submit(execResp(3, 1, "τ", "k", "up", 7))
	if res.Kind != trigger.External {
		t.Fatalf("kind = %v, want external (tainted responses present)", res.Kind)
	}
}

func TestValidatorSameStateConflictIsFault(t *testing.T) {
	_, v := newValidator(t, 2)
	var res Result
	v.OnResult = func(r Result) { res = r }
	v.Submit(cacheResp(1, 1, "τ", "k", "down", 7)) // primary wrote "down"
	v.Submit(execResp(2, 1, "τ", "k", "up", 7))    // same state, disagree
	v.Submit(execResp(3, 1, "τ", "k", "up", 7))
	if res.Verdict != VerdictFault || res.Fault != FaultValue {
		t.Fatalf("verdict = %v/%v (%s)", res.Verdict, res.Fault, res.Reason)
	}
	if res.Offender != 1 {
		t.Fatalf("offender = C%d", res.Offender)
	}
}

func TestValidatorDifferentStateConflictExcluded(t *testing.T) {
	eng, v := newValidator(t, 2)
	var res *Result
	v.OnResult = func(r Result) { res = &r }
	v.Submit(cacheResp(1, 1, "τ", "k", "down", 7))
	// The secondaries replayed from a different view of the entry (they
	// had already seen a prior value the primary had not) and from
	// mutually different views, so neither the primary-relative nor the
	// group rule reaches a same-state quorum.
	a := execResp(2, 1, "τ", "k", "up", 8)
	a.Prev, a.PrevOK = "stale-a", true
	b := execResp(3, 1, "τ", "k", "up", 9)
	b.Prev, b.PrevOK = "stale-b", true
	v.Submit(a)
	v.Submit(b)
	if res != nil && res.Verdict == VerdictFault {
		t.Fatal("different-state conflicts must not convict early")
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no decision at timeout")
	}
	// At expiry the same-state count is still 0 < quorum: no conviction.
	if res.Verdict == VerdictFault {
		t.Fatalf("transient asynchrony convicted: %s", res.Reason)
	}
}

func TestValidatorOmissionDetected(t *testing.T) {
	eng, v := newValidator(t, 2)
	var res Result
	v.OnResult = func(r Result) { res = r }
	// Secondaries act from the primary's last known state; primary silent.
	v.Submit(Response{Controller: 1, Primary: 1, Trigger: "warm", Kind: CacheUpdate,
		Cache: store.HostDB, Key: "x", Value: "1", StateDigest: 7})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	v.Submit(execResp(2, 1, "τ", "k", "up", 7))
	v.Submit(execResp(3, 1, "τ", "k", "up", 7))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res.Trigger != "τ" {
		t.Fatalf("last decision for %s", res.Trigger)
	}
	if res.Verdict != VerdictFault || res.Fault != FaultOmission || res.Offender != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestValidatorNoOpConsensusValid(t *testing.T) {
	_, v := newValidator(t, 2)
	var res *Result
	v.OnResult = func(r Result) { res = &r }
	v.Submit(doneResp(2, 1, "τ", 7))
	v.Submit(doneResp(3, 1, "τ", 7))
	if res == nil {
		t.Fatal("no-op consensus should decide early")
	}
	if res.Verdict != VerdictValid {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestValidatorSingleLaggardDoesNotConvict(t *testing.T) {
	eng, v := newValidator(t, 2)
	var res Result
	v.OnResult = func(r Result) { res = r }
	// Only one secondary produced effects (< quorum of 2): stale replay.
	v.Submit(execResp(2, 1, "τ", "k", "up", 7))
	v.Submit(doneResp(3, 1, "τ", 8))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res.Verdict == VerdictFault {
		t.Fatalf("single laggard convicted the primary: %s", res.Reason)
	}
}

func TestValidatorNonDeterminism(t *testing.T) {
	eng, v := newValidator(t, 2)
	var res Result
	v.OnResult = func(r Result) { res = r }
	v.Submit(cacheResp(1, 1, "τ", "k", "a", 7))
	v.Submit(execResp(2, 1, "τ", "k", "b", 7))
	v.Submit(execResp(3, 1, "τ", "k", "c", 7))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictNonDeterministic {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Reason)
	}
}

func ruleFor(dpid topo.DPID, trig string, origin store.NodeID) controller.FlowRule {
	return controller.FlowRule{
		DPID:     dpid,
		Match:    openflow.ExactDst(topo.HostMAC(2)),
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
		Command:  uint16(openflow.FlowAdd),
		Trigger:  trigger.ID(trig),
		Origin:   origin,
	}
}

func flowCacheResp(ctrl, primary store.NodeID, trig string, rule controller.FlowRule, digest uint64) Response {
	return Response{
		Controller:  ctrl,
		Primary:     primary,
		Trigger:     trigger.ID(trig),
		Kind:        CacheUpdate,
		Cache:       store.FlowsDB,
		Op:          store.OpCreate,
		Key:         rule.Key(),
		Value:       rule.Encode(),
		StateDigest: digest,
	}
}

func flowExecResp(ctrl, primary store.NodeID, trig string, rule controller.FlowRule, digest uint64) Response {
	r := flowCacheResp(ctrl, primary, trig, rule, digest)
	r.Kind = SecondaryExec
	r.Tainted = true
	// Secondaries compute the rule themselves: origin differs but the
	// canonical body must match after normalization.
	return r
}

func netResp(ctrl, primary store.NodeID, trig string, rule controller.FlowRule) Response {
	return Response{
		Controller: ctrl,
		Primary:    primary,
		Trigger:    trigger.ID(trig),
		Kind:       NetworkWrite,
		DPID:       rule.DPID,
		MsgType:    openflow.TypeFlowMod,
		MsgBody:    CanonicalMessage(rule.FlowMod(0)),
	}
}

func TestValidatorSanityMatchedFlowMod(t *testing.T) {
	_, v := newValidator(t, 2)
	var res *Result
	v.OnResult = func(r Result) { res = &r }
	rule := ruleFor(1, "τ", 1)
	v.Submit(flowCacheResp(1, 1, "τ", rule, 7))
	v.Submit(flowExecResp(2, 1, "τ", rule, 7))
	v.Submit(flowExecResp(3, 1, "τ", rule, 7))
	if res != nil {
		t.Fatal("must wait for the FLOW_MOD before deciding")
	}
	v.Submit(netResp(1, 1, "τ", rule))
	if res == nil {
		t.Fatal("no decision after FLOW_MOD arrived")
	}
	if res.Verdict != VerdictValid {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Reason)
	}
}

func TestValidatorMissingFlowModIsT2(t *testing.T) {
	eng, v := newValidator(t, 2)
	var res Result
	v.OnResult = func(r Result) { res = r }
	rule := ruleFor(1, "τ", 1)
	v.Submit(flowCacheResp(1, 1, "τ", rule, 7))
	v.Submit(flowExecResp(2, 1, "τ", rule, 7))
	v.Submit(flowExecResp(3, 1, "τ", rule, 7))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictFault || res.Fault != FaultMissingNetwork {
		t.Fatalf("res = %v/%v (%s)", res.Verdict, res.Fault, res.Reason)
	}
	// Offender is the master of the rule's switch.
	if res.Offender == 0 {
		t.Fatal("no offender attributed")
	}
}

func TestValidatorInconsistentFlowModIsT2(t *testing.T) {
	_, v := newValidator(t, 2)
	var res *Result
	v.OnResult = func(r Result) { res = &r }
	rule := ruleFor(1, "τ", 1)
	bad := rule
	bad.Actions = nil // drop-all on the wire
	v.Submit(flowCacheResp(1, 1, "τ", rule, 7))
	v.Submit(flowExecResp(2, 1, "τ", rule, 7))
	v.Submit(flowExecResp(3, 1, "τ", rule, 7))
	v.Submit(netResp(1, 1, "τ", bad))
	if res == nil {
		t.Fatal("no decision")
	}
	if res.Fault != FaultInconsistent {
		t.Fatalf("fault = %v (%s)", res.Fault, res.Reason)
	}
}

func TestValidatorFlowModWithoutCacheIsFault(t *testing.T) {
	eng, v := newValidator(t, 2)
	var res Result
	v.OnResult = func(r Result) { res = r }
	rule := ruleFor(1, "τ", 1)
	v.Submit(netResp(1, 1, "τ", rule))
	v.Submit(doneResp(2, 1, "τ", 7))
	v.Submit(doneResp(3, 1, "τ", 7))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res.Fault != FaultNetworkOnly {
		t.Fatalf("fault = %v (%s)", res.Fault, res.Reason)
	}
}

func TestValidatorInternalTriggerDecidesAtTimer(t *testing.T) {
	eng, v := newValidator(t, 2)
	var res *Result
	v.OnResult = func(r Result) { res = &r }
	// Internal trigger: k+1 identical cache copies, no taint.
	v.Submit(cacheResp(1, 1, "τi", "k", "up", 7))
	v.Submit(cacheResp(2, 1, "τi", "k", "up", 8))
	v.Submit(cacheResp(3, 1, "τi", "k", "up", 9))
	if res != nil {
		t.Fatal("internal triggers must decide at the timer")
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Kind != trigger.Internal || res.Verdict != VerdictValid {
		t.Fatalf("res = %+v", res)
	}
}

func TestValidatorInternalCopyDivergenceIsFault(t *testing.T) {
	eng, v := newValidator(t, 2)
	var res Result
	v.OnResult = func(r Result) { res = r }
	v.Submit(cacheResp(1, 1, "τi", "k", "up", 7))
	v.Submit(cacheResp(2, 1, "τi", "k", "up|corrupted", 8))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictFault || res.Fault != FaultValue {
		t.Fatalf("res = %v/%v", res.Verdict, res.Fault)
	}
}

func TestValidatorPolicyCheckOnPrimary(t *testing.T) {
	_, v := newValidator(t, 2)
	v.Policy = func(kind trigger.Kind, primary store.NodeID, r Response) (string, bool) {
		if r.Cache == store.LinksDB && r.Value == "down" {
			return "no-downs", true
		}
		return "", false
	}
	var res *Result
	v.OnResult = func(r Result) { res = &r }
	v.Submit(cacheResp(1, 1, "τ", "k", "down", 7))
	v.Submit(execResp(2, 1, "τ", "k", "down", 7))
	v.Submit(execResp(3, 1, "τ", "k", "down", 7))
	if res == nil {
		t.Fatal("no decision")
	}
	if res.Fault != FaultPolicy || res.Reason != "policy violation: no-downs" {
		t.Fatalf("res = %+v", res)
	}
}

func TestValidatorLateResponsesAbsorbed(t *testing.T) {
	eng, v := newValidator(t, 2)
	count := 0
	v.OnResult = func(Result) { count++ }
	v.Submit(cacheResp(1, 1, "τ", "k", "up", 7))
	v.Submit(execResp(2, 1, "τ", "k", "up", 7))
	v.Submit(execResp(3, 1, "τ", "k", "up", 7))
	if count != 1 {
		t.Fatalf("decisions = %d", count)
	}
	// A straggler arrives afterwards: absorbed, no ghost trigger.
	v.Submit(cacheResp(2, 1, "τ", "k", "up", 7))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("ghost decision: %d", count)
	}
	if v.lateResponses.Value() != 1 {
		t.Fatalf("late = %d", v.lateResponses.Value())
	}
}

// TestDuplicateExecDoneDoesNotConvict: a secondary's no-op report delivered
// twice (a retransmit) is still one controller's testimony. With K=2 the
// primary's write plus one secondary's ExecDone is short of a quorum of
// same-state counter-evidence, however many copies of it arrive.
func TestDuplicateExecDoneDoesNotConvict(t *testing.T) {
	for _, copies := range []int{1, 2, 3} {
		eng, v := newValidator(t, 2)
		var res *Result
		v.OnResult = func(r Result) { res = &r }
		v.Submit(cacheResp(1, 1, "τ", "k", "up", 7))
		for i := 0; i < copies; i++ {
			v.Submit(doneResp(2, 1, "τ", 7))
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		if res == nil || res.Verdict != VerdictValid {
			t.Fatalf("%d copies of one ExecDone: res = %+v, want valid", copies, res)
		}
	}
	// Two distinct same-state secondaries reporting no-ops are a quorum.
	eng, v := newValidator(t, 2)
	var res *Result
	v.OnResult = func(r Result) { res = &r }
	v.Submit(cacheResp(1, 1, "τ", "k", "up", 7))
	v.Submit(doneResp(2, 1, "τ", 7))
	v.Submit(doneResp(3, 1, "τ", 7))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Fault != FaultValue || res.Offender != 1 {
		t.Fatalf("two secondaries' no-ops: res = %+v, want value fault on C1", res)
	}
}

func TestValidatorUnattributedResponsesIgnored(t *testing.T) {
	_, v := newValidator(t, 2)
	r := cacheResp(1, 1, "", "k", "v", 7)
	v.Submit(r)
	if v.Pending() != 0 {
		t.Fatal("unattributed response created a trigger")
	}
}

func TestValidatorCountersAndCDF(t *testing.T) {
	eng, v := newValidator(t, 2)
	for i := 0; i < 10; i++ {
		trig := fmt.Sprintf("τ%d", i)
		v.Submit(cacheResp(1, 1, trig, "k", "up", 7))
		v.Submit(execResp(2, 1, trig, "k", "up", 7))
		v.Submit(execResp(3, 1, trig, "k", "up", 7))
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if v.Decided() != 10 || v.Valid() != 10 || v.Faults() != 0 {
		t.Fatalf("counters: %d/%d/%d", v.Decided(), v.Valid(), v.Faults())
	}
	if v.Detections.Count() != 10 || v.DetectionsExternal.Count() != 10 {
		t.Fatal("detection distributions not populated")
	}
	if v.FalsePositiveRate() != 0 {
		t.Fatal("fp rate wrong")
	}
}

func TestValidatorAdaptiveTimeoutShrinks(t *testing.T) {
	eng := simnet.NewEngine(1)
	members := cluster.NewMembership(cluster.AnyControllerOneMaster,
		[]store.NodeID{1, 2, 3}, []topo.DPID{1})
	v := NewValidator(eng, members, ValidatorConfig{K: 2, Timeout: time.Second, Adaptive: true})
	// Feed fast consensus rounds; the adaptive deadline must fall below
	// the configured maximum.
	for i := 0; i < 200; i++ {
		trig := fmt.Sprintf("τ%d", i)
		v.Submit(cacheResp(1, 1, trig, "k", "up", 7))
		v.Submit(execResp(2, 1, trig, "k", "up", 7))
		v.Submit(execResp(3, 1, trig, "k", "up", 7))
	}
	if got := v.timeout(); got >= time.Second {
		t.Fatalf("adaptive timeout did not shrink: %v", got)
	}
	_ = eng
}

func TestQuorumOf(t *testing.T) {
	tests := []struct{ k, want int }{{2, 2}, {4, 3}, {6, 4}, {1, 1}}
	for _, tt := range tests {
		if got := quorumOf(tt.k); got != tt.want {
			t.Fatalf("quorumOf(%d) = %d, want %d", tt.k, got, tt.want)
		}
	}
}

func TestVerdictAndFaultStrings(t *testing.T) {
	if VerdictValid.String() != "valid" || VerdictFault.String() != "fault" {
		t.Fatal("verdict strings")
	}
	if FaultOmission.String() != "omission" || FaultPolicy.String() != "policy" {
		t.Fatal("fault strings")
	}
	if CacheUpdate.String() != "cache" || ExecDone.String() != "done" {
		t.Fatal("kind strings")
	}
}

func TestResponseBodyNormalizesAttribution(t *testing.T) {
	ruleA := ruleFor(1, "τ1", 1)
	ruleB := ruleFor(1, "τ1", 3) // same rule computed by another controller
	a := flowCacheResp(1, 1, "τ1", ruleA, 0)
	b := flowExecResp(3, 1, "τ1", ruleB, 0)
	if a.Body() != b.Body() {
		t.Fatalf("bodies differ:\n%s\n%s", a.Body(), b.Body())
	}
	if a.Slot() != b.Slot() {
		t.Fatal("slots differ")
	}
}

func TestCanonicalMessageFlowModAndPacketOut(t *testing.T) {
	fm := ruleFor(1, "τ", 1).FlowMod(1)
	s := CanonicalMessage(fm)
	if s == "" || s == CanonicalMessage(&openflow.Hello{}) {
		t.Fatal("flow mod canonical form broken")
	}
	po := &openflow.PacketOut{Actions: []openflow.Action{openflow.Output(3)},
		Data: openflow.ARPPacket(openflow.ARPRequest, topo.HostMAC(1), topo.HostIP(1), openflow.MAC{}, topo.HostIP(2))}
	if CanonicalMessage(po) == CanonicalMessage(fm) {
		t.Fatal("different messages share canonical form")
	}
}

// TestGraceWindowsFireInDecisionOrder pins the late-response grace window
// to decision time + max(2θτ, 1 s) for early decisions, timeout decisions
// and decisions that share a virtual instant: 1 ns before its close a
// response is late, at the close the tombstone is gone (Pending steps
// down there and nowhere else) and a response reopens the trigger. The
// engine runs exactly one event per closing window and one per timeout,
// nothing else.
func TestGraceWindowsFireInDecisionOrder(t *testing.T) {
	eng, v := newValidator(t, 2)
	const grace = time.Second // 2θτ = 200 ms is below the 1 s floor
	agree := func(id string) {
		v.Submit(cacheResp(1, 1, id, "k", "up", 7))
		v.Submit(execResp(2, 1, id, "k", "up", 7))
		v.Submit(execResp(3, 1, id, "k", "up", 7))
	}
	run := func(to time.Duration) {
		t.Helper()
		if err := eng.Run(to); err != nil {
			t.Fatal(err)
		}
	}
	agree("a") // early, at 0
	run(10 * time.Millisecond)
	agree("b") // early, both at 10 ms
	agree("c")
	run(20 * time.Millisecond)
	v.Submit(cacheResp(1, 1, "d", "k", "up", 7)) // timed out, both at 120 ms
	v.Submit(cacheResp(1, 1, "e", "k", "up", 7))
	run(120 * time.Millisecond)
	if v.Decided() != 5 || v.Timeouts() != 2 || v.Pending() != 5 || eng.Processed() != 2 {
		t.Fatalf("decided %d, timeouts %d, pending %d, processed %d; want 5, 2, 5, 2",
			v.Decided(), v.Timeouts(), v.Pending(), eng.Processed())
	}

	pending := 5
	for _, w := range []struct {
		close time.Duration
		ids   []string
	}{
		{grace, []string{"a"}},
		{10*time.Millisecond + grace, []string{"b", "c"}},
		{120*time.Millisecond + grace, []string{"d", "e"}},
	} {
		run(w.close - 1)
		processed, late := eng.Processed(), v.LateResponses()
		for _, id := range w.ids {
			v.Submit(execResp(2, 1, id, "k", "up", 7))
		}
		if got := v.LateResponses() - late; got != int64(len(w.ids)) || v.Pending() != pending {
			t.Fatalf("1 ns before %v: %d late of %d, pending %d, want %d", w.close, got, len(w.ids), v.Pending(), pending)
		}
		run(w.close)
		pending -= len(w.ids)
		if got := eng.Processed() - processed; got != uint64(len(w.ids)) || v.Pending() != pending {
			t.Fatalf("at %v: %d events ran, pending %d; want %d, %d", w.close, got, v.Pending(), len(w.ids), pending)
		}
		decided, late := v.Decided(), v.LateResponses()
		for _, id := range w.ids {
			agree(id) // reopened, and decided again at once
		}
		pending += len(w.ids)
		if v.Decided()-decided != int64(len(w.ids)) || v.LateResponses() != late || v.Pending() != pending {
			t.Fatalf("at %v: reopening decided %d, %d late, pending %d; want %d, 0, %d",
				w.close, v.Decided()-decided, v.LateResponses()-late, v.Pending(), len(w.ids), pending)
		}
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Two timers and ten grace windows (five decisions, five reopenings).
	if v.Pending() != 0 || eng.Processed() != 12 || len(v.pending) != 0 {
		t.Fatalf("drained: pending %d, map %d, processed %d; want 0, 0, 12", v.Pending(), len(v.pending), eng.Processed())
	}
}

// TestRecycledTriggerIgnoresStaleTimer pins the stale-handle contract of
// the pooled pendingTrigger: trigger "a" is decided early, which cancels
// its θτ timer and recycles its state, and "b" reopens on the same state.
// Reopened before a's deadline, a's cancelled timer is still queued with
// the same bound expire callback and must not expire b; reopened after
// it, b's timer takes a's freed slot, and a's old handle must not cancel
// it. Either way b times out at its own deadline and nowhere else.
func TestRecycledTriggerIgnoresStaleTimer(t *testing.T) {
	const theta = 100 * time.Millisecond
	for _, reopen := range []time.Duration{10 * time.Millisecond, theta + 10*time.Millisecond} {
		eng, v := newValidator(t, 2)
		v.Submit(cacheResp(1, 1, "a", "k", "up", 7))
		p := v.pending["a"]
		old := p.timer
		v.Submit(execResp(2, 1, "a", "k", "up", 7))
		v.Submit(execResp(3, 1, "a", "k", "up", 7))
		if v.Decided() != 1 || len(v.free) != 1 || v.free[0] != p {
			t.Fatalf("reopen at %v: a decided %d, pool %d; want 1, a's state", reopen, v.Decided(), len(v.free))
		}
		if err := eng.Run(reopen); err != nil {
			t.Fatal(err)
		}
		v.Submit(cacheResp(1, 1, "b", "k", "up", 7))
		if v.pending["b"] != p {
			t.Fatalf("reopen at %v: b did not reuse a's pooled state", reopen)
		}
		if p.timer == old {
			t.Fatalf("reopen at %v: b's timer handle equals a's", reopen)
		}
		old.Cancel()
		if err := eng.Run(reopen + theta - 1); err != nil {
			t.Fatal(err)
		}
		if v.Timeouts() != 0 || v.Decided() != 1 {
			t.Fatalf("reopen at %v: before b's deadline, %d timeouts, %d decided; want 0, 1", reopen, v.Timeouts(), v.Decided())
		}
		if err := eng.Run(reopen + theta); err != nil {
			t.Fatal(err)
		}
		if v.Timeouts() != 1 || v.Decided() != 2 {
			t.Fatalf("reopen at %v: at b's deadline, %d timeouts, %d decided; want 1, 2", reopen, v.Timeouts(), v.Decided())
		}
	}
}
