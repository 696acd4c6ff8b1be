package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/slab"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// reorderKeys re-serializes an encoded rule with "origin" moved to the
// front — same rule, different bytes.
func reorderKeys(enc string) string {
	i := strings.LastIndex(enc, `,"origin":`)
	if i < 0 {
		return enc
	}
	j := strings.IndexAny(enc[i+1:], ",}") + i + 1
	return "{" + enc[i+1:j] + "," + enc[1:i] + enc[j:]
}

// malformedValues mirrors the shapes of the wire codec's malformed-frame
// table (empty, truncated, trailing junk, wrong type, hostile count) as
// FlowsDB values: none decodes, so each is compared raw.
var malformedValues = []string{
	"", "{", `{"dpid":`, `{"dpid":1}trailing`, `[1,2,3]`, `"rule"`, "null\x00",
	`{"dpid":"one"}`, `{"actions":[{"Port":99999999999999999999}]}`, "\xff\xfe",
}

// normalizeValue is the value part of a cache response's Body(): a FlowsDB
// rule that decodes, re-encoded without per-controller attribution, or else
// the raw value.
func normalizeValue(cache store.CacheName, value string) string {
	r := Response{Kind: CacheUpdate, Cache: cache, Value: value}
	return strings.TrimPrefix(r.Body(), "cache|"+string(cache)+"|"+r.Op.String()+"||")
}

func formsRule(i int) controller.FlowRule {
	return controller.FlowRule{
		DPID:        topo.DPID(1 + i%3),
		Match:       openflow.ExactSrcDst(topo.HostMAC(i+1), topo.HostMAC(i+2)),
		Priority:    uint16(10 + i%2),
		Actions:     []openflow.Action{openflow.Output(uint16(1 + i%4))},
		IdleTimeout: 10,
		Command:     uint16(openflow.FlowAdd),
	}
}

// randomResponse draws a response from small pools, so that byte-equal raw
// fields (the reuse path of store) and near-misses both occur.
func randomResponse(rng *rand.Rand) Response {
	r := Response{
		Controller:  store.NodeID(1 + rng.Intn(4)),
		Trigger:     "τ",
		Tainted:     rng.Intn(2) == 0,
		StateDigest: uint64(rng.Intn(3)),
	}
	if rng.Intn(8) > 0 {
		r.Primary = store.NodeID(1 + rng.Intn(8)/7) // mostly 1, sometimes 2: attribution changes mid-trigger
	}
	switch rng.Intn(8) {
	case 0:
		r.Kind = ExecDone
		return r
	case 1, 2: // network side: a write, or a replicated execution's egress
		r.Kind = []ResponseKind{NetworkWrite, SecondaryExec}[rng.Intn(2)]
		r.DPID = topo.DPID(1 + rng.Intn(2))
		r.MsgType = []openflow.MsgType{openflow.TypeFlowMod, openflow.TypePacketOut}[rng.Intn(2)]
		r.MsgBody = []string{"a", "b", CanonicalMessage(formsRule(0).FlowMod(0))}[rng.Intn(3)]
		if r.Kind == NetworkWrite && rng.Intn(4) == 0 {
			r.Cache = store.FlowsDB // a network write is never a cache response, whatever Cache says
		}
		return r
	}
	r.Kind = []ResponseKind{CacheUpdate, SecondaryExec}[rng.Intn(2)]
	r.Op = []store.Op{store.OpCreate, store.OpUpdate, store.OpDelete}[rng.Intn(3)]
	if rng.Intn(4) == 0 {
		r.Cache, r.Key = store.HostDB, []string{"h1", "h2"}[rng.Intn(2)]
		r.Value = []string{"up", `{"dpid":1}`, ""}[rng.Intn(3)]
		return r
	}
	rule := formsRule(rng.Intn(3))
	r.Cache, r.Key = store.FlowsDB, rule.Key()
	switch rng.Intn(6) {
	case 0:
		r.Value = malformedValues[rng.Intn(len(malformedValues))]
	case 1:
		r.Value = reorderKeys(rule.Encode())
	default: // the same rule under differing attribution
		rule.Origin = store.NodeID(rng.Intn(3))
		rule.Trigger = trigger.ID([]string{"", "τ", "τ2"}[rng.Intn(3)])
		rule.State = []string{"", controller.RuleAdded}[rng.Intn(2)]
		r.Value = rule.Encode()
	}
	return r
}

// TestStoredFormsMatchDefinitions: whatever mix of responses a trigger
// stores — malformed FlowsDB JSON, re-ordered keys, differing
// origin/trigger/state, ExecDone, network kinds — every entry's stored
// slot and body equal r.Slot() and r.Body(), its expected FLOW_MOD equals
// an independent derivation, and the incremental counters equal a
// recount over the stored responses.
func TestStoredFormsMatchDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var forms slab.Strings // shared by every round, so rounds cross slabs
	for round := 0; round < 400; round++ {
		var p pendingTrigger
		for n := 1 + rng.Intn(14); n > 0; n-- {
			p.store(randomResponse(rng), &forms)
		}
		tainted, effects := map[store.NodeID]bool{}, map[store.NodeID]bool{}
		primaries := 0
		for i, e := range p.entries {
			if e.slot != e.r.Slot() || e.body != e.r.Body() {
				t.Fatalf("round %d entry %d: stored (%q, %q), definitions give (%q, %q)\n%+v",
					round, i, e.slot, e.body, e.r.Slot(), e.r.Body(), e.r)
			}
			wantNet := ""
			if e.r.Kind == CacheUpdate && e.r.Cache == store.FlowsDB && e.r.Op != store.OpDelete {
				if rule, err := controller.DecodeFlowRule(e.r.Value); err == nil {
					wantNet = "net|" + rule.DPID.String() + "|FLOW_MOD|" + CanonicalMessage(rule.FlowMod(0))
					if e.netDPID != rule.DPID {
						t.Fatalf("round %d entry %d: netDPID %v, want %v", round, i, e.netDPID, rule.DPID)
					}
				}
			}
			if e.netBody != wantNet {
				t.Fatalf("round %d entry %d: netBody %q, want %q\n%+v", round, i, e.netBody, wantNet, e.r)
			}
			if p.ctrls[e.ctrl].id != e.r.Controller {
				t.Fatalf("round %d entry %d: responder index points at C%d", round, i, p.ctrls[e.ctrl].id)
			}
			if e.r.Tainted {
				tainted[e.r.Controller] = true
				if e.r.Kind != ExecDone {
					effects[e.r.Controller] = true
				}
			}
			if !e.r.Tainted && (e.r.Controller == p.primary || e.r.Kind == NetworkWrite) {
				primaries++
			}
		}
		if p.taintedResponders != len(tainted) || p.withEffects != len(effects) || p.primaryEntries != primaries {
			t.Fatalf("round %d: counters (tainted %d, effects %d, primary %d), recount (%d, %d, %d)",
				round, p.taintedResponders, p.withEffects, p.primaryEntries, len(tainted), len(effects), primaries)
		}
	}
}

// FuzzCanonicalValue fuzzes the canonicalization every verdict rests on:
// normalizeValue never panics, is idempotent, ignores attribution
// (origin/trigger/state), leaves other caches' values alone, and the forms
// the validator stores for a response carrying the value are Slot()/Body().
func FuzzCanonicalValue(f *testing.F) {
	for i := 0; i < 4; i++ {
		rule := formsRule(i)
		f.Add(rule.Encode(), uint32(0), "", "")
		rule.Origin, rule.Trigger, rule.State = store.NodeID(i), "τ7", controller.RuleAdded
		f.Add(rule.Encode(), uint32(3), "τ9", controller.RuleStuck)
		f.Add(reorderKeys(rule.Encode()), uint32(1), "t\xff", "")
	}
	for _, v := range malformedValues {
		f.Add(v, uint32(2), "τ", "added")
	}
	f.Fuzz(func(t *testing.T, value string, origin uint32, trig, state string) {
		canon := normalizeValue(store.FlowsDB, value)
		if again := normalizeValue(store.FlowsDB, canon); again != canon {
			t.Fatalf("not idempotent:\n value %q\n first %q\nsecond %q", value, canon, again)
		}
		if got := normalizeValue(store.HostDB, value); got != value {
			t.Fatalf("HostDB value rewritten: %q -> %q", value, got)
		}
		rule, err := controller.DecodeFlowRule(value)
		if err != nil {
			if canon != value {
				t.Fatalf("undecodable value rewritten: %q -> %q", value, canon)
			}
		} else {
			rule.Origin, rule.Trigger, rule.State = store.NodeID(origin), trigger.ID(trig), state
			if other := normalizeValue(store.FlowsDB, rule.Encode()); other != canon {
				t.Fatalf("attribution leaks into the canonical value:\n%q\n%q", canon, other)
			}
		}
		var p pendingTrigger
		var forms slab.Strings
		for _, kind := range []ResponseKind{CacheUpdate, SecondaryExec, CacheUpdate} {
			p.store(Response{Controller: 1, Primary: 1, Trigger: "τ", Kind: kind,
				Cache: store.FlowsDB, Op: store.OpCreate, Key: "k", Value: value}, &forms)
		}
		for i, e := range p.entries {
			if e.slot != e.r.Slot() || e.body != e.r.Body() {
				t.Fatalf("entry %d: stored (%q, %q), definitions give (%q, %q)", i, e.slot, e.body, e.r.Slot(), e.r.Body())
			}
		}
		if (p.entries[0].netBody != "") != (err == nil) || p.entries[2].netBody != p.entries[0].netBody {
			t.Fatalf("expected FLOW_MOD %q / %q for decode error %v", p.entries[0].netBody, p.entries[2].netBody, err)
		}
	})
}

func TestReorderKeysKeepsTheRule(t *testing.T) {
	rule := formsRule(1)
	rule.Origin, rule.Trigger = 3, "τ"
	enc := rule.Encode()
	re := reorderKeys(enc)
	if re == enc || !strings.HasPrefix(re, `{"origin":3,`) {
		t.Fatalf("reorderKeys(%q) = %q", enc, re)
	}
	got, err := controller.DecodeFlowRule(re)
	if err != nil || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", rule) {
		t.Fatalf("reordered value decodes to %+v (%v), want %+v", got, err, rule)
	}
}
