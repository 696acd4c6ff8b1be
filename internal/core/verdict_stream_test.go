package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/shard"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// The verdict-stream golden pins the validator's whole output — every field
// of every Result, in decision order — for seeded response streams shaped
// like the end-to-end bench's (n=7/k=6 FlowsDB+FLOW_MOD and n=3/k=2 HostDB
// triggers, shuffled secondaries, Ψ-only updates, duplicates, late and
// ghost responses). testdata/verdict_stream.golden was captured on the
// map-based decision path that preceded the stored-forms path; the file is
// never regenerated to make a change pass. The anomaly share is far above
// the bench's 1 % so that 300 triggers per scenario reach every branch of
// evaluate.

var updateGolden = flag.Bool("update", false, "rewrite testdata/verdict_stream.golden from this tree's validator")

const (
	goldenPath    = "testdata/verdict_stream.golden"
	streamTimeout = 50 * time.Millisecond
	streamTable   = 16
	streamDPIDs   = 4
)

type streamSpec struct {
	name     string
	n        int  // cluster size; k = n-1
	flow     bool // FlowsDB + FLOW_MOD triggers, else HostDB
	seed     int64
	triggers int
	cfg      func(*core.ValidatorConfig)
	hooks    bool  // Policy + NonDetExempt set (bare validator only: the plane has no hook for them)
	widths   []int // shard.Plane widths that must reproduce the bare stream
}

var streamSpecs = []streamSpec{
	{name: "flow7", n: 7, flow: true, seed: 1, triggers: 300, widths: []int{1, 2, 4}},
	{name: "host3", n: 3, seed: 2, triggers: 300, widths: []int{1, 2, 4}},
	{name: "flow7-nostateaware", n: 7, flow: true, seed: 3, triggers: 300, widths: []int{1, 2, 4},
		cfg: func(c *core.ValidatorConfig) { c.NoStateAware = true }},
	{name: "host3-hooks", n: 3, seed: 4, triggers: 300, hooks: true},
	// The adaptive-timeout estimator is per validator, so deadlines (and
	// with them DecidedAt) depend on plane width; only width 1 must match.
	{name: "flow7-adaptive", n: 7, flow: true, seed: 5, triggers: 300, widths: []int{1},
		cfg: func(c *core.ValidatorConfig) { c.Adaptive = true }},
}

// streamEntry is one row of a scenario's flow/host table.
type streamEntry struct {
	cache           store.CacheName
	key             string
	rule            controller.FlowRule // flow scenarios
	value, badV     string
	dpid            topo.DPID
	netBody, badNet string
}

func streamEntries(flow bool) []streamEntry {
	tab := make([]streamEntry, streamTable)
	for i := range tab {
		if !flow {
			mac := topo.HostMAC(i + 1).String()
			val := func(port int) string {
				return fmt.Sprintf(`{"mac":%q,"ip":%q,"dpid":%d,"port":%d}`,
					mac, topo.HostIP(i+1).String(), 1+i%streamDPIDs, port)
			}
			tab[i] = streamEntry{cache: store.HostDB, key: mac, value: val(1 + i%4), badV: val(5 + i%4)}
			continue
		}
		rule := controller.FlowRule{
			DPID:        topo.DPID(1 + i%streamDPIDs),
			Match:       openflow.ExactSrcDst(topo.HostMAC(i+1), topo.HostMAC(streamTable+i+1)),
			Priority:    10,
			Actions:     []openflow.Action{openflow.Output(uint16(1 + i%4))},
			IdleTimeout: 10,
			Command:     uint16(openflow.FlowAdd),
		}
		bad := rule
		bad.Actions = []openflow.Action{openflow.Output(uint16(5 + i%4))}
		tab[i] = streamEntry{
			cache: store.FlowsDB, key: rule.Key(), rule: rule,
			value: rule.Encode(), badV: bad.Encode(), dpid: rule.DPID,
			netBody: core.CanonicalMessage(rule.FlowMod(0)),
			badNet:  core.CanonicalMessage(bad.FlowMod(0)),
		}
	}
	return tab
}

// Trigger classes, drawn per trigger from streamWeights.
const (
	clBenign       = iota
	clValue        // primary writes a different value (and the matching bad FLOW_MOD)
	clInconsistent // good cache write, bad FLOW_MOD (flow only)
	clOmission     // primary silent, secondaries report the cache write
	clOmissionNet  // primary silent, secondaries report only a PACKET_OUT
	clMissingNet   // cache write without its FLOW_MOD (flow only)
	clNetOnly      // FLOW_MOD without a cache write (flow only)
	clNoop         // primary silent, every secondary ExecDone
	clPartial      // benign, but some secondaries never answer
	clMinority     // one same-state secondary disagrees
	clStale        // a quorum disagrees, from stale mutually different views
	clGroup        // a quorum with one shared, current view contradicts the primary
	clNonDet       // every body distinct
	clMixedNoops   // primary writes, some secondaries ExecDone, the rest silent
	clInternal     // untainted replica copies only
	clMalformed    // FlowsDB value that is not JSON (flow only)
	clDelivery     // PACKET_OUT deliveries only; a quorum may forward elsewhere, from the same or a stale state
)

var streamWeights = []struct{ class, perMille int }{
	{clValue, 30}, {clInconsistent, 20}, {clOmission, 30}, {clOmissionNet, 25},
	{clMissingNet, 15}, {clNetOnly, 10}, {clNoop, 20}, {clPartial, 20},
	{clMinority, 20}, {clStale, 20}, {clGroup, 20}, {clNonDet, 10},
	{clMixedNoops, 15}, {clInternal, 30}, {clMalformed, 10}, {clDelivery, 30},
}

func pickClass(rng *rand.Rand, flow bool) int {
	x := rng.Intn(1000)
	for _, w := range streamWeights {
		if x < w.perMille {
			switch w.class {
			case clInconsistent, clMissingNet, clNetOnly, clMalformed:
				if !flow {
					return clValue
				}
			}
			return w.class
		}
		x -= w.perMille
	}
	return clBenign
}

// reorderedJSON re-serializes a rule with its keys in another order and
// the given attribution, the way a replica with a different encoder would.
func reorderedJSON(r controller.FlowRule, origin store.NodeID, trig trigger.ID) string {
	canon := r
	canon.Origin, canon.Trigger, canon.State = 0, "", ""
	enc := canon.Encode() // {"dpid":…,"match":…,…,"origin":0}
	body := strings.TrimSuffix(strings.TrimPrefix(enc, "{"), `,"origin":0}`)
	return fmt.Sprintf(`{"origin":%d,"trigger":%q,%s}`, origin, trig, body)
}

// buildStream renders the scenario's seeded response stream in At order.
func buildStream(sp streamSpec) []core.Response {
	rng := rand.New(rand.NewSource(sp.seed))
	tab := streamEntries(sp.flow)
	k := sp.n - 1
	var (
		out   []core.Response
		now   time.Duration
		epoch uint64 = 1
	)
	digest := func(e uint64) uint64 { return 0x9e3779b97f4a7c15 * e }
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	for seq := 1; seq <= sp.triggers; seq++ {
		now += 200*time.Microsecond + time.Duration(rng.Intn(800))*time.Microsecond
		// Ψ-only updates: trigger-less untainted cache writes moving the
		// cluster to a new state epoch.
		if rng.Intn(10) == 0 {
			epoch++
			out = append(out, core.Response{
				Controller: store.NodeID(1 + rng.Intn(sp.n)), Kind: core.CacheUpdate,
				Cache: store.LinksDB, Op: store.OpUpdate, Key: fmt.Sprintf("link/%d", rng.Intn(8)),
				Value: "up", StateDigest: digest(epoch), StateApplied: epoch, At: now,
			})
			now += 10 * time.Microsecond
		}
		class := pickClass(rng, sp.flow)
		e := tab[rng.Intn(len(tab))]
		id := trigger.ID(fmt.Sprintf("t%d", seq))
		primary := store.NodeID(1 + rng.Intn(sp.n))
		attributed := sp.flow && rng.Intn(3) == 0 // secondaries' rules carry their own origin/trigger
		base := core.Response{
			Trigger: id, Primary: primary,
			Cache: e.cache, Op: store.OpCreate, Key: e.key, Value: e.value,
			StateDigest: digest(epoch), StateApplied: epoch, At: now,
		}
		if class == clMalformed {
			base.Value = `{"dpid":` // truncated JSON: compared raw
		}
		// distinct returns the i-th of a family of pairwise different
		// values on this entry's key, with the FLOW_MOD it implies.
		distinct := func(i int) (value, net string) {
			if !sp.flow {
				return fmt.Sprintf("%s%*s", e.value, i+1, ""), ""
			}
			rule := e.rule
			rule.Actions = []openflow.Action{openflow.Output(uint16(20 + i))}
			return rule.Encode(), core.CanonicalMessage(rule.FlowMod(0))
		}
		noops := k/2 + rng.Intn(2) // clMixedNoops: one short of a quorum of no-ops, or a quorum
		var rs []core.Response

		// Primary side.
		own := base
		own.Controller, own.Kind = primary, core.CacheUpdate
		netBody := e.netBody
		switch class {
		case clValue, clGroup:
			own.Value, netBody = e.badV, e.badNet
		case clInconsistent:
			netBody = e.badNet
		case clNonDet:
			own.Value, netBody = distinct(0)
		}
		if class == clGroup { // the primary acted from an older view of the entry
			own.Prev, own.PrevOK = "older", true
			own.StateApplied = epoch - 1
			own.StateDigest = digest(epoch - 1)
		}
		silent := class == clOmission || class == clOmissionNet || class == clNoop
		packetOut := core.Response{
			Controller: primary, Trigger: id, Primary: primary,
			Kind: core.NetworkWrite, DPID: 1 + topo.DPID(seq%streamDPIDs), MsgType: openflow.TypePacketOut,
			MsgBody: "packetout|out:1,", WireLen: 90,
			StateDigest: digest(epoch), StateApplied: epoch, At: now,
		}
		divert := rng.Intn(3) // clDelivery: 0 benign, 1 same-state quorum diverts, 2 stale quorum diverts
		switch {
		case class == clDelivery:
			rs = append(rs, packetOut)
		case !silent && class != clNetOnly && class != clInternal:
			rs = append(rs, own)
		}
		if sp.flow && !silent && class != clMissingNet && class != clInternal && class != clDelivery {
			writer := primary
			if rng.Intn(6) == 0 { // the switch's master, not the primary, materializes the rule
				writer = store.NodeID(int(primary)%sp.n + 1)
			}
			rs = append(rs, core.Response{
				Controller: writer, Trigger: id, Primary: primary,
				Kind: core.NetworkWrite, DPID: e.dpid, MsgType: openflow.TypeFlowMod,
				MsgBody: netBody, WireLen: 80,
				StateDigest: own.StateDigest, StateApplied: own.StateApplied, At: now,
			})
		}

		// Replicated executions, in seeded-shuffled order.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		at := now
		for pos, o := range order {
			sec := store.NodeID((int(primary)+o)%sp.n + 1)
			at += time.Microsecond
			r := base
			r.Controller, r.Kind, r.Tainted, r.At = sec, core.SecondaryExec, true, at
			if attributed && class != clMalformed {
				rule := e.rule
				rule.Origin, rule.Trigger = sec, id
				if pos%2 == 0 {
					rule.State = controller.RuleAdded
					r.Value = rule.Encode()
				} else {
					r.Value = reorderedJSON(e.rule, sec, id)
				}
			}
			switch class {
			case clOmissionNet, clDelivery:
				r.Cache, r.Op, r.Key, r.Value = "", 0, "", ""
				r.DPID, r.MsgType, r.MsgBody, r.WireLen = packetOut.DPID, packetOut.MsgType, packetOut.MsgBody, 90
				if class == clOmissionNet && pos%2 == 1 && rng.Intn(2) == 0 { // a replica one epoch behind
					r.StateDigest, r.StateApplied = digest(epoch-1), epoch-1
				}
				if class == clDelivery && divert > 0 && pos <= k/2 {
					r.MsgBody = "packetout|out:2,"
					if divert == 2 {
						r.StateDigest, r.StateApplied = digest(epoch-1), epoch-1
					}
				}
			case clNoop:
				r = core.Response{Controller: sec, Trigger: id, Primary: primary, Kind: core.ExecDone,
					Tainted: true, StateDigest: digest(epoch), StateApplied: epoch, At: at}
			case clPartial:
				if pos >= k-1-rng.Intn(2) {
					continue
				}
			case clMinority:
				if pos == 0 {
					r.Value = e.badV
				}
			case clStale:
				if pos <= k/2 {
					r.Value = e.badV
					r.Prev, r.PrevOK = fmt.Sprintf("stale-%d", pos), true
					if pos%2 == 0 {
						r.StateDigest, r.StateApplied = digest(epoch-1), epoch-1
					}
				}
			case clGroup:
				r.Prev, r.PrevOK = "current", true
			case clNonDet:
				r.Value, _ = distinct(pos + 1)
			case clMixedNoops:
				switch {
				case pos < noops:
					r = core.Response{Controller: sec, Trigger: id, Primary: primary, Kind: core.ExecDone,
						Tainted: true, StateDigest: digest(epoch), StateApplied: epoch, At: at}
				case pos > noops:
					continue
				}
			case clInternal:
				r.Kind, r.Tainted = core.CacheUpdate, false
				if pos == 0 && rng.Intn(3) == 0 {
					r.Value = e.badV // a diverging replica copy
				}
			}
			rs = append(rs, r)
		}
		if class == clInternal {
			rs = append(rs, own)
			if rng.Intn(2) == 0 { // a second slot on the same internal trigger
				aux := own
				aux.Key += "/aux"
				rs = append(rs, aux)
			}
		}

		// Delivery anomalies on top of the class.
		movable := func() int { // a response that is not an ExecDone
			for tries := 0; tries < 8; tries++ {
				if i := rng.Intn(len(rs)); rs[i].Kind != core.ExecDone {
					return i
				}
			}
			return -1
		}
		if len(rs) > 0 {
			if rng.Intn(20) == 0 { // duplicate (retransmit)
				if i := movable(); i >= 0 {
					d := rs[i]
					d.At = at + time.Duration(1+rng.Intn(3000))*time.Microsecond
					rs = append(rs, d)
				}
			}
			if rng.Intn(20) == 0 { // held back past θτ: arrives late
				rs[rng.Intn(len(rs))].At = now + streamTimeout + 20*time.Millisecond
			}
			if rng.Intn(100) == 0 { // past the grace window: resurrects a ghost trigger
				if i := movable(); i >= 0 {
					g := rs[i]
					g.At = now + 1200*time.Millisecond
					rs = append(rs, g)
				}
			}
		}
		out = append(out, rs...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

func streamMembers(n int) *cluster.Membership {
	ids := make([]store.NodeID, n)
	for i := range ids {
		ids[i] = store.NodeID(i + 1)
	}
	dpids := make([]topo.DPID, streamDPIDs)
	for i := range dpids {
		dpids[i] = topo.DPID(i + 1)
	}
	return cluster.NewMembership(cluster.AnyControllerOneMaster, ids, dpids)
}

func streamConfig(sp streamSpec) core.ValidatorConfig {
	cfg := core.ValidatorConfig{K: sp.n - 1, Timeout: streamTimeout}
	if sp.cfg != nil {
		sp.cfg(&cfg)
	}
	return cfg
}

func responsesDigest(rs []core.Response) string {
	if len(rs) == 0 {
		return "-"
	}
	h := fnv.New64a()
	for _, r := range rs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return fmt.Sprintf("%d:%016x", len(rs), h.Sum64())
}

// resultLine renders every field of a Result; Evidence as count:digest of
// the full %+v rendering of each response.
func resultLine(r core.Result) string {
	return fmt.Sprintf("R %s %d %d %d %d %d %d %d %t %q %s",
		r.Trigger, r.Kind, r.Verdict, r.Fault, r.Offender, r.Responses,
		int64(r.DetectionTime), int64(r.DecidedAt), r.TimedOut, r.Reason, responsesDigest(r.Evidence))
}

// runBare replays the stream into a bare validator and returns its R lines
// (results, decision order) and T lines (OnTimeoutResponses observations).
// Both are rendered only after the run, so memory the validator reuses
// behind a retained Evidence or timeout slice would show up as a diff.
func runBare(t *testing.T, sp streamSpec, stream []core.Response) (rLines, tLines []string) {
	t.Helper()
	eng := simnet.NewEngine(1)
	v := core.NewValidator(eng, streamMembers(sp.n), streamConfig(sp))
	if sp.hooks {
		v.Policy = func(_ trigger.Kind, _ store.NodeID, r core.Response) (string, bool) {
			return "quarantined-host", r.Kind == core.CacheUpdate && strings.HasSuffix(r.Key, "3")
		}
		v.NonDetExempt = func(r core.Response) bool { return strings.HasSuffix(r.Key, "5") }
	}
	var results []core.Result
	type timeoutObs struct {
		id trigger.ID
		rs []core.Response
	}
	var timeouts []timeoutObs
	v.OnResult = func(r core.Result) { results = append(results, r) }
	v.OnTimeoutResponses = func(id trigger.ID, rs []core.Response) {
		timeouts = append(timeouts, timeoutObs{id, rs})
	}
	for _, r := range stream {
		if err := eng.Run(r.At); err != nil {
			t.Fatal(err)
		}
		v.Submit(r)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if v.Pending() != 0 {
		t.Fatalf("%s: %d triggers still pending after idle", sp.name, v.Pending())
	}
	for _, r := range results {
		rLines = append(rLines, resultLine(r))
	}
	for _, o := range timeouts {
		tLines = append(tLines, fmt.Sprintf("T %s %s", o.id, responsesDigest(o.rs)))
	}
	return rLines, tLines
}

// runPlane replays the stream through a shard.Plane in deterministic mode
// and returns its R lines sorted (worker interleaving is not ordered).
// With cuts the stream goes in through the batch entry point, cut into
// batches of random sizes 1…64 — the metamorphic relation "verdicts are
// invariant under the client's MaxBatch" — else response by response.
func runPlane(t *testing.T, sp streamSpec, stream []core.Response, width int, cuts *rand.Rand) []string {
	t.Helper()
	var results []core.Result
	p, err := shard.New(shard.Config{
		Shards: width, Validator: streamConfig(sp), Members: streamMembers(sp.n),
		TimeFromResponses: true,
		OnResult:          func(r core.Result) { results = append(results, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for len(stream) > 0 {
		if cuts == nil {
			p.Submit(stream[0])
			stream = stream[1:]
			continue
		}
		n := min(1+cuts.Intn(64), len(stream))
		p.SubmitBatch(stream[:n], 0)
		stream = stream[n:]
	}
	p.Close()
	lines := make([]string, len(results))
	for i, r := range results {
		lines[i] = resultLine(r)
	}
	sort.Strings(lines)
	return lines
}

func readGolden(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (capture with -update on the reference tree): %v", err)
	}
	sections := make(map[string][]string)
	name := ""
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			name = strings.TrimPrefix(line, "# ")
			continue
		}
		sections[name] = append(sections[name], line)
	}
	return sections
}

func diffLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d diverges\n got: %s\nwant: %s", what, i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", what, len(got), len(want))
	}
}

// TestVerdictStreamGolden: the bare validator reproduces the captured
// Result stream (and timeout observations) byte for byte, and every plane
// width reproduces the same set of results — fed response by response and
// fed in random batches.
func TestVerdictStreamGolden(t *testing.T) {
	if *updateGolden {
		var buf bytes.Buffer
		for _, sp := range streamSpecs {
			r, to := runBare(t, sp, buildStream(sp))
			fmt.Fprintf(&buf, "# %s\n%s\n", sp.name, strings.Join(append(r, to...), "\n"))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := readGolden(t)
	for _, sp := range streamSpecs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			want := golden[sp.name]
			if len(want) == 0 {
				t.Fatalf("golden has no section %q", sp.name)
			}
			stream := buildStream(sp)
			r, to := runBare(t, sp, stream)
			diffLines(t, "bare validator", append(append([]string(nil), r...), to...), want)

			classes := make(map[string]int)
			for _, line := range r {
				f := strings.Fields(line)
				classes[f[3]+"/"+f[4]]++ // verdict/fault
			}
			if len(classes) < 4 {
				t.Fatalf("stream reaches only %d verdict/fault classes: %v", len(classes), classes)
			}

			sorted := append([]string(nil), r...)
			sort.Strings(sorted)
			for _, width := range sp.widths {
				diffLines(t, fmt.Sprintf("plane width %d", width), runPlane(t, sp, stream, width, nil), sorted)
				cuts := rand.New(rand.NewSource(sp.seed<<8 + int64(width)))
				diffLines(t, fmt.Sprintf("plane width %d, random batches", width), runPlane(t, sp, stream, width, cuts), sorted)
			}
		})
	}
}

// TestVerdictStreamReencodedRules is the metamorphic row for FlowsDB value
// bytes: every well-formed rule value of the flow streams, re-encoded with
// whitespace between tokens, keys permuted and upper-cased and now and then
// one key character written as a \u escape, gives the same Result stream,
// bare and behind the plane at widths 1 and 4. Only the Evidence digest,
// which hashes the raw values, may move.
func TestVerdictStreamReencodedRules(t *testing.T) {
	for _, sp := range streamSpecs {
		if !sp.flow {
			continue
		}
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			stream := buildStream(sp)
			rng := rand.New(rand.NewSource(sp.seed))
			re := append([]core.Response(nil), stream...)
			n := 0
			for i := range re {
				if re[i].Cache != store.FlowsDB {
					continue
				}
				if v, ok := reencodeJSON(re[i].Value, rng); ok {
					re[i].Value = v
					n++
				}
			}
			if n == 0 {
				t.Fatal("no FlowsDB value re-encoded")
			}
			want, _ := runBare(t, sp, stream)
			got, _ := runBare(t, sp, re)
			diffLines(t, "bare validator", withoutEvidence(got, false), withoutEvidence(want, false))
			sorted := withoutEvidence(want, true)
			for _, width := range sp.widths {
				if width == 1 || width == 4 {
					diffLines(t, fmt.Sprintf("plane width %d", width), withoutEvidence(runPlane(t, sp, re, width, nil), true), sorted)
				}
			}
		})
	}
}

// withoutEvidence drops the Evidence digest, the last field of each R line;
// sorted re-sorts the rest, as the digest was part of the plane's sort key.
func withoutEvidence(lines []string, sorted bool) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = l[:strings.LastIndexByte(l, ' ')]
	}
	if sorted {
		sort.Strings(out)
	}
	return out
}

// reencodeJSON writes a JSON value again with the same meaning and other
// bytes; ok is false when value is not one well-formed JSON value.
func reencodeJSON(value string, rng *rand.Rand) (string, bool) {
	dec := json.NewDecoder(strings.NewReader(value))
	dec.UseNumber()
	var v any
	if dec.Decode(&v) != nil || dec.More() {
		return "", false
	}
	var b strings.Builder
	writeJSON(&b, v, rng)
	return b.String(), true
}

func writeJSON(b *strings.Builder, v any, rng *rand.Rand) {
	space := func() { b.WriteString([]string{"", " ", "\n", "\t ", "\r\n  "}[rng.Intn(5)]) }
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			space()
			name := k
			if rng.Intn(2) == 0 {
				name = strings.ToUpper(name)
			}
			// Member names are ASCII letters: no other character needs escaping.
			if j := rng.Intn(len(name)); rng.Intn(3) == 0 {
				fmt.Fprintf(b, "\"%s\\u%04x%s\"", name[:j], name[j], name[j+1:])
			} else {
				fmt.Fprintf(b, "\"%s\"", name)
			}
			space()
			b.WriteByte(':')
			space()
			writeJSON(b, x[k], rng)
			space()
		}
		b.WriteByte('}')
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			space()
			writeJSON(b, e, rng)
			space()
		}
		b.WriteByte(']')
	default: // string, json.Number, bool or nil
		enc, _ := json.Marshal(x)
		b.Write(enc)
	}
}
