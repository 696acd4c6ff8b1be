package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/loadgen"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// spec is one workload. README.md says why each exists.
type spec struct {
	name string
	sim  bool // the simulated pipeline instead of the wire service
	// Wire workloads: cluster size n, replication factor k = n-1.
	n int
	// flow selects the FlowsDB rule + FLOW_MOD trigger (8 responses at
	// n=7); otherwise a trigger is one small HostDB write (3 at n=3).
	flow bool
	// faultPerMille of triggers carry an injected fault, half value
	// faults and half omissions.
	faultPerMille uint64
	window        int // triggers in flight in the closed loop
	shards        int
	// warmup is the fixed trigger count that ends set-up, sized to
	// outlast the validator's 1 s grace retention at today's speed.
	warmup int
	// replay is the trigger count each layer replay runs.
	replay int
}

var workloads = []spec{
	{name: "flow7-bin-w64", n: 7, flow: true, faultPerMille: 10, window: 64, shards: 1, warmup: 10000, replay: 4000},
	{name: "flow7-bin-s4-w64", n: 7, flow: true, faultPerMille: 10, window: 64, shards: 4, warmup: 10000, replay: 4000},
	{name: "light3-bin-w64", n: 3, window: 64, shards: 1, warmup: 100000, replay: 40000},
	{name: "light3-bin-w1", n: 3, window: 1, shards: 1, warmup: 50000, replay: 40000},
	{name: "sim-onos7", sim: true, n: 7},
}

func workloadByName(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// Service and generator constants shared by the live run and the replays.
const (
	validationTimeout = 50 * time.Millisecond
	tableSize         = 4096
	genHosts          = 65536
	genLinks          = 1024
	genMeanRate       = 10000
	switches          = 24 // jury.ValidatorServiceConfig's default datapath count
)

// defaultChurn is cmd/juryload's default churn mix.
var defaultChurn = loadgen.ChurnSpec{JoinRate: 200, LeaveRate: 150, FlapRate: 20}

// class is the verdict the generator expects for a trigger.
type class uint8

const (
	classPsi      class = iota // trigger-less Ψ update: no verdict
	classBenign                // valid
	classValue                 // value or inconsistency alarm
	classOmission              // omission alarm at the timeout
)

// matches reports whether the validator's result is the expected one.
func (c class) matches(r core.Result) bool {
	switch c {
	case classBenign:
		return r.Verdict == core.VerdictValid
	case classValue:
		return r.Verdict == core.VerdictFault &&
			(r.Fault == core.FaultValue || r.Fault == core.FaultInconsistent)
	case classOmission:
		return r.Verdict == core.VerdictFault && r.Fault == core.FaultOmission
	default:
		return false
	}
}

// entry is one precomputed cache write: what a controller would write
// for a flow between two hosts, plus the faulty variant on the same key.
type entry struct {
	cache      store.CacheName
	key, value string
	dpid       topo.DPID
	netBody    string // canonical FLOW_MOD of value (flow workloads)
	netLen     int
	badValue   string // a different rule on the same key
	badNetBody string
}

func buildTable(sp spec) []entry {
	tab := make([]entry, tableSize)
	for i := range tab {
		if !sp.flow {
			mac := topo.HostMAC(i + 1).String()
			tab[i] = entry{
				cache: store.HostDB,
				key:   mac,
				value: fmt.Sprintf(`{"mac":%q,"ip":%q,"dpid":%d,"port":%d}`,
					mac, topo.HostIP(i+1).String(), 1+i%switches, 1+i%4),
			}
			continue
		}
		rule := controller.FlowRule{
			DPID:        topo.DPID(1 + i%switches),
			Match:       openflow.ExactSrcDst(topo.HostMAC(i+1), topo.HostMAC(tableSize+i+1)),
			Priority:    10,
			Actions:     []openflow.Action{openflow.Output(uint16(1 + i%4))},
			IdleTimeout: 10,
			Command:     uint16(openflow.FlowAdd),
		}
		bad := rule
		bad.Actions = []openflow.Action{openflow.Output(uint16(5 + i%4))}
		mod := rule.FlowMod(0)
		tab[i] = entry{
			cache:      store.FlowsDB,
			key:        rule.Key(),
			value:      rule.Encode(),
			dpid:       rule.DPID,
			netBody:    core.CanonicalMessage(mod),
			netLen:     len(mod.Marshal()),
			badValue:   bad.Encode(),
			badNetBody: core.CanonicalMessage(bad.FlowMod(0)),
		}
	}
	return tab
}

// gen turns the seeded loadgen event stream into validator responses:
// each FlowArrival is one trigger, each churn or flap event one
// trigger-less untainted cache update (Ψ only). The same seed gives the
// same stream, so the live run and every replay see identical input.
type gen struct {
	sp      spec
	src     *loadgen.Source
	rng     *rand.Rand
	tab     []entry
	members []store.NodeID
	seq     uint64 // triggers generated
	events  uint64 // loadgen events pulled
	buf     []core.Response
	order   []int
	tr      *tracer // non-nil while a traced window is open
}

func newGen(sp spec, seed int64, tab []entry) (*gen, error) {
	src, err := loadgen.NewSource(loadgen.Config{
		Hosts: genHosts, Links: genLinks, MeanRate: genMeanRate,
		Churn: defaultChurn, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	g := &gen{sp: sp, src: src, rng: rand.New(rand.NewSource(seed + 1)), tab: tab}
	for i := 1; i <= sp.n; i++ {
		g.members = append(g.members, store.NodeID(i))
	}
	for i := 0; i < sp.n-1; i++ {
		g.order = append(g.order, i)
	}
	return g, nil
}

// triggerID names trigger seq; parseTriggerID is its inverse.
func triggerID(seq uint64) trigger.ID {
	return trigger.ID("t" + strconv.FormatUint(seq, 10))
}

func parseTriggerID(id trigger.ID) (uint64, bool) {
	if len(id) < 2 || id[0] != 't' {
		return 0, false
	}
	seq, err := strconv.ParseUint(string(id[1:]), 10, 64)
	return seq, err == nil
}

// mix is a 64-bit finalizer (splitmix64) used to pick table entries and
// fault classes from (src, dst, seq) without consuming the shuffle RNG.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// next returns the responses of the next event in send order, the class
// the validator must give the trigger (classPsi for a Ψ-only update) and
// the trigger's sequence number. The slice is reused by the next call.
func (g *gen) next() ([]core.Response, class, uint64) {
	for {
		var ev loadgen.Event
		if g.tr != nil {
			start := g.tr.now()
			ev = g.src.Next()
			g.tr.add(spanLoadgen, g.seq+1, start, g.tr.now())
		} else {
			ev = g.src.Next()
		}
		g.events++
		switch ev.Kind {
		case loadgen.FlowArrival:
			g.seq++
			cl := g.classOf(ev, g.seq)
			return g.trigger(ev, g.seq, cl), cl, g.seq
		case loadgen.HostJoin, loadgen.HostLeave:
			op, val := store.OpUpdate, "join"
			if ev.Kind == loadgen.HostLeave {
				op, val = store.OpDelete, "gone"
			}
			return g.psi(ev, g.members[ev.Src%uint64(g.sp.n)], store.HostDB, op,
				topo.HostMAC(int(ev.Src)).String(), val), classPsi, 0
		case loadgen.LinkFlap:
			val := "down"
			if ev.Up {
				val = "up"
			}
			return g.psi(ev, g.members[ev.Link%g.sp.n], store.LinksDB, store.OpUpdate,
				"link/"+strconv.Itoa(ev.Link), val), classPsi, 0
		}
	}
}

func (g *gen) psi(ev loadgen.Event, ctrl store.NodeID, cache store.CacheName, op store.Op, key, val string) []core.Response {
	g.buf = append(g.buf[:0], core.Response{
		Controller: ctrl, Kind: core.CacheUpdate,
		Cache: cache, Op: op, Key: key, Value: val,
		StateDigest: 9, At: ev.At,
	})
	return g.buf
}

func (g *gen) classOf(ev loadgen.Event, seq uint64) class {
	h := mix(ev.Src<<32 ^ ev.Dst ^ seq<<17)
	switch {
	case h%1000 >= g.sp.faultPerMille:
		return classBenign
	case h>>32&1 == 0:
		return classValue
	default:
		return classOmission
	}
}

func (g *gen) trigger(ev loadgen.Event, seq uint64, cl class) []core.Response {
	e := &g.tab[mix(ev.Src<<32^ev.Dst)%tableSize]
	id := triggerID(seq)
	primary := g.members[ev.Src%uint64(g.sp.n)]
	base := core.Response{
		Trigger: id, Primary: primary,
		Cache: e.cache, Op: store.OpCreate, Key: e.key, Value: e.value,
		StateDigest: 9, At: ev.At,
	}
	g.buf = g.buf[:0]
	if cl != classOmission { // an omitting primary stays silent
		own := base
		own.Controller, own.Kind = primary, core.CacheUpdate
		netBody := e.netBody
		if cl == classValue { // the primary installs a different rule
			own.Value, netBody = e.badValue, e.badNetBody
		}
		g.buf = append(g.buf, own)
		if g.sp.flow {
			g.buf = append(g.buf, core.Response{
				Controller: primary, Trigger: id, Primary: primary,
				Kind: core.NetworkWrite, DPID: e.dpid,
				MsgType: openflow.TypeFlowMod, MsgBody: netBody, WireLen: e.netLen,
				StateDigest: 9, At: ev.At,
			})
		}
	}
	// The k secondaries replay the trigger from the same state and
	// report the (suppressed) cache write, in seeded-shuffled order.
	g.rng.Shuffle(len(g.order), func(i, j int) { g.order[i], g.order[j] = g.order[j], g.order[i] })
	at := ev.At
	for _, o := range g.order {
		sec := g.members[(int(ev.Src%uint64(g.sp.n))+1+o)%g.sp.n]
		at += time.Microsecond
		r := base
		r.Controller, r.Kind, r.Tainted, r.At = sec, core.SecondaryExec, true, at
		g.buf = append(g.buf, r)
	}
	return g.buf
}
