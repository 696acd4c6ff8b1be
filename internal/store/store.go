// Package store implements the distributed data store substrate that gives
// the controller cluster its logically centralized view (§II-A1). It stands
// in for Hazelcast (ONOS) and Infinispan (ODL): every controller node holds
// a replica of a set of named caches, writes propagate to all replicas in
// origin order, and listeners observe every cache event applied at a node —
// the hook JURY uses to intercept internal triggers (§IV-A(2)).
//
// Two consistency engines are provided:
//
//   - Eventual (Hazelcast-like): the origin applies locally at once and
//     replicates asynchronously via multicast; remote replicas converge
//     after the replication latency. Cheap writes, n-independent cost.
//   - Strong (Infinispan-like): writes serialize through a cluster-wide
//     commit order and complete only after every replica acknowledges,
//     making per-write cost grow with cluster size — the cause of ODL's
//     throughput collapse in Fig. 4g.
package store

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/simnet"
)

// CacheName identifies a controller-wide cache (Table 2 of the paper).
type CacheName string

// The caches maintained by the reproduced controllers.
const (
	SwitchDB CacheName = "SwitchDB"
	LinksDB  CacheName = "LinksDB"
	EdgesDB  CacheName = "EdgesDB"
	HostDB   CacheName = "HostDB"
	ArpDB    CacheName = "ArpDB"
	FlowsDB  CacheName = "FlowsDB"
)

// Op is a cache operation.
type Op uint8

// Cache operations.
const (
	OpCreate Op = iota + 1
	OpUpdate
	OpDelete
)

// String returns the lowercase operation name used in policies.
func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// ParseOp converts a policy-file operation name to an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "create":
		return OpCreate, nil
	case "update":
		return OpUpdate, nil
	case "delete":
		return OpDelete, nil
	default:
		return 0, fmt.Errorf("store: unknown operation %q", s)
	}
}

// NodeID identifies a controller node in the cluster.
type NodeID int

// Event is one cache mutation, attributed to its origin node with a
// per-origin sequence number (the data distribution platforms provide
// origin authentication, which JURY relies on for attribution, §IV-A(2)).
type Event struct {
	Origin NodeID
	Seq    uint64
	Cache  CacheName
	Op     Op
	Key    string
	Value  string
	// Tag carries the trigger identity (τ) the write is attributed to,
	// threaded through the store so every replica applying the event can
	// relay it to the validator with precise attribution (§IV-B(2)).
	Tag string
	// Prev/PrevOK report the entry's value at this replica immediately
	// before the event applied — the per-entry state snapshot JURY's
	// validator compares for equivalent-view consensus (§IV-C A).
	Prev   string
	PrevOK bool
	At     time.Duration

	// digest is eventDigest of the event as Cluster.write built it,
	// hashed once there for every replica that applies it; digested
	// says it is set.
	digest   uint64
	digested bool
}

// WireSize estimates the replication message size in bytes for network
// overhead accounting (§VII-B2). The 640-byte base models the data
// distribution platform's envelope — serialization headers, backup acks and
// amortized heartbeat/anti-entropy chatter — which is what makes
// inter-controller traffic dominate in the paper's measurements (142 Mbps
// of Hazelcast traffic at a 5.5K PACKET_IN/s load).
func (e Event) WireSize() int { return 640 + len(e.Cache) + len(e.Key) + len(e.Value) + len(e.Tag) }

// String renders the event compactly.
func (e Event) String() string {
	return fmt.Sprintf("C%d#%d %s %s[%s]=%s", e.Origin, e.Seq, e.Op, e.Cache, e.Key, e.Value)
}

// Listener observes a cache event as it is applied at a node's replica.
// local is true at the origin node, false at remote replicas.
type Listener func(node NodeID, ev Event, local bool)

// Consistency selects the replication engine.
type Consistency uint8

// Consistency models.
const (
	// Eventual is the Hazelcast-like asynchronous model (ONOS).
	Eventual Consistency = iota + 1
	// Strong is the Infinispan-like synchronous model (ODL).
	Strong
)

// String names the consistency model.
func (c Consistency) String() string {
	switch c {
	case Eventual:
		return "eventual"
	case Strong:
		return "strong"
	default:
		return fmt.Sprintf("consistency(%d)", uint8(c))
	}
}

// Config parameterizes a store cluster.
type Config struct {
	Consistency Consistency
	// ReplicationLatency is the one-way latency for a replicated event to
	// reach a remote replica (eventual) or the per-replica ack RTT
	// contribution (strong).
	ReplicationLatency time.Duration
	// ReplicationJitter randomizes delivery per replica.
	ReplicationJitter time.Duration
	// CommitBase is the fixed commit cost of a strong write.
	CommitBase time.Duration
	// FlowBusService, for the eventual model, serializes FlowsDB writes
	// through a shared backup bus when the cluster has more than one
	// node — the Hazelcast flow-rule-backup bottleneck the paper's
	// footnote 4 describes. Zero disables the bus.
	FlowBusService time.Duration
	// Metrics receives the replication traffic counters; nil falls back
	// to a private registry.
	Metrics *obs.Registry
	// Tracer records a "store-repl" span per tagged event delivered to a
	// remote replica; nil disables tracing.
	Tracer *obs.Tracer
}

// DefaultConfig returns the calibrated configuration for a consistency
// model (see DESIGN.md, calibration to Figs. 4f/4g).
func DefaultConfig(c Consistency) Config {
	switch c {
	case Strong:
		return Config{
			Consistency:        Strong,
			ReplicationLatency: time.Millisecond,
			ReplicationJitter:  200 * time.Microsecond,
			CommitBase:         500 * time.Microsecond,
		}
	default:
		return Config{
			Consistency:        Eventual,
			ReplicationLatency: 1200 * time.Microsecond,
			ReplicationJitter:  600 * time.Microsecond,
		}
	}
}

// Cluster is a set of cache replicas, one per controller node.
type Cluster struct {
	eng   *simnet.Engine
	cfg   Config
	nodes map[NodeID]*Node
	// ids lists the keys of nodes in ascending order, so replication
	// fan-out schedules engine events deterministically. AddNode and
	// RemoveNode replace it rather than edit it, so a fan-out ranging
	// over it is never disturbed.
	ids []NodeID

	// strong-mode global commit order
	commitBusyUntil time.Duration
	// eventual-mode FlowsDB backup bus
	busBusyUntil time.Duration

	tracer *obs.Tracer
	// replicas carries replication messages to the peers.
	replicas *simnet.Jobs[replica]
	// Counters live in the obs registry; the accessor methods below are
	// thin reads over the same instances.
	replBytes *obs.Counter
	replMsgs  *obs.Counter
}

// NewCluster creates a store cluster on the engine.
func NewCluster(eng *simnet.Engine, cfg Config) *Cluster {
	if cfg.Consistency == 0 {
		def := DefaultConfig(Eventual)
		def.Metrics = cfg.Metrics
		def.Tracer = cfg.Tracer
		cfg = def
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Cluster{
		eng:    eng,
		cfg:    cfg,
		nodes:  make(map[NodeID]*Node),
		tracer: cfg.Tracer,
		replBytes: reg.Counter("jury_store_replication_bytes_total",
			"Inter-controller store replication traffic in bytes (§VII-B2)."),
		replMsgs: reg.Counter("jury_store_replication_messages_total",
			"Store replication messages sent to remote replicas."),
	}
	c.replicas = simnet.NewJobs(eng, c.deliver)
	return c
}

// AddNode creates the replica for a controller node.
func (c *Cluster) AddNode(id NodeID) *Node {
	n := &Node{
		id:      id,
		cluster: c,
		caches:  make(map[CacheName]map[string]string),
	}
	if _, ok := c.nodes[id]; !ok {
		i, _ := slices.BinarySearch(c.ids, id)
		c.ids = slices.Insert(slices.Clone(c.ids), i, id)
	}
	c.nodes[id] = n
	return n
}

// Node returns the replica for id, if present.
func (c *Cluster) Node(id NodeID) (*Node, bool) {
	n, ok := c.nodes[id]
	return n, ok
}

// RemoveNode detaches a node (crash); replication to it stops.
func (c *Cluster) RemoveNode(id NodeID) {
	if i, ok := slices.BinarySearch(c.ids, id); ok {
		c.ids = slices.Delete(slices.Clone(c.ids), i, i+1)
	}
	delete(c.nodes, id)
}

// Size returns the number of replicas.
func (c *Cluster) Size() int { return len(c.nodes) }

// Consistency returns the configured model.
func (c *Cluster) Consistency() Consistency { return c.cfg.Consistency }

// ReplicationBytes returns total inter-controller replication traffic.
func (c *Cluster) ReplicationBytes() int64 { return c.replBytes.Value() }

// ReplicationMessages returns total replication message count.
func (c *Cluster) ReplicationMessages() int64 { return c.replMsgs.Value() }

// write performs a mutation originated at node n. done (optional) fires
// when the write is durable per the consistency model: immediately after
// local apply for eventual, after all replicas acknowledge for strong.
func (c *Cluster) write(n *Node, cache CacheName, op Op, key, value, tag string, done func()) {
	n.seq++
	ev := Event{
		Origin: n.id,
		Seq:    n.seq,
		Cache:  cache,
		Op:     op,
		Key:    key,
		Value:  value,
		Tag:    tag,
		At:     c.eng.Now(),
	}
	ev.digest, ev.digested = eventDigest(ev), true
	switch c.cfg.Consistency {
	case Strong:
		c.strongWrite(n, ev, done)
	default:
		c.eventualWrite(n, ev, done)
	}
}

func (c *Cluster) eventualWrite(n *Node, ev Event, done func()) {
	if c.cfg.FlowBusService > 0 && ev.Cache == FlowsDB && len(c.nodes) > 1 {
		// Flow-rule backup serializes through a shared bus; the write
		// becomes visible (and the FLOW_MOD can be issued) only when its
		// bus slot completes.
		start := c.eng.Now()
		if c.busBusyUntil > start {
			start = c.busBusyUntil
		}
		commit := start + c.cfg.FlowBusService
		c.busBusyUntil = commit
		c.eng.At(commit, func() {
			if _, ok := c.nodes[n.id]; !ok {
				return // origin crashed before the bus slot
			}
			c.applyAndFanOut(n, ev, done)
		})
		return
	}
	c.applyAndFanOut(n, ev, done)
}

func (c *Cluster) applyAndFanOut(n *Node, ev Event, done func()) {
	n.apply(ev, true)
	for _, id := range c.ids {
		if id == n.id {
			continue
		}
		c.replicate(c.nodes[id], ev)
	}
	if done != nil {
		done()
	}
}

func (c *Cluster) strongWrite(n *Node, ev Event, done func()) {
	// Writes serialize through a cluster-wide commit order; each commit
	// costs the base plus one replication latency per remote replica
	// (synchronous acks), which is what throttles ODL as n grows.
	cost := c.cfg.CommitBase + time.Duration(len(c.nodes)-1)*c.cfg.ReplicationLatency
	start := c.eng.Now()
	if c.commitBusyUntil > start {
		start = c.commitBusyUntil
	}
	commit := start + cost
	c.commitBusyUntil = commit
	c.eng.At(commit, func() {
		if _, ok := c.nodes[n.id]; !ok {
			return // origin crashed before commit
		}
		n.apply(ev, true)
		for _, id := range c.ids {
			if id == n.id {
				continue
			}
			c.replicate(c.nodes[id], ev)
		}
		if done != nil {
			done()
		}
	})
}

func (c *Cluster) replicate(peer *Node, ev Event) {
	size := ev.WireSize()
	c.replBytes.Add(int64(size))
	c.replMsgs.Inc()
	delay := c.cfg.ReplicationLatency
	if c.cfg.ReplicationJitter > 0 {
		delay += time.Duration(c.eng.Rand().Int63n(int64(c.cfg.ReplicationJitter)))
	}
	if c.cfg.Consistency == Strong {
		// Replicas were already synchronized during commit; delivery to
		// the replica cache is immediate at commit time.
		delay = 0
	}
	id := peer.id
	if c.tracer != nil && ev.Tag != "" {
		// The store fan-out interval for a tainted write: send at the
		// origin to in-order apply at the replica.
		start := c.eng.Now()
		c.tracer.Emit(ev.Tag, "store-repl", "store/C"+strconv.Itoa(int(id)),
			start, start+delay, string(ev.Cache))
	}
	c.replicas.Schedule(delay, replica{id, ev})
}

// replica is one replication message in flight: an event for a peer.
type replica struct {
	to NodeID
	ev Event
}

func (c *Cluster) deliver(r replica) {
	if p, ok := c.nodes[r.to]; ok {
		p.applyInOrder(r.ev)
	}
}

// Node is one controller's replica of the cluster caches.
type Node struct {
	id      NodeID
	cluster *Cluster
	caches  map[CacheName]map[string]string
	seq     uint64

	listeners []Listener

	// in-order delivery per origin (TCP preserves update order, §IV-C)
	expected map[NodeID]uint64
	held     map[NodeID][]Event

	applied uint64
	digest  uint64
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Subscribe registers a listener for every event applied at this replica.
func (n *Node) Subscribe(l Listener) { n.listeners = append(n.listeners, l) }

// Write mutates a cache; done fires when the write is durable per the
// cluster's consistency model (may be nil).
func (n *Node) Write(cache CacheName, op Op, key, value string, done func()) {
	n.cluster.write(n, cache, op, key, value, "", done)
}

// WriteTagged mutates a cache like Write, additionally attributing the
// event to a trigger via tag.
func (n *Node) WriteTagged(cache CacheName, op Op, key, value, tag string, done func()) {
	n.cluster.write(n, cache, op, key, value, tag, done)
}

// Get reads a key from this replica's view.
func (n *Node) Get(cache CacheName, key string) (string, bool) {
	m, ok := n.caches[cache]
	if !ok {
		return "", false
	}
	v, ok := m[key]
	return v, ok
}

// Len returns the number of entries in a cache at this replica.
func (n *Node) Len(cache CacheName) int { return len(n.caches[cache]) }

// Keys returns the keys of a cache at this replica in sorted order, so
// module code iterating a cache visits entries deterministically.
func (n *Node) Keys(cache CacheName) []string {
	m := n.caches[cache]
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Applied returns the count of events applied at this replica.
func (n *Node) Applied() uint64 { return n.applied }

// Digest returns an order-insensitive digest of the set of events applied
// at this replica — the succinct per-controller state the validator
// snapshots for state-aware consensus (§IV-C). Replicas that have applied
// the same set of events report equal digests even if cross-origin
// interleaving differed.
func (n *Node) Digest() uint64 { return n.digest }

// applyInOrder delivers a replicated event, holding back out-of-order
// arrivals per origin so replicas observe each origin's updates in the
// order they occurred.
func (n *Node) applyInOrder(ev Event) {
	if n.expected == nil {
		n.expected = make(map[NodeID]uint64)
		n.held = make(map[NodeID][]Event)
	}
	want := n.expected[ev.Origin] + 1
	if ev.Seq != want {
		n.held[ev.Origin] = append(n.held[ev.Origin], ev)
		return
	}
	n.apply(ev, false)
	n.expected[ev.Origin] = ev.Seq
	// Release any held successors.
	for {
		released := false
		held := n.held[ev.Origin]
		for i, h := range held {
			if h.Seq == n.expected[ev.Origin]+1 {
				n.apply(h, false)
				n.expected[ev.Origin] = h.Seq
				n.held[ev.Origin] = append(held[:i], held[i+1:]...)
				released = true
				break
			}
		}
		if !released {
			return
		}
	}
}

func (n *Node) apply(ev Event, local bool) {
	m, ok := n.caches[ev.Cache]
	if !ok {
		m = make(map[string]string)
		n.caches[ev.Cache] = m
	}
	ev.Prev, ev.PrevOK = m[ev.Key]
	switch ev.Op {
	case OpDelete:
		delete(m, ev.Key)
	default:
		m[ev.Key] = ev.Value
	}
	if local {
		if n.expected == nil {
			n.expected = make(map[NodeID]uint64)
			n.held = make(map[NodeID][]Event)
		}
		n.expected[ev.Origin] = ev.Seq
	}
	n.applied++
	n.digest ^= EventDigest(ev)
	for _, l := range n.listeners {
		l(n.id, ev, local)
	}
}

// EventDigest hashes one event; node digests XOR-fold these so the digest
// depends on the set of applied events, not their interleaving. Because
// the fold is XOR, digest^EventDigest(ev) recovers the pre-apply digest.
// An event delivered by the store carries the hash Cluster.write took;
// any other event is hashed here.
func EventDigest(ev Event) uint64 {
	if ev.digested {
		return ev.digest
	}
	return eventDigest(ev)
}

// FNV-1a parameters, as hash/fnv's New64a.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// eventDigest is the 64-bit FNV-1a hash of the bytes
// fmt.Sprintf("%d|%d|%s|%d|%s|%s", Origin, Seq, Cache, Op, Key, Value)
// renders, computed without rendering them.
func eventDigest(ev Event) uint64 {
	var num [20]byte
	h := fnv1a(uint64(fnvOffset64), strconv.AppendInt(num[:0], int64(ev.Origin), 10))
	h = fnv1a(fnv1a(h, "|"), strconv.AppendUint(num[:0], ev.Seq, 10))
	h = fnv1a(fnv1a(fnv1a(h, "|"), ev.Cache), "|")
	h = fnv1a(h, strconv.AppendUint(num[:0], uint64(ev.Op), 10))
	h = fnv1a(fnv1a(fnv1a(h, "|"), ev.Key), "|")
	return fnv1a(h, ev.Value)
}

// fnv1a continues the FNV-1a hash h over the bytes of s.
func fnv1a[S ~string | ~[]byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}
