package store

import (
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"
	"time"

	"github.com/jurysdn/jury/internal/simnet"
)

func newEventualCluster(t *testing.T, n int) (*simnet.Engine, *Cluster, []*Node) {
	t.Helper()
	eng := simnet.NewEngine(1)
	c := NewCluster(eng, DefaultConfig(Eventual))
	var nodes []*Node
	for i := 1; i <= n; i++ {
		nodes = append(nodes, c.AddNode(NodeID(i)))
	}
	return eng, c, nodes
}

func TestEventualLocalApplyImmediate(t *testing.T) {
	_, _, nodes := newEventualCluster(t, 3)
	done := false
	nodes[0].Write(HostDB, OpCreate, "k", "v", func() { done = true })
	if !done {
		t.Fatal("eventual write done callback must fire immediately")
	}
	if v, ok := nodes[0].Get(HostDB, "k"); !ok || v != "v" {
		t.Fatal("local apply missing")
	}
	if _, ok := nodes[1].Get(HostDB, "k"); ok {
		t.Fatal("remote replica applied without delay")
	}
}

func TestEventualConvergence(t *testing.T) {
	eng, _, nodes := newEventualCluster(t, 5)
	for i := 0; i < 50; i++ {
		nodes[i%5].Write(HostDB, OpCreate, fmt.Sprintf("k%d", i), "v", nil)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if n.Len(HostDB) != 50 {
			t.Fatalf("node %d has %d entries, want 50", n.ID(), n.Len(HostDB))
		}
	}
	// Digests converge (order-insensitive).
	for _, n := range nodes[1:] {
		if n.Digest() != nodes[0].Digest() {
			t.Fatalf("digest mismatch: %x vs %x", n.Digest(), nodes[0].Digest())
		}
	}
}

func TestEventualPerOriginOrder(t *testing.T) {
	eng, _, nodes := newEventualCluster(t, 2)
	var got []string
	nodes[1].Subscribe(func(_ NodeID, ev Event, local bool) {
		if !local {
			got = append(got, ev.Value)
		}
	})
	for i := 0; i < 20; i++ {
		nodes[0].Write(HostDB, OpUpdate, "k", fmt.Sprintf("v%d", i), nil)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if v, _ := nodes[1].Get(HostDB, "k"); v != "v19" {
		t.Fatalf("final value = %s", v)
	}
}

func TestDeleteRemovesKey(t *testing.T) {
	eng, _, nodes := newEventualCluster(t, 2)
	nodes[0].Write(FlowsDB, OpCreate, "k", "v", nil)
	nodes[0].Write(FlowsDB, OpDelete, "k", "", nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if _, ok := n.Get(FlowsDB, "k"); ok {
			t.Fatalf("node %d still has deleted key", n.ID())
		}
	}
}

func TestStrongWriteSynchronous(t *testing.T) {
	eng := simnet.NewEngine(1)
	c := NewCluster(eng, DefaultConfig(Strong))
	n1 := c.AddNode(1)
	n2 := c.AddNode(2)
	n3 := c.AddNode(3)
	var doneAt time.Duration
	n1.Write(HostDB, OpCreate, "k", "v", func() { doneAt = eng.Now() })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Commit cost = base + 2 × replication latency = 0.5ms + 2ms.
	want := 2500 * time.Microsecond
	if doneAt != want {
		t.Fatalf("commit at %v, want %v", doneAt, want)
	}
	for _, n := range []*Node{n1, n2, n3} {
		if _, ok := n.Get(HostDB, "k"); !ok {
			t.Fatalf("node %d missing entry after commit", n.ID())
		}
	}
}

func TestStrongWritesSerialize(t *testing.T) {
	eng := simnet.NewEngine(1)
	c := NewCluster(eng, DefaultConfig(Strong))
	n1 := c.AddNode(1)
	c.AddNode(2)
	var times []time.Duration
	for i := 0; i < 3; i++ {
		n1.Write(HostDB, OpCreate, fmt.Sprintf("k%d", i), "v", func() {
			times = append(times, eng.Now())
		})
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	per := 1500 * time.Microsecond // base 0.5ms + 1 replica × 1ms
	for i, at := range times {
		want := time.Duration(i+1) * per
		if at != want {
			t.Fatalf("commit %d at %v, want %v", i, at, want)
		}
	}
}

func TestStrongCommitCostGrowsWithN(t *testing.T) {
	rate := func(n int) float64 {
		eng := simnet.NewEngine(1)
		c := NewCluster(eng, DefaultConfig(Strong))
		var nodes []*Node
		for i := 1; i <= n; i++ {
			nodes = append(nodes, c.AddNode(NodeID(i)))
		}
		count := 0
		for i := 0; i < 100; i++ {
			nodes[0].Write(FlowsDB, OpCreate, fmt.Sprintf("k%d", i), "v", func() { count++ })
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return float64(count) / eng.Now().Seconds()
	}
	r1, r7 := rate(1), rate(7)
	if r7 >= r1/3 {
		t.Fatalf("strong writes must slow with n: n=1 %.0f/s vs n=7 %.0f/s", r1, r7)
	}
}

func TestFlowBusSerializesFlowsDBOnly(t *testing.T) {
	eng := simnet.NewEngine(1)
	cfg := DefaultConfig(Eventual)
	cfg.FlowBusService = time.Millisecond
	c := NewCluster(eng, cfg)
	n1 := c.AddNode(1)
	c.AddNode(2)
	// Non-FlowsDB writes bypass the bus: done fires immediately.
	immediate := false
	n1.Write(HostDB, OpCreate, "h", "v", func() { immediate = true })
	if !immediate {
		t.Fatal("HostDB write should bypass the flow bus")
	}
	var times []time.Duration
	for i := 0; i < 3; i++ {
		n1.Write(FlowsDB, OpCreate, fmt.Sprintf("k%d", i), "v", func() {
			times = append(times, eng.Now())
		})
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, at := range times {
		want := time.Duration(i+1) * time.Millisecond
		if at != want {
			t.Fatalf("bus commit %d at %v, want %v", i, at, want)
		}
	}
}

func TestFlowBusDisabledAtN1(t *testing.T) {
	eng := simnet.NewEngine(1)
	cfg := DefaultConfig(Eventual)
	cfg.FlowBusService = time.Millisecond
	c := NewCluster(eng, cfg)
	n1 := c.AddNode(1)
	done := false
	n1.Write(FlowsDB, OpCreate, "k", "v", func() { done = true })
	if !done {
		t.Fatal("single-node cluster must not pay the backup bus")
	}
}

func TestListenersSeeLocalAndRemote(t *testing.T) {
	eng, _, nodes := newEventualCluster(t, 2)
	var locals, remotes int
	nodes[0].Subscribe(func(_ NodeID, _ Event, local bool) {
		if local {
			locals++
		} else {
			remotes++
		}
	})
	nodes[0].Write(HostDB, OpCreate, "a", "1", nil)
	nodes[1].Write(HostDB, OpCreate, "b", "2", nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if locals != 1 || remotes != 1 {
		t.Fatalf("locals=%d remotes=%d", locals, remotes)
	}
}

func TestEventTagPropagates(t *testing.T) {
	eng, _, nodes := newEventualCluster(t, 2)
	var gotTag string
	nodes[1].Subscribe(func(_ NodeID, ev Event, _ bool) { gotTag = ev.Tag })
	nodes[0].WriteTagged(FlowsDB, OpCreate, "k", "v", "trigger-42", nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if gotTag != "trigger-42" {
		t.Fatalf("tag = %q", gotTag)
	}
}

func TestRemoveNodeStopsReplication(t *testing.T) {
	eng, c, nodes := newEventualCluster(t, 3)
	c.RemoveNode(3)
	nodes[0].Write(HostDB, OpCreate, "k", "v", nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if _, ok := nodes[2].Get(HostDB, "k"); ok {
		t.Fatal("removed node received replication")
	}
	if c.Size() != 2 {
		t.Fatalf("size = %d", c.Size())
	}
}

func TestReplicationAccounting(t *testing.T) {
	eng, c, nodes := newEventualCluster(t, 3)
	nodes[0].Write(HostDB, OpCreate, "key", "value", nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if c.ReplicationMessages() != 2 {
		t.Fatalf("messages = %d, want 2", c.ReplicationMessages())
	}
	if c.ReplicationBytes() <= 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestDigestOrderInsensitive(t *testing.T) {
	evA := Event{Origin: 1, Seq: 1, Cache: HostDB, Op: OpCreate, Key: "a", Value: "1"}
	evB := Event{Origin: 2, Seq: 1, Cache: HostDB, Op: OpCreate, Key: "b", Value: "2"}
	d1 := EventDigest(evA) ^ EventDigest(evB)
	d2 := EventDigest(evB) ^ EventDigest(evA)
	if d1 != d2 {
		t.Fatal("XOR fold must be order-insensitive")
	}
}

// refEventDigest is the fmt form eventDigest is held to.
func refEventDigest(ev Event) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%d|%s|%s", ev.Origin, ev.Seq, ev.Cache, ev.Op, ev.Key, ev.Value)
	return h.Sum64()
}

// TestEventDigestMatchesFmtForm holds the fmt-free digest to the FNV-1a of
// the fmt rendering, for events built outside Cluster.write (no carried
// hash) — including negative and zero origins, extreme sequence numbers
// and ops, empty and non-ASCII text, and '|' inside the key or value — and
// for events delivered through the store, whose carried hash must be the
// same value.
func TestEventDigestMatchesFmtForm(t *testing.T) {
	events := []Event{
		{},
		{Origin: 0, Seq: 0, Cache: "", Op: 0, Key: "", Value: ""},
		{Origin: -1, Seq: 1, Cache: FlowsDB, Op: OpCreate, Key: "k", Value: "v"},
		{Origin: -9223372036854775808, Seq: 1<<64 - 1, Cache: HostDB, Op: 255, Key: "a", Value: ""},
		{Origin: 7, Seq: 42, Cache: EdgesDB, Op: OpDelete, Key: "", Value: "x"},
		{Origin: 3, Seq: 9, Cache: "τ-cache", Op: OpUpdate, Key: "clé→ü", Value: "値\xff\x00"},
		{Origin: 1, Seq: 2, Cache: LinksDB, Op: OpUpdate, Key: "a|b", Value: "c|d|"},
		{Origin: 1, Seq: 2, Cache: LinksDB, Op: OpUpdate, Key: "a", Value: "b|c|d|"},
		{Origin: 12, Seq: 100, Cache: "|", Op: OpCreate, Key: "|", Value: "|", Tag: "ignored", Prev: "p", PrevOK: true},
	}
	for _, ev := range events {
		want := refEventDigest(ev)
		if got := eventDigest(ev); got != want {
			t.Errorf("eventDigest(%+v) = %#x, fmt form %#x", ev, got, want)
		}
		if got := EventDigest(ev); got != want {
			t.Errorf("EventDigest(%+v) = %#x, fmt form %#x", ev, got, want)
		}
	}
	if events[6] == events[7] || eventDigest(events[6]) != eventDigest(events[7]) {
		t.Error("rows 6 and 7 render the same bytes and must hash alike")
	}
	prop := func(origin int64, seq uint64, cache string, op uint8, key, value string) bool {
		ev := Event{Origin: NodeID(origin), Seq: seq, Cache: CacheName(cache), Op: Op(op), Key: key, Value: value}
		return EventDigest(ev) == refEventDigest(ev)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}

	eng, _, nodes := newEventualCluster(t, 3)
	var seen []Event
	nodes[2].Subscribe(func(_ NodeID, ev Event, _ bool) { seen = append(seen, ev) })
	var fold uint64
	for i, ev := range events[1:] {
		nodes[i%3].WriteTagged(ev.Cache, ev.Op, ev.Key, ev.Value, ev.Tag, nil)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(events)-1 {
		t.Fatalf("replica saw %d events, want %d", len(seen), len(events)-1)
	}
	for _, ev := range seen {
		if !ev.digested {
			t.Fatalf("%v delivered without its carried hash", ev)
		}
		want := refEventDigest(ev)
		if got := EventDigest(ev); got != want {
			t.Errorf("carried digest of %v = %#x, fmt form %#x", ev, got, want)
		}
		fold ^= want
	}
	if got := nodes[2].Digest(); got != fold {
		t.Errorf("replica digest %#x, XOR of fmt-form digests %#x", got, fold)
	}
}

func TestOpStrings(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{OpCreate, "create"},
		{OpUpdate, "update"},
		{OpDelete, "delete"},
	}
	for _, tt := range tests {
		if tt.op.String() != tt.want {
			t.Fatalf("%v != %s", tt.op, tt.want)
		}
		back, err := ParseOp(tt.want)
		if err != nil || back != tt.op {
			t.Fatalf("ParseOp(%s) = %v, %v", tt.want, back, err)
		}
	}
	if _, err := ParseOp("truncate"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestConsistencyStrings(t *testing.T) {
	if Eventual.String() != "eventual" || Strong.String() != "strong" {
		t.Fatal("consistency names wrong")
	}
}

func TestEventualDigestsConvergeProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := simnet.NewEngine(11)
		c := NewCluster(eng, DefaultConfig(Eventual))
		var nodes []*Node
		for i := 1; i <= 3; i++ {
			nodes = append(nodes, c.AddNode(NodeID(i)))
		}
		for i, op := range ops {
			n := nodes[int(op)%3]
			switch (op / 3) % 3 {
			case 0:
				n.Write(HostDB, OpCreate, fmt.Sprintf("k%d", i%7), "v", nil)
			case 1:
				n.Write(HostDB, OpUpdate, fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d", i), nil)
			case 2:
				n.Write(HostDB, OpDelete, fmt.Sprintf("k%d", i%7), "", nil)
			}
		}
		if err := eng.RunUntilIdle(); err != nil {
			return false
		}
		// Digests converge (same applied set). Map contents may differ
		// when independent origins race on one key: replicas apply in
		// arrival order (last-arrival-wins, like an unversioned
		// Hazelcast map), which is exactly the inconsistency JURY's
		// state-aware consensus has to tolerate.
		for _, n := range nodes[1:] {
			if n.Digest() != nodes[0].Digest() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashedOriginDoesNotCommitStrongWrite(t *testing.T) {
	eng := simnet.NewEngine(1)
	c := NewCluster(eng, DefaultConfig(Strong))
	n1 := c.AddNode(1)
	n2 := c.AddNode(2)
	fired := false
	n1.Write(HostDB, OpCreate, "k", "v", func() { fired = true })
	c.RemoveNode(1) // crash before commit completes
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("crashed origin's write committed")
	}
	if _, ok := n2.Get(HostDB, "k"); ok {
		t.Fatal("replica applied write from crashed origin")
	}
}
