package jury_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/workload"
)

// simFingerprint is everything TestSimFingerprint pins about one run.
type simFingerprint struct {
	processed, flows, decided, alarms, replMsgs int64
	digests                                     [7]uint64
	tableSum                                    int
	tableHash                                   uint64
}

func (f simFingerprint) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "processed=%d flows=%d decided=%d alarms=%d repl=%d tables=%d/%#016x digests=",
		f.processed, f.flows, f.decided, f.alarms, f.replMsgs, f.tableSum, f.tableHash)
	for i, d := range f.digests {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%#016x", d)
	}
	return b.String()
}

// TestSimFingerprint pins the simulated ONOS n=7 pipeline the sim-onos7
// benchmark drives (seed 1, LocalPairs, 3000 flows/s) to the exact
// event count, verdicts, replication traffic, per-replica store digests
// and installed flow entries (count, and a hash of every table in order)
// of a short run, stopped with the driver still injecting so replicas
// are caught mid-replication. Any change here is a behaviour change of
// the simulator, not a figure to refresh: performance work on the
// dataplane, store and controller layers must leave every simulated
// event where it was.
func TestSimFingerprint(t *testing.T) {
	sim, err := jury.New(jury.Config{Seed: 1, Kind: jury.ONOS, ClusterSize: 7, EnableJury: true})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(3000), sim.Now()+2*time.Second)
	if err := sim.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	v := sim.Validator()
	got := simFingerprint{
		processed: int64(sim.Engine.Processed()),
		flows:     sim.Driver.Flows(),
		decided:   v.Decided(),
		alarms:    int64(len(v.Alarms())),
		replMsgs:  sim.Store.ReplicationMessages(),
	}
	for i := range got.digests {
		got.digests[i] = sim.Controller(i + 1).Node().Digest()
	}
	h := fnv.New64a()
	for _, sw := range sim.Fabric.Switches() {
		table := sw.Table()
		got.tableSum += len(table)
		for _, e := range table {
			fmt.Fprintf(h, "%s|%s|%d|%d|%d;", sw.DPID(), e.Match, e.Priority, e.Packets, e.InstalledAt)
		}
	}
	got.tableHash = h.Sum64()
	want := simFingerprint{
		processed: 351100, flows: 6083, decided: 6516, alarms: 0, replMsgs: 38076,
		digests: [7]uint64{
			0xb90c4e387a6fe431, 0x86e8059f500740f9, 0xc318c2b10e88ad35, 0xb90c4e387a6fe431,
			0x86e8059f500740f9, 0xfcfc891624e009fd, 0xfcfc891624e009fd,
		},
		tableSum: 6060, tableHash: 0xacb043ca6e811c42,
	}
	if got != want {
		t.Errorf("simulation fingerprint moved:\n got %v\nwant %v", got, want)
	}
}

// TestSimAllocBudget is the simulator's allocation gate: heap
// allocations per injected flow over a steady-state window of the
// sim-onos7 set-up (ONOS n=7, seed 1, LocalPairs, 3000 flows/s, after a
// one-second warm-up) stay within 240. They were 312 with a heap event
// per schedule and a closure per message at the hot sites, and are about
// 147 on the engine's slab with typed, pre-bound deliveries.
func TestSimAllocBudget(t *testing.T) {
	sim, err := jury.New(jury.Config{Seed: 1, Kind: jury.ONOS, ClusterSize: 7, EnableJury: true})
	if err != nil {
		t.Fatal(err)
	}
	sim.Boot()
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(3000), sim.Now()+24*time.Hour)
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	flows := sim.Driver.Flows()
	runtime.ReadMemStats(&before)
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	flows = sim.Driver.Flows() - flows
	perFlow := float64(after.Mallocs-before.Mallocs) / float64(flows)
	if flows < 2000 || perFlow > 240 {
		t.Fatalf("%.1f allocations per flow over %d flows; budget 240 over at least 2000", perFlow, flows)
	}
	t.Logf("%.1f allocations per flow over %d flows", perFlow, flows)
}
