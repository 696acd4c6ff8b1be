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

// fingerprint reads sim's simFingerprint.
func fingerprint(sim *jury.Simulation) simFingerprint {
	v := sim.Validator()
	f := simFingerprint{
		processed: int64(sim.Engine.Processed()),
		flows:     sim.Driver.Flows(),
		decided:   v.Decided(),
		alarms:    int64(len(v.Alarms())),
		replMsgs:  sim.Store.ReplicationMessages(),
	}
	for i := range f.digests {
		f.digests[i] = sim.Controller(i + 1).Node().Digest()
	}
	h := fnv.New64a()
	for _, sw := range sim.Fabric.Switches() {
		table := sw.Table()
		f.tableSum += len(table)
		for _, e := range table {
			fmt.Fprintf(h, "%s|%s|%d|%d|%d;", sw.DPID(), e.Match, e.Priority, e.Packets, e.InstalledAt)
		}
	}
	f.tableHash = h.Sum64()
	return f
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
	got := fingerprint(sim)
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

// TestSimFingerprintMultiHop pins the multi-hop forwarding path the
// same way: Linear24 ONOS n=7 (seed 1) under the UNIV benign trace model
// for two virtual seconds, with flows entering at a random edge switch,
// so each flow misses hop by hop and every PACKET_IN reads the
// controller's LinksDB path and egress ports. With spoofed sources, as
// the benign-trace sweep runs it, every packet misses every table. With
// the hosts' own sources, repeated host pairs hit the entries earlier
// flows installed, so the hashed packet counts pin which entry each
// Lookup picked.
func TestSimFingerprintMultiHop(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoof bool
		want  simFingerprint
	}{
		{"spoofed", true, simFingerprint{
			processed: 359208, flows: 748, decided: 7095, alarms: 0, replMsgs: 39432,
			digests: [7]uint64{
				0xb06d3d105a6bc776, 0x52102fd7e2bb3cf4, 0x52102fd7e2bb3cf4, 0x45c21627b231ac36,
				0xc7e83f6422a26223, 0x4dcca4a21b90bba4, 0x52102fd7e2bb3cf4,
			},
			tableSum: 6286, tableHash: 0x9a8c67db9daca2ec,
		}},
		{"host-pairs", false, simFingerprint{
			processed: 231246, flows: 739, decided: 4484, alarms: 0, replMsgs: 25062,
			digests: [7]uint64{
				0x644bc9737c6225ac, 0x644bc9737c6225ac, 0x644bc9737c6225ac, 0x644bc9737c6225ac,
				0x644bc9737c6225ac, 0x644bc9737c6225ac, 0x644bc9737c6225ac,
			},
			tableSum: 3696, tableHash: 0x64b97d0c1eb77e45,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := jury.New(jury.Config{Seed: 1, Kind: jury.ONOS, ClusterSize: 7, EnableJury: true})
			if err != nil {
				t.Fatal(err)
			}
			sim.Boot()
			spec := workload.UNIVTrace()
			until := sim.Now() + 2*time.Second
			sim.Driver.LocalPairs = false
			sim.Driver.SpoofSources = tc.spoof
			sim.Driver.Start(spec.Profile(), until)
			sim.Driver.StartChurn(spec.JoinEvery, spec.FlapEvery, until)
			if err := sim.Run(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(sim); got != tc.want {
				t.Errorf("simulation fingerprint moved:\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

// TestSimAllocBudget is the simulator's allocation gate: heap
// allocations per injected flow over a steady-state window of the
// sim-onos7 set-up (ONOS n=7, seed 1, LocalPairs, 3000 flows/s, after a
// one-second warm-up) stay within 71.5. They were 312 with a heap event
// per schedule and a closure per message at the hot sites, 147.3 on the
// engine's slab with typed, pre-bound deliveries, 140.4 once the LinksDB
// view memoized paths, and measure 69.5 over 3 073 flows since messages
// are sized by Len instead of Marshal and the replica path recycles its
// jobs, hook arguments, contexts and scratch slices; 71.5 is about 3 %
// above that, so a regression of two allocations per flow fails here
// before the benchmark's 5 % allocs_per_trigger bound would.
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
	if flows < 2000 || perFlow > 71.5 {
		t.Fatalf("%.1f allocations per flow over %d flows; budget 71.5 over at least 2000, set about 3 %% above the 69.5 per flow this window measured over 3073 flows", perFlow, flows)
	}
	t.Logf("%.1f allocations per flow over %d flows", perFlow, flows)
}
