package workload

import (
	"math"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/dataplane"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/topo"
)

func newFabric(t *testing.T, n int) (*simnet.Engine, *dataplane.Fabric) {
	t.Helper()
	eng := simnet.NewEngine(3)
	top, err := topo.Linear(n)
	if err != nil {
		t.Fatal(err)
	}
	return eng, dataplane.NewFabric(eng, top)
}

func TestConstantRateArrivals(t *testing.T) {
	eng, fabric := newFabric(t, 4)
	d := NewDriver(eng, fabric)
	d.Start(ConstantRate(1000), 10*time.Second)
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := float64(d.Flows()) / 10
	if math.Abs(got-1000) > 100 {
		t.Fatalf("rate = %.0f/s, want ~1000", got)
	}
}

func TestStopHaltsArrivals(t *testing.T) {
	eng, fabric := newFabric(t, 2)
	d := NewDriver(eng, fabric)
	d.Start(ConstantRate(1000), time.Hour)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	n := d.Flows()
	d.Stop()
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Flows() != n {
		t.Fatalf("flows grew after Stop: %d -> %d", n, d.Flows())
	}
}

func TestSquareBurstProfile(t *testing.T) {
	p := SquareBurst(100, 1000, time.Second, 0.25)
	if got := p(100 * time.Millisecond); got != 1000 {
		t.Fatalf("peak phase = %v", got)
	}
	if got := p(800 * time.Millisecond); got != 100 {
		t.Fatalf("base phase = %v", got)
	}
	// Duty cycle out of range is clamped.
	if got := SquareBurst(5, 10, time.Second, 2)(0); got != 10 {
		t.Fatalf("clamped duty = %v", got)
	}
}

func TestSpoofedSourcesAreUnique(t *testing.T) {
	eng, fabric := newFabric(t, 2)
	d := NewDriver(eng, fabric)
	sw, _ := fabric.Switch(1)
	seen := make(map[openflow.MAC]bool)
	sw.SetSendUp(func(m openflow.Message) {
		if pin, ok := m.(*openflow.PacketIn); ok {
			if pf, err := openflow.ParsePacket(pin.Data, pin.InPort); err == nil {
				if seen[pf.EthSrc] {
					t.Fatalf("duplicate spoofed source %v", pf.EthSrc)
				}
				seen[pf.EthSrc] = true
			}
		}
	})
	sw2, _ := fabric.Switch(2)
	sw2.SetSendUp(func(openflow.Message) {})
	d.LocalPairs = false
	for i := 0; i < 100; i++ {
		d.InjectFlow()
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalPairsInjectAtDestinationSwitch(t *testing.T) {
	eng, fabric := newFabric(t, 3)
	d := NewDriver(eng, fabric)
	d.LocalPairs = true
	counts := make(map[topo.DPID]int)
	for _, sw := range fabric.Switches() {
		sw := sw
		sw.SetSendUp(func(m openflow.Message) {
			if pin, ok := m.(*openflow.PacketIn); ok {
				pf, _ := openflow.ParsePacket(pin.Data, pin.InPort)
				// The destination must be the host on this switch.
				h, ok := fabric.Topology().HostByMAC(pf.EthDst)
				if !ok || h.Attach.DPID != sw.DPID() {
					t.Errorf("flow at %v targets %v", sw.DPID(), pf.EthDst)
				}
				counts[sw.DPID()]++
			}
		})
	}
	for i := 0; i < 60; i++ {
		d.InjectFlow()
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(counts) < 2 {
		t.Fatalf("flows concentrated: %v", counts)
	}
}

func TestWarmupSendsARPs(t *testing.T) {
	eng, fabric := newFabric(t, 4)
	d := NewDriver(eng, fabric)
	arps := 0
	for _, sw := range fabric.Switches() {
		sw.SetSendUp(func(m openflow.Message) {
			if pin, ok := m.(*openflow.PacketIn); ok {
				if pf, err := openflow.ParsePacket(pin.Data, pin.InPort); err == nil && pf.EthType == openflow.EthTypeARP {
					arps++
				}
			}
		})
	}
	d.Warmup()
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if arps != 4 {
		t.Fatalf("warmup ARPs = %d, want one per host", arps)
	}
}

func TestHostJoinUsesFreshAddress(t *testing.T) {
	eng, fabric := newFabric(t, 2)
	d := NewDriver(eng, fabric)
	var srcs []openflow.MAC
	for _, sw := range fabric.Switches() {
		sw.SetSendUp(func(m openflow.Message) {
			if pin, ok := m.(*openflow.PacketIn); ok {
				if pf, err := openflow.ParsePacket(pin.Data, pin.InPort); err == nil {
					srcs = append(srcs, pf.EthSrc)
				}
			}
		})
	}
	d.InjectHostJoin()
	d.InjectHostJoin()
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 2 || srcs[0] == srcs[1] {
		t.Fatalf("joins = %v", srcs)
	}
	for _, h := range fabric.Topology().Hosts() {
		if h.MAC == srcs[0] {
			t.Fatal("join reused an existing host MAC")
		}
	}
}

func TestChurnFlapsLinks(t *testing.T) {
	eng, fabric := newFabric(t, 4)
	d := NewDriver(eng, fabric)
	d.StartChurn(0, time.Second, 5*time.Second)
	flapped := false
	for i := 1; i <= 50; i++ {
		eng.Schedule(time.Duration(i)*100*time.Millisecond, func() {
			for _, l := range fabric.Topology().Links() {
				if fabric.LinkDown(l.Src) {
					flapped = true
				}
			}
		})
	}
	if err := eng.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !flapped {
		t.Fatal("no link flap observed")
	}
	// All links restored at the end.
	for _, l := range fabric.Topology().Links() {
		if fabric.LinkDown(l.Src) {
			t.Fatal("link left down after churn window")
		}
	}
}

func TestCbenchBursts(t *testing.T) {
	eng, fabric := newFabric(t, 2)
	c := NewCbench(eng, fabric)
	c.BurstSize = 100
	c.Period = time.Second
	pins := 0
	for _, sw := range fabric.Switches() {
		sw.SetSendUp(func(m openflow.Message) {
			if _, ok := m.(*openflow.PacketIn); ok {
				pins++
			}
		})
	}
	c.Start(2500 * time.Millisecond)
	if err := eng.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Packets() != 300 {
		t.Fatalf("packets = %d, want 3 bursts × 100", c.Packets())
	}
	if pins == 0 {
		t.Fatal("no PACKET_INs generated")
	}
	c.Stop()
}

func TestTraceSpecsPreserveMeanRate(t *testing.T) {
	for _, spec := range Traces() {
		p := spec.Profile()
		// Integrate the profile over several periods.
		var sum float64
		samples := 10000
		span := 10 * spec.BurstPeriod
		if span == 0 {
			span = time.Second
		}
		for i := 0; i < samples; i++ {
			sum += p(time.Duration(i) * span / time.Duration(samples))
		}
		mean := sum / float64(samples)
		if math.Abs(mean-spec.MeanFlowRate)/spec.MeanFlowRate > 0.05 {
			t.Errorf("%s: profile mean %.1f, spec mean %.1f", spec.Name, mean, spec.MeanFlowRate)
		}
	}
}

func TestTracesDistinct(t *testing.T) {
	traces := Traces()
	if len(traces) != 3 {
		t.Fatalf("traces = %d", len(traces))
	}
	names := map[string]bool{}
	for _, tr := range traces {
		names[tr.Name] = true
	}
	if !names["LBNL"] || !names["UNIV"] || !names["SMIA"] {
		t.Fatalf("names = %v", names)
	}
}

func TestTraceByName(t *testing.T) {
	for _, name := range []string{"UNIV", "univ", "Univ"} {
		if spec, ok := TraceByName(name); !ok || spec.Name != "UNIV" {
			t.Fatalf("TraceByName(%q) = %q, %v", name, spec.Name, ok)
		}
	}
	if _, ok := TraceByName("nope"); ok {
		t.Fatal("unknown trace found")
	}
}

func TestNonSpoofedSourcesReuseRules(t *testing.T) {
	eng, fabric := newFabric(t, 2)
	d := NewDriver(eng, fabric)
	d.SpoofSources = false
	d.LocalPairs = true
	pins := 0
	for _, sw := range fabric.Switches() {
		sw.SetSendUp(func(m openflow.Message) {
			if _, ok := m.(*openflow.PacketIn); ok {
				pins++
			}
		})
	}
	// Without spoofing, the source is the destination host's own MAC (the
	// generator reuses real host identities), so repeated local flows to
	// the same host reuse the same (src,dst) pair.
	for i := 0; i < 10; i++ {
		d.InjectFlow()
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Every injection still misses (no controller installs rules here),
	// but the sources must repeat.
	if pins != 10 {
		t.Fatalf("packet-ins = %d", pins)
	}
}
