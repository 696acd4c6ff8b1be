package experiment

import (
	"testing"
	"time"

	jury "github.com/jurysdn/jury"
)

func TestDetectionRunner(t *testing.T) {
	res, err := Detection(DetectionConfig{
		Kind: jury.ONOS, N: 3, K: 2,
		BaseRate: 100, PeakRate: 200,
		Duration: 2 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decided == 0 || res.Detections.Count() == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.PacketIns <= 0 {
		t.Fatal("no packet-in rate measured")
	}
}

func TestDetectionTraceRunner(t *testing.T) {
	res, err := Detection(DetectionConfig{
		Kind: jury.ONOS, N: 3, K: 2,
		Trace:    "LBNL",
		Timeout:  130 * time.Millisecond,
		Duration: 2 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decided == 0 {
		t.Fatal("trace run decided nothing")
	}
	if _, err := Detection(DetectionConfig{Trace: "NOPE", Duration: time.Second}); err == nil {
		t.Fatal("unknown trace accepted")
	}
}

func TestThroughputRunner(t *testing.T) {
	pt, err := Throughput(ThroughputConfig{Kind: jury.ONOS, N: 3, JuryK: -1, Offered: 1000, Duration: 2 * time.Second}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pt.FlowMods < 700 || pt.FlowMods > 1100 {
		t.Fatalf("flow mods = %.0f, want ~1000", pt.FlowMods)
	}
	withJury, err := Throughput(ThroughputConfig{Kind: jury.ONOS, N: 3, JuryK: 2, Offered: 1000, Duration: 2 * time.Second}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if withJury.JuryK != 2 || withJury.FlowMods == 0 {
		t.Fatalf("jury point = %+v", withJury)
	}
}

func TestCbenchRunner(t *testing.T) {
	res, err := Cbench(CbenchConfig{Burst: 2000, Duration: 4 * time.Second}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seconds) == 0 {
		t.Fatal("no series")
	}
	var peak float64
	for _, v := range res.PacketIns {
		if v > peak {
			peak = v
		}
	}
	if peak < 1500 {
		t.Fatalf("peak packet-in = %.0f", peak)
	}
}

func TestDecapsulationRunner(t *testing.T) {
	d, err := Decapsulation(DecapsulationConfig{Rate: 50, Duration: 2 * time.Second}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() == 0 {
		t.Fatal("no decap samples")
	}
}

func TestOverheadRunner(t *testing.T) {
	res, err := Overhead(jury.ONOS, 3, 2, 500, 2*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.InterControllerMbps <= 0 || res.JuryShareOfControlPct <= 0 {
		t.Fatalf("overhead result = %+v", res)
	}
}

func TestPacketOutRunner(t *testing.T) {
	rate, err := PacketOutThroughput(5000, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 2000 {
		t.Fatalf("packet-out rate = %.0f", rate)
	}
}
