// Command faulthunt reproduces the detection experiment of §VII-A1: it
// walks JURY through the whole fault catalog — the real ONOS/ODL bugs of
// §III-B, the three synthetic faults, the appendix faults and the generic
// failures — injecting each into a 7-node cluster with full replication
// (k=6) and reporting whether and how fast the validator convicted the
// faulty controller.
package main

import (
	"fmt"
	"log"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== JURY fault hunt: the §VII-A1 detection experiment (n=7, k=6) ==")
	judged, convicted := 0, 0
	var detectionTimes obs.Distribution
	for i, sc := range jury.Catalog() {
		cfg := jury.Config{
			Seed:        int64(100 + i),
			Kind:        jury.ONOS,
			ClusterSize: 7,
			EnableJury:  true,
			K:           6,
		}
		if sc.Configure != nil {
			sc.Configure(&cfg)
		}
		sim, err := jury.New(cfg)
		if err != nil {
			return err
		}
		sim.Boot()
		fault, err := sc.Arm(sim)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Kind, err)
		}
		until := sim.Now() + 6*time.Second
		sim.Driver.Start(workload.ConstantRate(60), until)
		if err := sim.Run(7 * time.Second); err != nil {
			return err
		}
		origin := "synthetic"
		if sc.Real {
			origin = "real bug"
		}
		status := "not judged: no verdict class listed"
		if len(sc.Catches) > 0 {
			judged++
			status = fmt.Sprintf("MISSED (no %v alarm against C%d)", sc.Catches, fault.Target.ID())
			if a, ok := sc.Conviction(fault, sim.Validator().Alarms()); ok {
				convicted++
				detectionTimes.Add(a.DetectionTime)
				status = fmt.Sprintf("detected as %-15s offender=C%d in %8v", a.Fault, a.Offender, a.DetectionTime.Round(time.Microsecond))
			}
		}
		fmt.Printf("  %-11s %-28s (%s, injections=%d): %s\n", "["+string(sc.Class)+"]", sc.Kind, origin, fault.Injections(), status)
	}
	fmt.Printf("detected %d/%d faults that a verdict class convicts; detection time p50=%v max=%v\n",
		convicted, judged, detectionTimes.Percentile(50), detectionTimes.Max())
	if convicted < judged {
		return fmt.Errorf("missed faults")
	}
	return nil
}
