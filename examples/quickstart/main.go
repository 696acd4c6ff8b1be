// Command quickstart boots a 3-node JURY-enhanced ONOS-like cluster on the
// 24-switch linear topology, drives benign traffic, injects one real fault
// from the paper (the ONOS database-locking bug of §III-B), and shows the
// validator detecting it with precise attribution.
package main

import (
	"fmt"
	"log"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/faults"
	"github.com/jurysdn/jury/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sim, err := jury.New(jury.Config{
		Seed:        1,
		Kind:        jury.ONOS,
		ClusterSize: 3,
		EnableJury:  true,
		K:           2,
	})
	if err != nil {
		return err
	}

	fmt.Println("== JURY quickstart ==")
	fmt.Printf("cluster: n=%d (%s), k=%d, validation timeout %v\n",
		sim.Config.ClusterSize, sim.Config.Kind, sim.Config.K, sim.Config.ValidationTimeout)

	boot := sim.Boot()
	fmt.Printf("boot: topology discovered and hosts learned in %v (virtual)\n", boot)

	// Print alarms as the validator raises them.
	sim.Validator().OnResult = func(r core.Result) {
		if r.Verdict == core.VerdictFault {
			fmt.Printf("  ALARM [%v] %s fault at C%d: %s (trigger %s, detected in %v)\n",
				r.DecidedAt, r.Fault, r.Offender, r.Reason, r.Trigger, r.DetectionTime)
		}
	}

	// Benign traffic for a while.
	until := sim.Now() + 3*time.Second
	sim.Driver.Start(workload.ConstantRate(100), until)
	if err := sim.Run(3 * time.Second); err != nil {
		return err
	}
	v := sim.Validator()
	fmt.Printf("benign phase: %d controller actions validated, %d alarms\n",
		v.Decided(), v.Faults())

	// Arm the catalog's ONOS database-locking fault: C1 reconnects one of
	// its switches, and the FEATURES_REPLY trigger's SwitchDB write fails
	// at the primary while the replicated executions succeed.
	sc, _ := jury.LookupScenario(faults.ONOSDatabaseLocking)
	fault, err := sc.Arm(sim)
	if err != nil {
		return err
	}
	fmt.Printf("injecting: %s: %s\n", fault, sc.Description)

	until = sim.Now() + 2*time.Second
	sim.Driver.Start(workload.ConstantRate(100), until)
	if err := sim.Run(2 * time.Second); err != nil {
		return err
	}

	fmt.Printf("total: %d actions validated, %d valid, %d alarms, detection p50=%v p95=%v\n",
		v.Decided(), v.Valid(), v.Faults(),
		v.DetectionsExternal.Percentile(50), v.DetectionsExternal.Percentile(95))
	if v.Faults() == 0 {
		return fmt.Errorf("expected the injected fault to be detected")
	}
	fmt.Println("OK: injected fault detected")
	return nil
}
