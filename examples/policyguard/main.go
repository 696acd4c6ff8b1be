// Command policyguard demonstrates JURY's policy framework (§V): T3 faults
// write consistent-but-wrong entries to cache and network, so no amount of
// replica consensus can flag them — only administrator policies can. The
// example loads the paper's Fig. 3 policy from its XML form plus the
// match-field-hierarchy policy, fires both T3 faults from the catalog, and
// shows that (a) the policies catch them, and (b) without policies they
// sail through undetected.
package main

import (
	"fmt"
	"log"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/faults"
	"github.com/jurysdn/jury/internal/policy"
)

// policyXML is the administrator policy file: the Fig. 3 example extended
// to LinksDB, plus the match-hierarchy constraint used against the ODL
// incorrect-FLOW_MOD fault (§VII-A1(4)).
const policyXML = `<Policies>
  <Policy allow="No" name="no-proactive-topology-changes">
    <Controller id="*"/>
    <Action type="Internal"/>
    <Cache name="LinksDB" entry="*,*" operation="*"/>
    <Destination value="*"/>
  </Policy>
  <Policy allow="No" name="no-proactive-edge-changes">
    <Controller id="*"/>
    <Action type="Internal"/>
    <Cache name="EdgesDB" entry="*,*" operation="*"/>
    <Destination value="*"/>
  </Policy>
  <Policy allow="No" name="match-field-hierarchy">
    <Controller id="*"/>
    <Action type="*"/>
    <Cache name="FlowsDB" entry="*,*" operation="*" matchHierarchy="required"/>
    <Destination value="*"/>
  </Policy>
</Policies>`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	policies, err := policy.ParseXML([]byte(policyXML))
	if err != nil {
		return fmt.Errorf("parse policy file: %w", err)
	}
	fmt.Printf("== JURY policy guard: %d policies loaded ==\n", len(policies))

	withPolicies, err := fireT3Faults(policies)
	if err != nil {
		return err
	}
	withoutPolicies, err := fireT3Faults(nil)
	if err != nil {
		return err
	}

	fmt.Printf("\nwith policies:    %d policy alarms\n", len(withPolicies))
	for _, a := range withPolicies {
		fmt.Printf("  C%d: %s (detected in %v)\n", a.Offender, a.Reason, a.DetectionTime)
	}
	fmt.Printf("without policies: %d policy alarms — T3 faults are invisible to consensus alone (§III-B)\n",
		len(withoutPolicies))
	if len(withPolicies) < 2 || len(withoutPolicies) != 0 {
		return fmt.Errorf("unexpected outcome: %d with, %d without", len(withPolicies), len(withoutPolicies))
	}
	fmt.Println("OK")
	return nil
}

// fireT3Faults boots a cluster, fires the two T3 catalog faults, and
// returns the policy alarms raised.
func fireT3Faults(policies []policy.Policy) ([]core.Result, error) {
	sim, err := jury.New(jury.Config{
		Seed:        7,
		Kind:        jury.ONOS,
		ClusterSize: 5,
		EnableJury:  true,
		K:           4,
		Policies:    policies,
	})
	if err != nil {
		return nil, err
	}
	sim.Boot()

	// T3 #1: an application proactively marks a healthy link down — the
	// cache and network stay mutually consistent, just wrong. T3 #2: the
	// administrator installs a flow whose match violates the OpenFlow 1.0
	// field hierarchy; the permissive switch accepts it. Both rows fire
	// when armed.
	for _, kind := range []faults.Kind{faults.FaultyProactiveAction, faults.ODLIncorrectFlowMod} {
		sc, _ := jury.LookupScenario(kind)
		if _, err := sc.Arm(sim); err != nil {
			return nil, err
		}
	}

	// T3 faults need no data-plane traffic at all: their triggers are
	// internal, and only the cache-event stream reaches the validator.
	if err := sim.Run(2 * time.Second); err != nil {
		return nil, err
	}
	var alarms []core.Result
	for _, a := range sim.Validator().Alarms() {
		if a.Fault == core.FaultPolicy {
			alarms = append(alarms, a)
		} else {
			fmt.Printf("  (other alarm: %s C%d trig=%s %s)\n", a.Fault, a.Offender, a.Trigger, a.Reason)
		}
	}
	return alarms, nil
}
