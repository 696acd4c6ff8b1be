package analysis

// SimPackages are the simulation-driven packages, where maprange
// applies: everything in them runs as event handlers on the single
// simnet engine goroutine and feeds fingerprinted, figure-producing
// output, so a map range whose visit order reaches that output makes a
// run unrepeatable. openflow is pure computation consumed by event
// handlers; slab is the single-writer string carver the validator and
// the wire reader share; loadgen is a single-goroutine event source on
// the virtual clock.
var SimPackages = []string{
	"simnet", "core", "controller", "dataplane", "store", "cluster",
	"faults", "workload", "trigger", "topo", "policy", "experiment",
	"openflow", "loadgen", "slab",
}

// DefaultSuite is the analyzer configuration TestRepoIsLintClean holds
// the module rooted at modulePath to. The root facade package
// (modulePath itself) is simulation-driven too: it wires and runs
// everything on the engine, so maprange covers it.
func DefaultSuite(modulePath string) []*Analyzer {
	return []*Analyzer{
		NewErrCrit(modulePath),
		NewMaprange(append(append([]string{}, SimPackages...), modulePath)),
	}
}
