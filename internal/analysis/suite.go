package analysis

// SimPackages are the simulation-driven packages: everything in them runs
// as event handlers on the single simnet engine goroutine, so the full
// contract applies — no wall clock, no global RNG, no goroutines,
// channels or locks. openflow is pure computation consumed by event
// handlers and is held to the same contract; so is slab, the single-writer
// string carver the validator and the wire reader share, and loadgen, a
// single-goroutine event source on the virtual clock.
var SimPackages = []string{
	"simnet", "core", "controller", "dataplane", "store", "cluster",
	"faults", "workload", "trigger", "topo", "policy", "experiment",
	"openflow", "loadgen", "slab",
}

// BridgePackages carry event-driven components across real TCP and
// threads. They are allowed concurrency (no eventloop pass; their lock
// discipline is held by the -race tests, see DESIGN.md), but wall-clock
// reads must stay confined to annotated real-time boundary code.
// sweep is the experiment-orchestration bridge: it fans whole
// simulations across a worker pool, so it owns goroutines and channels
// but must stay deterministic from the outside. obs is the
// observability bridge: its tracer runs on the engine goroutine against
// virtual time, but its registry is scraped by a live exposition server
// that owns goroutines and reads the wall clock at one annotated boundary.
// wiretest is the wire bridge's fault-injection harness: its conn and
// listener wrappers run on real sockets from test goroutines, but their
// fault schedules are explicit calls — no timers, no randomness — so it
// is held to the same wall-clock discipline as the bridge it exercises.
// shard is the parallel validation plane: it multiplies the sim-contract
// validator core across worker goroutines with bounded channels, so it
// owns concurrency, but takes all timestamps from the workers' virtual
// engines — no wall-clock reads at all.
var BridgePackages = []string{"ofconn", "wire", "wire/wiretest", "sweep", "obs", "shard"}

// CmdPackages are the command-line drivers under cmd/. They are held to
// the bridge contract, not the sim contract: they own goroutines and
// channels freely (no eventloop pass), but wall-clock reads must stay in
// annotated boundary functions. Entries match import-path suffixes, so
// the entry keeps its "cmd/" element: a bare "jury" would also match the
// module root.
var CmdPackages = []string{"cmd/jury"}

// DefaultSuite is the analyzer configuration enforced by `jury lint` and
// the tier-1 verify gate for the module rooted at modulePath. The root
// facade package (modulePath itself) is simulation-driven too: it wires
// and runs everything on the engine, so it joins the sim lists.
func DefaultSuite(modulePath string) []*Analyzer {
	sim := append(append([]string{}, SimPackages...), modulePath)
	wallclockPkgs := append(append([]string{}, sim...), BridgePackages...)
	wallclockPkgs = append(wallclockPkgs, CmdPackages...)
	return []*Analyzer{
		NewWallclock(wallclockPkgs),
		NewEventloop(sim),
		NewErrCrit(modulePath),
		NewMaprange(sim),
	}
}
