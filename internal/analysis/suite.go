package analysis

// SimPackages are the simulation-driven packages: everything in them runs
// as event handlers on the single simnet engine goroutine, so the full
// contract applies — no wall clock, no global RNG, no goroutines,
// channels or locks. openflow is pure computation consumed by event
// handlers and is held to the same contract.
var SimPackages = []string{
	"simnet", "core", "controller", "dataplane", "store", "cluster",
	"faults", "workload", "trigger", "topo", "policy", "experiment",
	"openflow",
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
// loadgen is the streaming-workload bridge: its Source is single-
// goroutine on the virtual clock (it reads no wall clock anywhere), but
// its obs instruments are scraped by exporter goroutines and its
// campaign driver dispatches points through sweep's worker pool, so it
// is held to the bridge contract rather than the eventloop rule.
var BridgePackages = []string{"ofconn", "wire", "wire/wiretest", "sweep", "obs", "shard", "loadgen"}

// CmdPackages are the command-line drivers under cmd/. They are held to
// the bridge contract, not the sim contract: they own goroutines and
// channels freely (no eventloop pass), but wall-clock reads must stay in
// annotated boundary functions. Entries match import-path suffixes, so
// the entry keeps its "cmd/" element: a bare "jury" would also match the
// module root.
var CmdPackages = []string{"cmd/jury"}

// CriticalAPIs returns the FullName list of error-returning calls whose
// results must not be silently discarded, for a module rooted at
// modulePath: engine runs (a swallowed horizon error invalidates every
// measurement after it), REST flow installs, and the validator wire path.
func CriticalAPIs(modulePath string) []string {
	return []string{
		"(*" + modulePath + "/internal/simnet.Engine).Run",
		"(*" + modulePath + "/internal/simnet.Engine).RunUntilIdle",
		"(*" + modulePath + ".Simulation).Run",
		"(*" + modulePath + ".Simulation).InstallFlowREST",
		modulePath + ".ServeValidator",
		"(*" + modulePath + "/internal/core.System).InstallFlowREST",
		"(*" + modulePath + "/internal/wire.Client).Send",
		modulePath + "/internal/wire.Serve",
		modulePath + "/internal/wire.ServeListener",
		"(*" + modulePath + "/internal/wire.Server).WriteMetrics",
		modulePath + "/internal/openflow.WriteMessage",
		// Sweep orchestration: a dropped campaign error means figures are
		// silently missing points. Generic methods are listed in their
		// origin form (errcrit matches through (*types.Func).Origin).
		"(*" + modulePath + "/internal/sweep.Sweep[P, R]).Run",
		"(*" + modulePath + "/internal/sweep.Sweep[P, R]).Results",
		modulePath + "/internal/sweep.Run",
		// Observability exports: a swallowed write error means a trace or
		// metrics page silently truncated on disk or on the wire.
		"(*" + modulePath + "/internal/obs.Tracer).WriteJSONL",
		"(*" + modulePath + "/internal/obs.Tracer).WriteChromeTrace",
		"(*" + modulePath + "/internal/obs.Registry).WritePrometheus",
		modulePath + "/internal/obs.ServeExpo",
		// Observability v2: flight dumps, series and stitched traces are
		// evidence files — a swallowed write error loses the black box.
		modulePath + "/internal/obs.WriteEventsJSONL",
		"(*" + modulePath + "/internal/obs.Series).WriteJSONL",
		modulePath + "/internal/obs.WriteSpansJSONL",
		modulePath + "/internal/obs.StitchJSONL",
		modulePath + "/internal/obs.StitchChromeTrace",
		"(*" + modulePath + "/internal/wire.Server).WriteTrace",
		// Scale campaigns: a dropped campaign error means report rows are
		// silently missing points, same stakes as sweep.Run.
		modulePath + "/internal/loadgen.RunCampaign",
	}
}

// ErrcritPackages returns the import paths audited by errcritsync for a
// module rooted at modulePath: the packages whose exported error-returning
// APIs gate experiment validity — the engine, the validator core, the
// store, the wire path, protocol encode/decode, sweep orchestration and
// observability exports — plus the root facade.
func ErrcritPackages(modulePath string) []string {
	return []string{
		modulePath,
		modulePath + "/internal/simnet",
		modulePath + "/internal/core",
		modulePath + "/internal/store",
		modulePath + "/internal/wire",
		modulePath + "/internal/openflow",
		modulePath + "/internal/sweep",
		modulePath + "/internal/obs",
		modulePath + "/internal/shard",
		modulePath + "/internal/loadgen",
	}
}

// ErrcritWaived maps exported error-returning APIs in the audited
// packages that are deliberately NOT errcrit-enforced to a one-line
// justification. errcritsync fails the build when an API is in neither
// this table nor CriticalAPIs, so every waiver here is an explicit,
// reviewed decision rather than silence.
func ErrcritWaived(modulePath string) map[string]string {
	return map[string]string{
		// Constructors and setup-path APIs: their errors abort before any
		// measurement exists, and call sites cannot proceed on failure.
		modulePath + ".New": "constructor; a config error aborts before the engine runs",
		"(*" + modulePath + "/internal/core.System).AttachSwitch": "topology wiring; fails setup before any trigger flows",
		modulePath + "/internal/obs.NewExpoHandler":               "constructor; a nil handler fails the server loudly",
		modulePath + "/internal/sweep.New":                        "constructor; a bad campaign config aborts before any run",
		modulePath + "/internal/sweep.NewCache":                   "constructor; a cache open error disables caching, not results",
		modulePath + "/internal/shard.New":                        "constructor; a config error aborts before any worker starts",
		modulePath + "/internal/loadgen.NewSource":                "constructor; a config error aborts before any event is generated",
		modulePath + "/internal/wire.Dial":                        "connection setup; failure is the result the caller observes",
		modulePath + "/internal/wire.DialConfig":                  "connection setup; failure is the result the caller observes",

		// Decode/validation APIs: returning the error on malformed input
		// is the function's contract, and handling it is the caller's
		// control flow rather than an experiment-validity gate.
		modulePath + "/internal/openflow.Parse":                      "frame validation; malformed input is expected protocol flow",
		modulePath + "/internal/openflow.ParsePacket":                "frame validation; malformed input is expected protocol flow",
		modulePath + "/internal/openflow.ReadMessage":                "read-loop control flow; io.EOF terminates the loop",
		modulePath + "/internal/openflow.DecapsulatePacketIn":        "frame validation; malformed input is expected protocol flow",
		modulePath + "/internal/store.ParseOp":                       "input validation; returning the error is the contract",
		"(" + modulePath + "/internal/obs.EventKind).MarshalJSON":    "json.Marshaler contract; encoding/json surfaces the error",
		"(*" + modulePath + "/internal/obs.EventKind).UnmarshalJSON": "json.Unmarshaler contract; encoding/json surfaces the error",
		"(" + modulePath + "/internal/obs.Snapshot).MarshalJSON":     "json.Marshaler contract; encoding/json surfaces the error",
		"(*" + modulePath + "/internal/obs.Snapshot).UnmarshalJSON":  "json.Unmarshaler contract; encoding/json surfaces the error",
		modulePath + "/internal/sweep.PointKey":                      "key derivation; unmarshalable params surface at campaign setup",
		"(*" + modulePath + "/internal/wire.LineReader).ReadLine":    "read-loop control flow; io.EOF terminates the loop",
		"(*" + modulePath + "/internal/wire.BinReader).ReadEnvelope": "read-loop control flow; io.EOF terminates the loop",
		"(*" + modulePath + "/internal/wire.BinDecoder).Decode":      "frame validation; malformed input is expected protocol flow",
		modulePath + "/internal/wire.ParseCodec":                     "flag validation; a bad -codec value aborts before any connection",

		// Best-effort paths: a failure costs a retry or a diagnostic, not
		// result correctness.
		"(*" + modulePath + "/internal/sweep.Cache).Get":          "cache miss or read error falls back to recompute by design",
		"(*" + modulePath + "/internal/sweep.Cache).Put":          "best-effort write-behind; a failed put costs recompute only",
		"(*" + modulePath + "/internal/sweep.Cache).Len":          "diagnostic accessor",
		"(*" + modulePath + "/internal/wire.Client).RequestStats": "best-effort stats poll over a reconnecting link",
		"(*" + modulePath + "/internal/wire.Client).Close":        "best-effort shutdown",
		"(*" + modulePath + "/internal/wire.Server).Close":        "best-effort shutdown",
		"(*" + modulePath + "/internal/obs.Expo).Close":           "best-effort shutdown",
	}
}

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
		NewErrCrit(CriticalAPIs(modulePath)),
		NewMaprange(sim),
		NewErrCritSync(ErrCritSyncConfig{
			Packages: ErrcritPackages(modulePath),
			Curated:  CriticalAPIs(modulePath),
			Waived:   ErrcritWaived(modulePath),
			Anchor:   modulePath + "/internal/analysis.CriticalAPIs",
		}),
	}
}
