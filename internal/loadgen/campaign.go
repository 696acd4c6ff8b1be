package loadgen

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/shard"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/sweep"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// CampaignConfig parameterizes a scale campaign: a sweep over
// (rate, shards) points, each streaming one loadgen window into a fresh
// sharded validation plane over a FatTree(K) fabric.
type CampaignConfig struct {
	// K is the fat-tree arity (even, ≥ 2). FatTree(8) is the default
	// deployment; FatTree(30) is the 1k-switch smoke point.
	K int
	// Hosts is the virtual endpoint population. 0 defaults to the
	// fabric's physical K³/4; larger values model oversubscribed edges
	// (indices wrap onto physical ports via topo.FatTreeAttach).
	Hosts uint64
	// Rates are the peak flow-arrival rates (triggers/s of virtual time)
	// to sweep. Required.
	Rates []float64
	// Shards are the plane widths to sweep. Required.
	Shards []int
	// Window is the virtual measurement window per point. Default 500ms.
	Window time.Duration
	// Replicas is the tainted secondary-execution fan-out per trigger —
	// the validator's k. Default 2.
	Replicas int
	// Timeout is the per-trigger validation deadline. Default 20ms.
	Timeout time.Duration
	// DropRate is the probability that a trigger's primary response is
	// lost in flight. The secondaries' replicated executions then have
	// side-effects the cluster never showed, so the trigger decides by
	// timer expiry as an omission alarm — the campaign's benign-load
	// false positives. 0 disables.
	DropRate float64
	// Diurnal and Churn shape the generated load (see Source).
	Diurnal DiurnalSpec
	Churn   ChurnSpec
	// RootSeed roots every point's seed via sweep's FNV derivation.
	RootSeed int64
	// Parallelism bounds the sweep worker pool; 0 = GOMAXPROCS.
	Parallelism int
	// Progress, when non-nil, receives sweep progress events.
	Progress sweep.ProgressFunc

	// SeriesEvery samples campaign time-series telemetry at this virtual
	// period: the dispatch loop raises a plane-wide Sync barrier at every
	// boundary and records the validator aggregates plus per-shard queue
	// diagnostics. Zero disables sampling. The series is delivered via
	// OnSeries, never through PointResult — the validator-aggregate
	// columns are deterministic, but the per-shard queue diagnostics are
	// wall-clock facts, and PointResult's purity contract excludes those.
	SeriesEvery time.Duration
	// OnSeries receives each point's completed time series. Called from
	// sweep worker goroutines (one call per point, after its window
	// closes); the hook must be safe for concurrent use across points.
	OnSeries func(pt CampaignPoint, seed int64, s *obs.Series)
	// FlightRing arms each point's plane with per-shard flight recorders
	// of this capacity (see shard.Config.FlightRing). Zero disables.
	FlightRing int
	// OnFlightDump receives flight dumps from any point's plane (fault
	// verdicts, queue saturation). Like OnSeries it must be safe for
	// concurrent use across points.
	OnFlightDump func(pt CampaignPoint, reason string, events []obs.Event)
}

// CampaignPoint is one parameter point; its canonical JSON is the
// sweep key the point seed derives from.
type CampaignPoint struct {
	Rate   float64       `json:"rate"`
	Shards int           `json:"shards"`
	Window time.Duration `json:"window_ns"` // virtual measurement window, part of the point identity
}

// PointResult is a point's deterministic outcome: every field is a pure
// function of (point, seed), bit-identical at any sweep parallelism.
// Wall-clock facts live on PointOutcome instead.
type PointResult struct {
	Events    uint64 // loadgen events streamed through the window
	Triggers  int64  // FlowArrival triggers submitted
	Decided   int64
	Valid     int64
	Faults    int64
	Timeouts  int64
	FPRate    float64 // benign campaign: every alarm is a false positive
	Untracked uint64  // flows past the Source's MaxActive bound
	// Detection-latency percentiles over all decided triggers.
	P50, P95, P99 time.Duration
	// PartitionX is triggers / bottleneck-shard load: the measured factor
	// by which FNV ownership divides the triggers (ideal: Shards). It is a
	// balance ratio, not a throughput.
	PartitionX float64
	// Digest is FNV-1a64 over the binary event stream — two runs agree
	// on it iff they generated byte-identical streams.
	Digest uint64
}

// PointOutcome pairs a point's deterministic result with its
// wall-clock execution facts from the sweep runner.
type PointOutcome struct {
	Point   CampaignPoint
	Seed    int64
	Result  PointResult
	Elapsed time.Duration // wall clock; not deterministic, excluded from Result
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Window == 0 {
		c.Window = 500 * time.Millisecond
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Timeout == 0 {
		c.Timeout = 20 * time.Millisecond
	}
	return c
}

// RunCampaign sweeps the (rate, shards) cross product. The fabric is
// built once and shared read-only across points; each point boots its
// own Source and Plane from its derived seed. Results come back in
// point order with per-point errors aggregated sweep-style.
func RunCampaign(ctx context.Context, cfg CampaignConfig) ([]PointOutcome, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Rates) == 0 || len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("loadgen: campaign needs at least one rate and one shard width")
	}
	top, err := topo.FatTree(cfg.K)
	if err != nil {
		return nil, err
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = uint64(top.NumHosts())
	}
	var points []CampaignPoint
	for _, r := range cfg.Rates {
		for _, s := range cfg.Shards {
			points = append(points, CampaignPoint{Rate: r, Shards: s, Window: cfg.Window})
		}
	}
	links := top.Links()
	dpids := make([]topo.DPID, 0, top.NumSwitches())
	for _, sw := range top.Switches() {
		dpids = append(dpids, sw.DPID)
	}
	results, err := sweep.Run(ctx, sweep.Config{
		RootSeed:    cfg.RootSeed,
		Parallelism: cfg.Parallelism,
		Progress:    cfg.Progress,
	}, points, func(ctx context.Context, pt sweep.Point[CampaignPoint]) (PointResult, error) {
		return runPoint(ctx, cfg, pt, links, dpids)
	})
	out := make([]PointOutcome, len(results))
	for i, r := range results {
		out[i] = PointOutcome{Point: r.Point.Params, Seed: r.Point.Seed, Result: r.Value, Elapsed: r.Elapsed}
	}
	return out, err
}

// runPoint streams one loadgen window into a fresh plane. The workload
// seeds from the rate and window alone, so every shard width at a given
// rate sees the byte-identical event stream — the widths are compared on
// the same load, and the digest equality across widths proves it. The
// dispatch loop is single-threaded, so the digest is computed exactly
// once, in generation order.
func runPoint(ctx context.Context, cfg CampaignConfig, pt sweep.Point[CampaignPoint], links []topo.Link, dpids []topo.DPID) (PointResult, error) {
	n := cfg.Replicas + 1
	members := make([]store.NodeID, n)
	for i := range members {
		members[i] = store.NodeID(i + 1)
	}
	mem := cluster.NewMembership(cluster.AnyControllerOneMaster, members, dpids)

	scfg := shard.Config{
		Shards:            pt.Params.Shards,
		Validator:         core.ValidatorConfig{K: cfg.Replicas, Timeout: cfg.Timeout},
		Members:           mem,
		TimeFromResponses: true,
		FlightRing:        cfg.FlightRing,
	}
	if cfg.OnFlightDump != nil {
		scfg.OnFlightDump = func(reason string, events []obs.Event) {
			cfg.OnFlightDump(pt.Params, reason, events)
		}
	}
	plane, err := shard.New(scfg)
	if err != nil {
		return PointResult{}, err
	}

	streamSeed := sweep.DeriveSeed(cfg.RootSeed,
		fmt.Sprintf("stream/rate=%g/window=%d", pt.Params.Rate, pt.Params.Window))
	src, err := NewSource(Config{
		Hosts:    cfg.Hosts,
		Links:    len(links),
		MeanRate: pt.Params.Rate,
		Diurnal:  cfg.Diurnal,
		Churn:    cfg.Churn,
		Seed:     streamSeed,
	})
	if err != nil {
		plane.Close()
		return PointResult{}, err
	}

	drop := rand.New(rand.NewSource(sweep.DeriveSeed(streamSeed, "drop")))
	digest := fnv.New64a()
	var buf [43]byte
	var res PointResult
	var id [17]byte

	// Campaign time series: sample at every SeriesEvery boundary behind a
	// plane-wide Sync barrier, so all shards sit at the sample's virtual
	// instant and the validator-aggregate columns are a pure function of
	// (point, seed). The per-shard queue diagnostics sampled alongside
	// them are wall-clock facts (saturation depends on worker
	// interleaving) — documented as such in the schema.
	var series *obs.Series
	var nextSample time.Duration
	if cfg.SeriesEvery > 0 && cfg.OnSeries != nil {
		cols := []obs.SeriesColumn{
			{Name: "events", Fn: func() float64 { return float64(res.Events) }},
			{Name: "triggers", Fn: func() float64 { return float64(res.Triggers) }},
			{Name: "decided", Fn: func() float64 { return float64(plane.Stats().Decided) }},
			{Name: "valid", Fn: func() float64 { return float64(plane.Stats().Valid) }},
			{Name: "faults", Fn: func() float64 { return float64(plane.Stats().Faults) }},
			{Name: "timeouts", Fn: func() float64 { return float64(plane.Stats().Timeouts) }},
			{Name: "pending", Fn: func() float64 { return float64(plane.Stats().Pending) }},
		}
		for i := 0; i < pt.Params.Shards; i++ {
			i := i
			cols = append(cols,
				obs.SeriesColumn{Name: fmt.Sprintf("shard%d_decided", i),
					Fn: func() float64 { return float64(plane.ShardDecided(i)) }},
				obs.SeriesColumn{Name: fmt.Sprintf("shard%d_queue_hwm", i),
					Fn: func() float64 { return float64(plane.QueueHighWatermark(i)) }},
			)
		}
		series = obs.NewSeries(cols...)
		nextSample = cfg.SeriesEvery
	}

	var batch []core.Response
	for {
		if err := ctx.Err(); err != nil {
			plane.Close()
			return PointResult{}, err
		}
		ev := src.Next()
		if ev.At > pt.Params.Window {
			break
		}
		for series != nil && ev.At >= nextSample && nextSample <= pt.Params.Window {
			plane.Sync(nextSample)
			series.Sample(nextSample)
			nextSample += cfg.SeriesEvery
		}
		hashEvent(digest, buf[:], ev)
		res.Events++
		// One event's responses are handed to the plane as one batch.
		var tid trigger.ID
		keep := true
		if ev.Kind == FlowArrival {
			res.Triggers++
			tid = triggerID(id[:], res.Triggers)
			keep = cfg.DropRate <= 0 || drop.Float64() >= cfg.DropRate
		}
		batch = AppendResponses(batch[:0], ev, members, links, tid, keep)
		plane.SubmitBatch(batch, 0)
	}
	// The stream ran dry or crossed the window: close out any remaining
	// sample boundaries so the series always spans the full window.
	for series != nil && nextSample <= pt.Params.Window {
		plane.Sync(nextSample)
		series.Sample(nextSample)
		nextSample += cfg.SeriesEvery
	}
	plane.Close()

	st := plane.Stats()
	res.Decided = st.Decided
	res.Valid = st.Valid
	res.Faults = st.Faults
	res.Timeouts = st.Timeouts
	res.FPRate = st.FalsePositiveRate()
	res.Untracked = src.Untracked()
	// The workers observe every detection time into the plane's shared
	// summary; the sorted percentiles do not depend on arrival order.
	detections := plane.Metrics().Histogram("jury_validator_detection_seconds", "")
	res.P50 = detections.Percentile(50)
	res.P95 = detections.Percentile(95)
	res.P99 = detections.Percentile(99)
	res.Digest = digest.Sum64()
	var bottleneck int64
	for s := 0; s < pt.Params.Shards; s++ {
		if d := plane.ShardDecided(s); d > bottleneck {
			bottleneck = d
		}
	}
	if bottleneck > 0 {
		res.PartitionX = float64(res.Triggers) / float64(bottleneck)
	}
	if series != nil {
		cfg.OnSeries(pt.Params, pt.Seed, series)
	}
	return res, nil
}

// AppendResponses appends to dst the validator responses ev stands for
// and returns the extended slice. It is the one event-to-response
// mapping, shared by the in-process campaign and `jury load -wire`:
//   - a FlowArrival is trigger tid: the primary's untainted FlowsDB write
//     (left out unless keepPrimary), then one tainted secondary execution
//     per other member, each a microsecond after the last;
//   - HostJoin/HostLeave and LinkFlap are untainted HostDB and LinksDB
//     updates.
//
// The issuing member is members[Src mod n] (members[Link mod n] for a
// flap). Every response carries the same state digest, so a benign
// stream decides valid; tid and keepPrimary are ignored for events other
// than FlowArrival.
func AppendResponses(dst []core.Response, ev Event, members []store.NodeID, links []topo.Link, tid trigger.ID, keepPrimary bool) []core.Response {
	n := uint64(len(members))
	switch ev.Kind {
	case FlowArrival:
		primary := members[ev.Src%n]
		r := core.Response{
			Controller: primary, Primary: primary, Trigger: tid, Kind: core.CacheUpdate,
			Cache: store.FlowsDB, Op: store.OpCreate, Key: fmt.Sprintf("flow/%d>%d", ev.Src, ev.Dst),
			Value: "fwd", StateDigest: 9, At: ev.At,
		}
		// The primary's authoritative cache write. Dropping it leaves the
		// secondaries' effects unmatched: an omission alarm at the
		// deadline — a false positive, since the load is benign.
		if keepPrimary {
			dst = append(dst, r)
		}
		r.Kind, r.Tainted = core.SecondaryExec, true
		for _, sec := range members {
			if sec != primary {
				r.Controller = sec
				r.At += time.Microsecond
				dst = append(dst, r)
			}
		}
	case HostJoin, HostLeave:
		op, val := store.OpUpdate, "join"
		if ev.Kind == HostLeave {
			op, val = store.OpDelete, "gone"
		}
		dst = append(dst, core.Response{
			Controller: members[ev.Src%n], Kind: core.CacheUpdate,
			Cache: store.HostDB, Op: op, Key: topo.HostMAC(int(ev.Src)).String(),
			Value: val, StateDigest: 9, At: ev.At,
		})
	case LinkFlap:
		val := "down"
		if ev.Up {
			val = "up"
		}
		dst = append(dst, core.Response{
			Controller: members[uint64(ev.Link)%n], Kind: core.CacheUpdate,
			Cache: store.LinksDB, Op: store.OpUpdate, Key: links[ev.Link].String(),
			Value: val, StateDigest: 9, At: ev.At,
		})
	}
	return dst
}

// triggerID formats a trigger ID into a reusable buffer; the returned
// string still allocates (trigger.ID is a string), but nothing else on
// the per-trigger path does.
func triggerID(buf []byte, n int64) trigger.ID {
	buf = buf[:0]
	buf = append(buf, 'g')
	buf = appendHex(buf, uint64(n))
	return trigger.ID(buf)
}

// appendHex appends n in fixed-width hex (16 digits) — fixed width keeps
// FNV shard assignment uncorrelated with ID length.
func appendHex(dst []byte, n uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, digits[(n>>uint(shift))&0xf])
	}
	return dst
}

// hashEvent folds one event into the stream digest using a fixed binary
// layout (no per-event allocation).
func hashEvent(h interface{ Write([]byte) (int, error) }, buf []byte, ev Event) {
	binary.BigEndian.PutUint64(buf[0:], uint64(ev.At))
	buf[8] = byte(ev.Kind)
	binary.BigEndian.PutUint64(buf[9:], ev.Src)
	binary.BigEndian.PutUint64(buf[17:], ev.Dst)
	binary.BigEndian.PutUint64(buf[25:], ev.Bytes)
	binary.BigEndian.PutUint64(buf[33:], uint64(ev.Link))
	if ev.Up {
		buf[41] = 1
	} else {
		buf[41] = 0
	}
	buf[42] = 0xa5    // frame marker
	h.Write(buf[:43]) //jurylint:allow errcrit -- hash.Hash.Write cannot fail
}
