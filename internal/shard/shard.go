// Package shard is the parallel validation plane: it scales JURY's
// out-of-band validator (internal/core, Algorithm 1) across N worker
// goroutines by partitioning triggers over per-shard bounded queues.
//
// It is the only sharding layer and the only package that hashes a
// trigger: a thin dispatcher maps Response.Trigger onto a shard
// (ShardForTrigger); each worker owns a private simnet engine and a
// core.Validator — the paper's single decision loop — outright, so every
// pending map, Ψ table and timer has exactly one writer and the sim
// contract holds inside each worker. One shard is one worker: the live
// service always fronts a Plane, at any width. Untainted responses are
// broadcast to every worker (ψ updates keep all shards' view of
// controller state identical); tainted responses go only to the owning
// shard. Because each trigger's response subsequence is delivered in
// submission order to a single owner, and worker engines advance to each
// response's virtual timestamp before submitting, verdicts are identical
// at any shard count for a fixed input — the wall-clock interleaving of
// workers is invisible in the results.
//
// The unit of hand-off is a batch, not a response: SubmitBatch partitions
// what one caller has in hand into one pooled slice per addressed shard
// (submission order kept, owner copies and Ψ-only copies side by side) and
// enqueues one small item per shard that also carries the advance target,
// so a shard's queue, channel operation and wake-up are paid per batch.
// Submit is the one-element case of the same path.
//
// Concurrency contract: Submit, SubmitBatch, Advance, Sync, Drain,
// TraceSpans, Kill, Stop and Close form the dispatch side and must be
// serialized by the caller (one dispatcher goroutine, or an external lock —
// the wire server uses its own mutex). The stats accessors (Decided, Faults, Pending,
// Alarms, ...) and a scrape of Metrics() are safe from any goroutine at
// any time: they read atomic counters, immutable snapshots and internally
// locked histograms. The cluster membership handed to New must not be
// mutated while the plane runs.
//
// This package is a jurylint concurrency bridge: it owns goroutines and
// channels, unlike the sim-contract core it multiplies.
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/trigger"
)

// DefaultQueueDepth bounds one shard's intake queue when Config leaves it
// zero.
const DefaultQueueDepth = 1024

// Config parameterizes a validation plane.
type Config struct {
	// Shards is the worker count (default 1).
	Shards int
	// QueueDepth bounds each shard's intake queue (default
	// DefaultQueueDepth), counted in queue items: one per SubmitBatch call
	// that addresses the shard (so one per response under Submit), one per
	// Advance. A full queue applies backpressure to the dispatcher —
	// responses are never dropped — and each stall is counted in
	// jury_shard_overflow_total.
	QueueDepth int
	// Validator carries K, timeout and adaptive settings for every
	// worker's validator. Metrics, Tracer and Recorder inside it are
	// per-validator resources the plane replaces: each worker runs against
	// a private registry (the plane aggregates) and, when FlightRing is
	// set, its own flight ring. A non-nil Tracer arms tracing, but the
	// instance is only a template — the span tracer is single-goroutine
	// and reads one engine's clock, so each worker gets its own tracer on
	// its own engine clock (same MaxSpans) and TraceSpans merges them.
	Validator core.ValidatorConfig
	// Members is the deployment's governance map, shared read-only by
	// every worker.
	Members *cluster.Membership
	// TimeFromResponses, when set, advances each worker's engine to every
	// response's virtual timestamp (Response.At) before submitting it, so
	// per-trigger timers expire at exact virtual deadlines regardless of
	// wall-clock interleaving — the deterministic mode tests and benches
	// run. When unset the caller drives virtual time with Advance, the
	// live service mode.
	TimeFromResponses bool
	// Seed seeds each worker engine (the validator draws no randomness,
	// so this only matters to code sharing the engines).
	Seed int64
	// Metrics receives the plane's families (jury_shard_* and the
	// aggregate jury_validator_* counters); nil creates a private
	// registry reachable via Metrics().
	Metrics *obs.Registry
	// OnResult observes every decision from every shard. Calls are
	// serialized by the plane; the hook must not call back into the
	// dispatch side.
	OnResult func(core.Result)
	// FlightRing, when positive, arms a per-shard flight recorder of that
	// capacity: every worker's validator records its trigger lifecycle
	// events (submit/response/ψ/timer/verdict) into a fixed ring, and the
	// plane dumps the merged rings when a dump predicate fires (fault
	// verdict, queue overflow, queue high-watermark ≥ 3/4 QueueDepth).
	// Zero leaves the recorder off and the hot path unchanged.
	FlightRing int
	// OnFlightDump receives each flight dump: the predicate that fired and
	// the merged ring snapshot (oldest-first across shards). Calls are
	// serialized by the plane and rate-limited to one dump per new
	// recorded event; the hook must not call back into the dispatch side.
	OnFlightDump func(reason string, events []obs.Event)
}

type itemKind uint8

const (
	// itemBatch is the work item: advance the worker's engine to the
	// item's target (never past it), then submit the batch's entries in
	// order, then ack if asked. Without entries it is a pure advance (the
	// service tick); with an ack it is the barrier behind Plane.Sync, which
	// campaign telemetry uses to sample all shards at one virtual instant.
	itemBatch itemKind = iota + 1
	// itemFlush runs the worker's engine until idle, expiring every timer
	// whatever its deadline, and acks — the drain behind Plane.Drain.
	itemFlush
	// itemStall blocks the worker on a gate channel — a test hook for
	// deterministically building a backlog behind a live worker.
	itemStall
)

// entry is one response of a batch as one shard sees it: the owning
// shard's copy is submitted, any other shard's copy of an untainted
// response only updates Ψ.
type entry struct {
	r     core.Response
	owner bool
}

// item is one entry on a shard's intake queue. It is small on purpose —
// the responses travel behind the entries pointer — so the channel copies
// a few words per batch.
type item struct {
	kind itemKind
	to   time.Duration // vclock:wire -- advance target on the virtual time base
	// entries is this shard's share of one batch, leased from entryPool by
	// the dispatcher. Ownership moves with the item: the worker that
	// processes it (or Kill, for an adopted backlog) returns it to the pool.
	entries *[]entry
	ack     chan struct{}
	gate    chan struct{}
}

// entryPool recycles per-shard batch slices between the dispatcher that
// fills them and the workers that consume them. A fresh slice starts empty
// and is sized by the appends of its first batch: a one-response batch
// (Submit, a JSON line) must not cost a many-entry backing array whenever
// the dispatcher runs ahead of the workers and the pool is dry.
var entryPool = sync.Pool{New: func() any { return new([]entry) }}

// putEntries returns a consumed batch slice to the pool, cleared so the
// pool does not pin the responses' strings.
func putEntries(es *[]entry) {
	clear(*es)
	*es = (*es)[:0]
	entryPool.Put(es)
}

// worker is one shard: a goroutine that owns a private engine and
// validator and consumes its intake queue.
type worker struct {
	id       int
	timeFrom bool
	eng      *simnet.Engine
	v        *core.Validator
	q        chan item
	// dieC delivers the kill handshake: the dispatcher sends a reply
	// channel, the worker answers with its unprocessed backlog and exits.
	dieC chan chan []item
	// dead is set by the dispatcher before the die handshake; the worker
	// checks it before processing each item so nothing is validated after
	// the shard is declared dead (a batch already in progress completes).
	dead atomic.Bool
	// decided marks that the item in progress produced a result, so the
	// worker owes the plane's flush hook a call when the item is finished.
	// Worker-goroutine state.
	decided bool

	// rec is the shard's flight recorder (nil when Config.FlightRing is
	// zero). The worker's validator appends to it; dump goroutines
	// snapshot it concurrently (the recorder has its own mutex).
	rec *obs.Recorder
	// tracer is the shard's span tracer (nil unless tracing is armed),
	// written only by this worker's goroutine; TraceSpans reads it behind
	// a Sync barrier.
	tracer *obs.Tracer

	depth    *obs.Gauge
	enqueued *obs.Counter
	overflow *obs.Counter
	steals   *obs.Counter
}

// Plane is a sharded validation plane.
type Plane struct {
	cfg     Config
	reg     *obs.Registry
	workers []*worker
	// alive tracks which shards still run. Dispatcher-owned state: only
	// the serialized Submit/Kill/Close side reads or writes it, so it
	// needs no lock.
	alive []bool
	// staged holds, per shard, the slice SubmitBatch is filling for the
	// batch in hand; all nil between calls. Dispatcher-owned like alive.
	staged []*[]entry
	wg     sync.WaitGroup
	// stop tells every worker to exit without flushing; closed by Stop.
	stop     chan struct{}
	stopOnce sync.Once

	// resMu serializes result aggregation, the user's OnResult hook and
	// the flush hook across worker goroutines.
	resMu sync.Mutex
	// flush is the hook installed by SetOnResult; see there.
	flush    func()
	decided  *obs.Counter
	valid    *obs.Counter
	faults   *obs.Counter
	nondet   *obs.Counter
	timeouts *obs.Counter
	// Detection-time summaries, observed per decision under resMu. The
	// histograms lock internally, so a scrape never waits on a worker.
	detections         *obs.Histogram
	detectionsExternal *obs.Histogram

	// dumpMu serializes flight dumps (predicates fire from both the
	// dispatcher and worker result paths) and guards dumpSeen, the total
	// recorded-event count at the last dump — the rate limiter that
	// suppresses a dump when nothing new was recorded since.
	dumpMu   sync.Mutex
	dumpSeen uint64
}

// New builds and starts a validation plane. The workers run until Stop
// (or Close).
func New(cfg Config) (*Plane, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Members == nil {
		return nil, fmt.Errorf("shard: no cluster membership configured")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p := &Plane{
		cfg:     cfg,
		reg:     reg,
		workers: make([]*worker, cfg.Shards),
		alive:   make([]bool, cfg.Shards),
		staged:  make([]*[]entry, cfg.Shards),
		stop:    make(chan struct{}),
	}
	p.decided = reg.Counter("jury_validator_decided_total", "Triggers decided.")
	p.valid = reg.Counter("jury_validator_valid_total", "Triggers judged valid.")
	p.faults = reg.Counter("jury_validator_faults_total", "Alarms raised (fault verdicts).")
	p.nondet = reg.Counter("jury_validator_nondeterministic_total", "Triggers labeled non-deterministic.")
	p.timeouts = reg.Counter("jury_validator_timeouts_total", "Decisions forced by timer expiry.")
	reg.CounterFunc("jury_validator_late_responses_total", "Responses arriving after the verdict.", p.LateResponses)
	reg.GaugeFunc("jury_validator_pending", "Triggers awaiting decision across shards.",
		func() float64 { return float64(p.Pending()) })
	p.detections = reg.Histogram("jury_validator_detection_seconds", "Detection time per decided trigger.", nil)
	p.detectionsExternal = reg.Histogram("jury_validator_detection_external_seconds", "Detection time for external triggers (Figs. 4a-4d).", nil)
	vcfg := cfg.Validator
	vcfg.Metrics = nil // per-worker private registries; the plane aggregates
	for i := range p.workers {
		w := &worker{
			id:       i,
			timeFrom: cfg.TimeFromResponses,
			eng:      simnet.NewEngine(cfg.Seed),
			q:        make(chan item, cfg.QueueDepth),
			dieC:     make(chan chan []item),
		}
		if cfg.FlightRing > 0 {
			w.rec = obs.NewRecorder(cfg.FlightRing)
			w.rec.SetShard(i)
			vcfg.Recorder = w.rec
		}
		if tmpl := cfg.Validator.Tracer; tmpl != nil {
			w.tracer = obs.NewTracer(w.eng.Now)
			w.tracer.MaxSpans = tmpl.MaxSpans
			w.tracer.InstrumentMetrics(reg)
			vcfg.Tracer = w.tracer
		}
		w.v = core.NewValidator(w.eng, cfg.Members, vcfg)
		w.v.OnResult = func(r core.Result) {
			w.decided = true
			p.onResult(r)
		}
		l := obs.L("shard", strconv.Itoa(i))
		w.depth = reg.Gauge("jury_shard_queue_depth", "Items (batches, advances) queued to the shard's intake.", l)
		w.enqueued = reg.Counter("jury_shard_enqueued_total", "Items enqueued to the shard.", l)
		w.overflow = reg.Counter("jury_shard_overflow_total", "Backpressure stalls on a full shard queue.", l)
		w.steals = reg.Counter("jury_shard_steals_total", "Responses adopted from a killed shard.", l)
		p.workers[i] = w
		p.alive[i] = true
		p.wg.Add(1)
		go w.run(p)
	}
	return p, nil
}

// SetOnResult installs (or replaces) the decision observer after New —
// for callers that need the plane pointer inside the hook — together with
// an optional flush hook for observers that buffer what they are handed.
// A worker calls flush once when it finishes a queue item that produced at
// least one result (a batch, a tick that expired timers, the flush at
// shard death), on its own goroutine, so buffered output leaves in the
// same worker iteration that decided it: no timer, no linger. Both hooks
// are serialized by the plane and must not call back into the dispatch
// side; install them before the first Submit so no decision slips past.
func (p *Plane) SetOnResult(fn func(core.Result), flush func()) {
	p.resMu.Lock()
	p.cfg.OnResult = fn
	p.flush = flush
	p.resMu.Unlock()
}

// onResult aggregates one worker decision into the plane counters and
// relays it to the user hook, serialized across workers.
func (p *Plane) onResult(r core.Result) {
	p.resMu.Lock()
	defer p.resMu.Unlock()
	p.decided.Inc()
	switch r.Verdict {
	case core.VerdictValid:
		p.valid.Inc()
	case core.VerdictNonDeterministic:
		p.nondet.Inc()
	case core.VerdictFault:
		p.faults.Inc()
	}
	if r.TimedOut {
		p.timeouts.Inc()
	}
	p.detections.Observe(r.DetectionTime)
	if r.Kind == trigger.External {
		p.detectionsExternal.Observe(r.DetectionTime)
	}
	if p.cfg.OnResult != nil {
		p.cfg.OnResult(r)
	}
	if r.Verdict == core.VerdictFault {
		p.FlightDump("verdict:" + r.Fault.String())
	}
}

// run is a worker's consume loop. Engine run errors are deliberately
// dropped here, matching the wire server's live-service stance: a horizon
// or stop error on one advance is benign for a plane that advances again
// on the next item, and decisions themselves surface through OnResult.
//
//jurylint:allow errcrit -- benign Run errors for a live plane; see above
func (w *worker) run(p *Plane) {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case reply := <-w.dieC:
			w.die(p, reply, nil)
			return
		case it := <-w.q:
			w.depth.Add(-1)
			if w.dead.Load() {
				// Declared dead before this item was processed: stash
				// everything still queued and wait for the kill
				// handshake to hand it over.
				backlog := append([]item{it}, w.drain()...)
				w.die(p, <-w.dieC, backlog)
				return
			}
			w.process(it)
			w.flushDecided(p)
		}
	}
}

// flushDecided runs the plane's flush hook if the item just finished
// produced a result.
func (w *worker) flushDecided(p *Plane) {
	if !w.decided {
		return
	}
	w.decided = false
	p.resMu.Lock()
	defer p.resMu.Unlock()
	if p.flush != nil {
		p.flush()
	}
}

// die flushes the worker's own validator — every open trigger decides or
// alarms by timer expiry, never silently vanishing — then hands the
// unprocessed backlog to the dispatcher and exits.
//
//jurylint:allow errcrit -- benign RunUntilIdle error at shard death
func (w *worker) die(p *Plane, reply chan<- []item, backlog []item) {
	backlog = append(backlog, w.drain()...)
	_ = w.eng.RunUntilIdle()
	w.flushDecided(p)
	reply <- backlog
}

// drain empties the intake queue without blocking.
func (w *worker) drain() []item {
	var out []item
	for {
		select {
		case it := <-w.q:
			w.depth.Add(-1)
			out = append(out, it)
		default:
			return out
		}
	}
}

//jurylint:allow errcrit -- benign Run errors for a live plane; see run
func (w *worker) process(it item) {
	switch it.kind {
	case itemBatch:
		// Advance to the target exactly — never RunUntilIdle, which would
		// overshoot and expire timers beyond a Sync barrier.
		if it.to > w.eng.Now() {
			_ = w.eng.Run(it.to)
		}
		if it.entries != nil {
			for i := range *it.entries {
				e := &(*it.entries)[i]
				if w.timeFrom && e.r.At > w.eng.Now() {
					_ = w.eng.Run(e.r.At)
				}
				if e.owner {
					w.v.Submit(e.r)
				} else {
					w.v.ObserveState(e.r)
				}
			}
			putEntries(it.entries)
		}
	case itemFlush:
		_ = w.eng.RunUntilIdle()
	case itemStall:
		<-it.gate
	}
	if it.ack != nil {
		it.ack <- struct{}{}
	}
}

// enqueue places one item on a worker's queue, blocking (and counting the
// stall) when the queue is full: backpressure, never loss. A stall, or a
// queue crossing 3/4 of its depth, is a saturation signal and fires a
// flight dump.
func (p *Plane) enqueue(w *worker, it item) {
	// Count before sending: the worker decrements on receipt, so a gauge
	// bumped after the send could be decremented first, read −1 and
	// under-report its high watermark by one. A stalled dispatcher's item
	// therefore already counts while it waits for room.
	w.depth.Add(1)
	stalled := false
	select {
	case w.q <- it:
	default:
		w.overflow.Inc()
		stalled = true
		w.q <- it
	}
	w.enqueued.Inc()
	if w.rec != nil {
		if stalled {
			p.FlightDump("overflow")
		} else if int(w.depth.Value()) >= (3*p.cfg.QueueDepth)/4 {
			p.FlightDump("queue-high-watermark")
		}
	}
}

// FNV-1a64 parameters — the same hash family internal/sweep uses for
// per-point seed derivation, inlined so the dispatch hot path does not
// allocate a hash.Hash64 per response.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ShardForTrigger maps a taint ID onto one of n shards: FNV-1a64 over the
// ID bytes, folded modulo the shard count. The assignment is pure — the
// same trigger always lands on the same shard at a given shard count —
// which is what makes per-trigger state single-writer and the whole plane
// deterministic: a shard's verdicts depend only on its own response
// subsequence plus the broadcast Ψ stream.
func ShardForTrigger(id trigger.ID, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime64
	}
	return int(h % uint64(n))
}

// ownerOf maps a trigger onto its live owning shard: the FNV home shard,
// or the next live shard after it when the home was killed.
func (p *Plane) ownerOf(id trigger.ID) int {
	if id == "" {
		return -1
	}
	n := len(p.workers)
	home := ShardForTrigger(id, n)
	for probe := 0; probe < n; probe++ {
		if i := (home + probe) % n; p.alive[i] {
			return i
		}
	}
	return -1
}

// Submit dispatches one controller response: the one-element case of
// SubmitBatch, with no advance target. Dispatch side: callers serialize.
func (p *Plane) Submit(r core.Response) {
	p.SubmitBatch([]core.Response{r}, 0)
}

// SubmitBatch dispatches the responses one caller has in hand as one unit.
// The batch is partitioned per shard in submission order — a tainted
// response goes only to its owner, an untainted one to every live shard
// (the ψ update) with the owner flag set on the owning shard's copy — and
// each addressed shard receives ONE queue item carrying its share and the
// advance target `to`: its engine moves up to `to` (the live service's
// arrival time, stamped once per read; zero for none) before the share is
// submitted. Shards the batch does not address are not woken; the service
// tick advances them. rs is copied, not retained. Dispatch side: callers
// serialize.
func (p *Plane) SubmitBatch(rs []core.Response, to time.Duration) {
	for i := range rs {
		r := &rs[i]
		owner := p.ownerOf(r.Trigger)
		if r.Tainted {
			if owner >= 0 {
				p.stage(owner, r, true)
			}
			continue
		}
		for s := range p.workers {
			if p.alive[s] {
				p.stage(s, r, s == owner)
			}
		}
	}
	p.enqueueStaged(to)
}

// enqueueStaged hands every staged share to its shard as one queue item
// that also carries the advance target.
func (p *Plane) enqueueStaged(to time.Duration) {
	for s, es := range p.staged {
		if es != nil {
			p.staged[s] = nil
			p.enqueue(p.workers[s], item{kind: itemBatch, to: to, entries: es})
		}
	}
}

// stage appends one response to the slice being filled for a shard,
// leasing the slice on first use.
func (p *Plane) stage(shard int, r *core.Response, owner bool) {
	es := p.staged[shard]
	if es == nil {
		es = entryPool.Get().(*[]entry)
		p.staged[shard] = es
	}
	*es = append(*es, entry{r: *r, owner: owner})
}

// Advance asynchronously moves every live shard's virtual clock to the
// given elapsed time, expiring per-trigger timers up to it — the live
// service drives this from its wall-clock tick. Dispatch side: callers
// serialize.
func (p *Plane) Advance(to time.Duration) {
	for i, w := range p.workers {
		if p.alive[i] {
			p.enqueue(w, item{kind: itemBatch, to: to})
		}
	}
}

// Sync is a barrier at one virtual instant: every live shard processes
// everything queued ahead of the barrier, advances its engine to exactly
// `to` (expiring timers up to it, never past it), and acks. On return all
// shards sit at the same virtual time, so aggregate validator counters
// read immediately after form a consistent snapshot — the campaign
// time-series sampler runs on this. Dispatch side: callers serialize.
func (p *Plane) Sync(to time.Duration) {
	p.barrier(item{kind: itemBatch, to: to})
}

// barrier enqueues it on every live shard with a fresh ack channel and
// waits for all of them.
func (p *Plane) barrier(it item) {
	acks := make([]chan struct{}, 0, len(p.workers))
	for i, w := range p.workers {
		if !p.alive[i] {
			continue
		}
		it.ack = make(chan struct{}, 1)
		p.enqueue(w, it)
		acks = append(acks, it.ack)
	}
	for _, ack := range acks {
		<-ack
	}
}

// Drain processes everything queued on every live shard and runs each
// engine until idle, so every submitted trigger reaches a decision (timer
// expiries included). It returns when all shards have flushed. Dispatch
// side: callers serialize.
func (p *Plane) Drain() {
	p.barrier(item{kind: itemFlush})
}

// Kill abruptly stops one shard, models a worker crash, and hands its
// queue to the next live shard: the dead worker stops processing
// immediately, flushes its own open triggers through timer expiry (decided
// or alarmed, never dropped), and its unprocessed backlog is adopted by
// the successor (counted in jury_shard_steals_total). Returns the number
// of adopted responses, or -1 when the shard is already dead or is the
// last one alive. Dispatch side: callers serialize.
//
// A trigger split across the crash — some responses already processed by
// the victim, the rest still in its backlog — is decided TWICE: the
// victim's flush decides it from the responses it saw (usually an
// omission alarm by timer expiry), then the successor re-opens it from
// the adopted remainder and decides it again. That is the fail-safe
// choice: the alternative, suppressing either half, could silently clear
// a real fault. Consumers of OnResult and the aggregate counters must
// therefore treat results per trigger ID idempotently across a Kill
// (keep the first, or the more severe, verdict); Decided/Faults count
// decisions, not distinct triggers, once a crash splits one.
// TestPlaneKillSplitTrigger pins this contract.
func (p *Plane) Kill(i int) int {
	if i < 0 || i >= len(p.workers) || !p.alive[i] {
		return -1
	}
	live := 0
	for _, a := range p.alive {
		if a {
			live++
		}
	}
	if live <= 1 {
		return -1 // the plane must keep at least one shard
	}
	w := p.workers[i]
	w.dead.Store(true)
	p.alive[i] = false
	reply := make(chan []item)
	w.dieC <- reply
	backlog := <-reply
	adopted := 0
	for _, it := range backlog {
		if it.entries != nil {
			// An adopted batch is re-partitioned per response: each owned
			// response goes to its trigger's successor, in backlog order.
			// Non-owner copies were ψ broadcasts; every other live shard
			// already received its own copy, so only owned responses move.
			// The successor re-observes an adopted untainted response (its
			// broadcast copy already updated ψ); the duplicate touches only
			// Ψ bookkeeping counts, never verdicts.
			for j := range *it.entries {
				e := &(*it.entries)[j]
				to := p.ownerOf(e.r.Trigger)
				if !e.owner || to < 0 {
					continue
				}
				p.stage(to, &e.r, true)
				p.workers[to].steals.Inc()
				adopted++
			}
			p.enqueueStaged(0)
			putEntries(it.entries)
		}
		if it.ack != nil {
			it.ack <- struct{}{} // the dead engine flushed in die
		}
	}
	return adopted
}

// TraceSpans returns every worker's completed spans merged into the
// (start, origin, seq) order obs.StitchJSONL defines, or nil when tracing
// is not armed. Each tracer belongs to its worker's goroutine, so the read
// happens behind a Sync barrier: every live worker has acked and sits idle
// (the caller holds the dispatch side, so nothing new is queued), and dead
// workers exited before Kill or Stop returned. At one shard the result is
// that shard's Tracer.Spans(). Dispatch side: callers serialize.
func (p *Plane) TraceSpans() []obs.Span {
	if !p.Tracing() {
		return nil
	}
	p.Sync(0)
	per := make([][]obs.Span, len(p.workers))
	for i, w := range p.workers {
		per[i] = w.tracer.Spans()
	}
	return obs.MergeSpans(per...)
}

// Tracing reports whether the plane's span tracers are armed.
func (p *Plane) Tracing() bool { return p.workers[0].tracer != nil }

// Stop halts every worker where it stands: queued items are abandoned
// and no engine is flushed, so open triggers stay undecided instead of
// expiring into omission alarms nobody raised — a service shutting down
// calls this. Dispatch side: callers serialize; after Stop every shard is
// dead, so further dispatch calls are no-ops and TraceSpans still reads.
func (p *Plane) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	for i := range p.alive {
		p.alive[i] = false
	}
}

// Close drains every live shard — every submitted trigger reaches its
// decision — and then stops the workers; campaigns and benchmarks end on
// it. Dispatch side: callers serialize.
func (p *Plane) Close() {
	p.Drain()
	p.Stop()
}

// Metrics returns the registry carrying the plane's families.
func (p *Plane) Metrics() *obs.Registry { return p.reg }

// Shards returns the plane's shard count (live and dead).
func (p *Plane) Shards() int { return len(p.workers) }

// Decided returns the number of triggers decided across shards.
func (p *Plane) Decided() int64 { return p.decided.Value() }

// Valid returns the number of triggers judged valid across shards.
func (p *Plane) Valid() int64 { return p.valid.Value() }

// Faults returns the number of alarms raised across shards.
func (p *Plane) Faults() int64 { return p.faults.Value() }

// NonDeterministic returns the triggers labeled non-deterministic.
func (p *Plane) NonDeterministic() int64 { return p.nondet.Value() }

// Timeouts returns the decisions forced by timer expiry across shards.
func (p *Plane) Timeouts() int64 { return p.timeouts.Value() }

// LateResponses returns the responses that arrived after their trigger's
// verdict, summed across shards.
func (p *Plane) LateResponses() int64 {
	var total int64
	for _, w := range p.workers {
		total += w.v.LateResponses()
	}
	return total
}

// Pending returns the triggers awaiting decision, summed across shards.
func (p *Plane) Pending() int {
	total := 0
	for _, w := range p.workers {
		total += w.v.Pending()
	}
	return total
}

// ShardDecided returns one shard's decided-trigger count.
func (p *Plane) ShardDecided(i int) int64 {
	if i < 0 || i >= len(p.workers) {
		return 0
	}
	return p.workers[i].v.Decided()
}

// QueueHighWatermark returns the deepest one shard's intake queue has
// ever been — a saturation diagnostic that outlives the episode. Zero for
// an out-of-range shard.
func (p *Plane) QueueHighWatermark(i int) int {
	if i < 0 || i >= len(p.workers) {
		return 0
	}
	return int(p.workers[i].depth.HighWatermark())
}

// FlightRecording reports whether the plane's flight recorders are armed.
func (p *Plane) FlightRecording() bool {
	return len(p.workers) > 0 && p.workers[0].rec != nil
}

// FlightSnapshot merges every shard's flight ring into one oldest-first
// event stream (ordered by virtual time, then shard, then ring sequence).
// Nil when FlightRing was zero. Safe from any goroutine: each ring is
// snapshotted under its own lock while workers keep recording.
func (p *Plane) FlightSnapshot() []obs.Event {
	if !p.FlightRecording() {
		return nil
	}
	snaps := make([][]obs.Event, 0, len(p.workers))
	for _, w := range p.workers {
		snaps = append(snaps, w.rec.Snapshot())
	}
	return obs.MergeEvents(snaps...)
}

// FlightDump snapshots the merged flight rings and hands them to
// Config.OnFlightDump with the given reason. Dumps are rate-limited:
// when no shard has recorded a new event since the last dump the call is
// a no-op, so a predicate that keeps firing during one saturation episode
// produces one dump per fresh evidence, not one per enqueue. Safe from
// any goroutine; a no-op without recorders or a hook.
func (p *Plane) FlightDump(reason string) {
	if p.cfg.OnFlightDump == nil || !p.FlightRecording() {
		return
	}
	p.dumpMu.Lock()
	defer p.dumpMu.Unlock()
	var total uint64
	for _, w := range p.workers {
		total += w.rec.Total()
	}
	if total == p.dumpSeen {
		return
	}
	p.dumpSeen = total
	p.cfg.OnFlightDump(reason, p.FlightSnapshot())
}

// Steals returns the responses adopted from killed shards, summed.
func (p *Plane) Steals() int64 {
	var total int64
	for _, w := range p.workers {
		total += w.steals.Value()
	}
	return total
}

// FalsePositiveRate returns alarms / decisions across shards.
func (p *Plane) FalsePositiveRate() float64 {
	decided := p.decided.Value()
	if decided == 0 {
		return 0
	}
	return float64(p.faults.Value()) / float64(decided)
}

// Alarms returns the retained alarms merged across shards in decision
// order (virtual decision time, then trigger ID — a deterministic total
// order, since wall-clock worker interleaving must not show in output).
func (p *Plane) Alarms() []core.Result {
	var out []core.Result
	for _, w := range p.workers {
		out = append(out, w.v.Alarms()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DecidedAt != out[j].DecidedAt {
			return out[i].DecidedAt < out[j].DecidedAt
		}
		return out[i].Trigger < out[j].Trigger
	})
	return out
}
