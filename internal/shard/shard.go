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
// Concurrency contract: Submit, SubmitBatch, Advance, Drain,
// TraceSpans, Stop and Close form the dispatch side and must be
// serialized by the caller (one dispatcher goroutine, or an external lock —
// the wire server uses its own mutex). After Stop the dispatch calls queue
// nothing and return at once. A worker dies only by panic, which ends the
// process, so the plane has no crash model. The stats accessors (Stats,
// ShardDecided, QueueHighWatermark, Alarms, ...) and a scrape of Metrics()
// are safe from any goroutine at any time: they read atomic counters,
// immutable snapshots and internally locked histograms. Every worker's
// validator counts into the plane's registry, so each decision updates one
// set of aggregates. The cluster membership handed to New must not be
// mutated while the plane runs.
//
// This package is a concurrency bridge: it owns goroutines and channels,
// unlike the sim-contract core it multiplies.
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
	// worker's validator. Metrics and Tracer inside it are per-validator
	// resources the plane replaces: every worker counts into the plane's
	// registry (the jury_validator_* counters, pending gauge and detection
	// summaries are shared, one instance each) and traces, when Tracing
	// is set, into its own tracer.
	Validator core.ValidatorConfig
	// Tracing arms span tracing. The span tracer is single-goroutine and
	// reads one engine's clock, so each worker gets its own tracer on its
	// own engine clock and TraceSpans merges them.
	Tracing bool
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
	// Metrics receives the plane's families (jury_shard_* and the
	// jury_validator_* families its workers share); nil creates a private
	// registry reachable via Metrics().
	Metrics *obs.Registry
}

type itemKind uint8

const (
	// itemBatch is the work item: advance the worker's engine to the
	// item's target (never past it), then submit the batch's entries in
	// order, then ack if asked. Without entries it is a pure advance (the
	// service tick); with an ack it is the barrier behind Plane.syncAt,
	// which TraceSpans uses to read every worker's tracer.
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
	to   time.Duration // advance target on the virtual time base
	// entries is this shard's share of one batch, leased from entryPool by
	// the dispatcher. Ownership moves with the item: the worker that
	// processes it returns it to the pool.
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
	// decided marks that the item in progress produced a result, so the
	// worker owes the plane's flush hook a call when the item is finished.
	// Worker-goroutine state.
	decided bool
	// nDecided counts this shard's decisions (ShardDecided); the plane
	// totals live in the shared registry.
	nDecided atomic.Int64

	// tracer is the shard's span tracer (nil unless tracing is armed),
	// written only by this worker's goroutine; TraceSpans reads it behind
	// a syncAt barrier.
	tracer *obs.Tracer

	depth    *obs.Gauge
	enqueued *obs.Counter
	overflow *obs.Counter
}

// Plane is a sharded validation plane.
type Plane struct {
	cfg     Config
	reg     *obs.Registry
	workers []*worker
	// staged holds, per shard, the slice SubmitBatch is filling for the
	// batch in hand; all nil between calls. Dispatcher-owned state: only
	// the serialized dispatch side reads or writes it, so it needs no lock.
	staged []*[]entry
	// stopped is set by Stop; every later dispatch call queues nothing.
	// Dispatcher-owned like staged.
	stopped bool
	wg      sync.WaitGroup
	// stop tells every worker to exit without flushing; closed by Stop.
	stop chan struct{}

	// resMu serializes the hooks SetOnResult installs across worker
	// goroutines.
	resMu sync.Mutex
	// onRes and flush are the hooks installed by SetOnResult; see
	// there. guarded by resMu.
	onRes func(core.Result)
	flush func()
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
		staged:  make([]*[]entry, cfg.Shards),
		stop:    make(chan struct{}),
	}
	vcfg := cfg.Validator
	vcfg.Metrics = reg // every worker counts into the plane's registry
	vcfg.Tracer = nil
	for i := range p.workers {
		w := &worker{
			id:       i,
			timeFrom: cfg.TimeFromResponses,
			eng:      simnet.NewEngine(0),
			q:        make(chan item, cfg.QueueDepth),
		}
		if cfg.Tracing {
			w.tracer = obs.NewTracer(w.eng.Now)
			w.tracer.InstrumentMetrics(reg)
			vcfg.Tracer = w.tracer
		}
		w.v = core.NewValidator(w.eng, cfg.Members, vcfg)
		w.v.OnResult = func(r core.Result) {
			w.decided = true
			w.nDecided.Add(1)
			p.onResult(r)
		}
		l := obs.L("shard", strconv.Itoa(i))
		w.depth = reg.Gauge("jury_shard_queue_depth", "Items (batches, advances) queued to the shard's intake.", l)
		w.enqueued = reg.Counter("jury_shard_enqueued_total", "Items enqueued to the shard.", l)
		w.overflow = reg.Counter("jury_shard_overflow_total", "Backpressure stalls on a full shard queue.", l)
		p.workers[i] = w
		p.wg.Add(1)
		go w.run(p)
	}
	return p, nil
}

// SetOnResult installs (or replaces) the decision observer fn, which
// sees every decision from every shard, together with an optional flush
// hook for observers that buffer what they are handed.
// A worker calls flush once when it finishes a queue item that produced at
// least one result (a batch, a tick that expired timers, a drain), on its
// own goroutine, so buffered output leaves in the same worker iteration
// that decided it: no timer, no linger. Both hooks
// are serialized by the plane and must not call back into the dispatch
// side; install them before the first Submit so no decision slips past.
func (p *Plane) SetOnResult(fn func(core.Result), flush func()) {
	p.resMu.Lock()
	p.onRes = fn
	p.flush = flush
	p.resMu.Unlock()
}

// onResult relays one worker decision to the user hook, serialized across
// workers. The worker's validator has already counted it in the shared
// registry.
func (p *Plane) onResult(r core.Result) {
	p.resMu.Lock()
	defer p.resMu.Unlock()
	if p.onRes != nil {
		p.onRes(r)
	}
}

// run is a worker's consume loop.
func (w *worker) run(p *Plane) {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case it := <-w.q:
			w.depth.Add(-1)
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

// process applies one queue item. Engine run errors are deliberately
// dropped here, matching the wire server's live-service stance: a horizon
// or stop error on one advance is benign for a plane that advances again
// on the next item, and decisions themselves surface through OnResult.
//
//jurylint:allow errcrit -- benign Run errors for a live plane; see above
func (w *worker) process(it item) {
	switch it.kind {
	case itemBatch:
		// Advance to the target exactly — never RunUntilIdle, which would
		// overshoot and expire timers beyond a syncAt barrier.
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
// stall) when the queue is full: backpressure, never loss.
func (p *Plane) enqueue(w *worker, it item) {
	// Count before sending: the worker decrements on receipt, so a gauge
	// bumped after the send could be decremented first, read −1 and
	// under-report its high watermark by one. A stalled dispatcher's item
	// therefore already counts while it waits for room.
	w.depth.Add(1)
	select {
	case w.q <- it:
	default:
		w.overflow.Inc()
		w.q <- it
	}
	w.enqueued.Inc()
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

// Submit dispatches one controller response: the one-element case of
// SubmitBatch, with no advance target. Dispatch side: callers serialize.
func (p *Plane) Submit(r core.Response) {
	p.SubmitBatch([]core.Response{r}, 0)
}

// SubmitBatch dispatches the responses one caller has in hand as one unit.
// The batch is partitioned per shard in submission order — a tainted
// response goes only to its owner, an untainted one to every shard (the ψ
// update) with the owner flag set on the owning shard's copy — and
// each addressed shard receives ONE queue item carrying its share and the
// advance target `to`: its engine moves up to `to` (the live service's
// arrival time, stamped once per read; zero for none) before the share is
// submitted. Shards the batch does not address are not woken; the service
// tick advances them. rs is copied, not retained. Dispatch side: callers
// serialize.
func (p *Plane) SubmitBatch(rs []core.Response, to time.Duration) {
	if p.stopped {
		return
	}
	for i := range rs {
		r := &rs[i]
		owner := -1 // an untagged response has no owner
		if r.Trigger != "" {
			owner = ShardForTrigger(r.Trigger, len(p.workers))
		}
		if r.Tainted {
			if owner >= 0 {
				p.stage(owner, r, true)
			}
			continue
		}
		for s := range p.workers {
			p.stage(s, r, s == owner)
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

// Advance asynchronously moves every shard's virtual clock to the
// given elapsed time, expiring per-trigger timers up to it — the live
// service drives this from its wall-clock tick. Dispatch side: callers
// serialize.
func (p *Plane) Advance(to time.Duration) {
	if p.stopped {
		return
	}
	for _, w := range p.workers {
		p.enqueue(w, item{kind: itemBatch, to: to})
	}
}

// syncAt is a barrier at one virtual instant: every shard processes
// everything queued ahead of the barrier, advances its engine to exactly
// `to` (expiring timers up to it, never past it), and acks. On return all
// shards sit at the same virtual time and idle, so aggregate validator
// counters read immediately after form a consistent snapshot. Dispatch
// side: callers serialize.
func (p *Plane) syncAt(to time.Duration) {
	p.barrier(item{kind: itemBatch, to: to})
}

// barrier enqueues it on every shard with a fresh ack channel and waits
// for all of them.
func (p *Plane) barrier(it item) {
	if p.stopped {
		return
	}
	acks := make([]chan struct{}, 0, len(p.workers))
	for _, w := range p.workers {
		it.ack = make(chan struct{}, 1)
		p.enqueue(w, it)
		acks = append(acks, it.ack)
	}
	for _, ack := range acks {
		<-ack
	}
}

// Drain processes everything queued on every shard and runs each
// engine until idle, so every submitted trigger reaches a decision (timer
// expiries included). It returns when all shards have flushed. Dispatch
// side: callers serialize.
func (p *Plane) Drain() {
	p.barrier(item{kind: itemFlush})
}

// TraceSpans returns every worker's completed spans merged into the
// (start, origin, seq) order obs.StitchJSONL defines, or nil when tracing
// is not armed. Each tracer belongs to its worker's goroutine, so the read
// happens behind a syncAt barrier: every worker has acked and sits idle (the
// caller holds the dispatch side, so nothing new is queued), or, after
// Stop, has exited. At one shard the result is that shard's
// Tracer.Spans(). Dispatch side: callers serialize.
func (p *Plane) TraceSpans() []obs.Span {
	if !p.Tracing() {
		return nil
	}
	p.syncAt(0)
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
// calls this. Dispatch side: callers serialize; after Stop further
// dispatch calls queue nothing and return at once, and TraceSpans still
// reads the spans.
func (p *Plane) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	close(p.stop)
	p.wg.Wait()
}

// Close drains every shard — every submitted trigger reaches its
// decision — and then stops the workers; tests and benchmarks end on
// it. Dispatch side: callers serialize.
func (p *Plane) Close() {
	p.Drain()
	p.Stop()
}

// Metrics returns the registry carrying the plane's families.
func (p *Plane) Metrics() *obs.Registry { return p.reg }

// Shards returns the plane's shard count.
func (p *Plane) Shards() int { return len(p.workers) }

// Stats is one read of the plane's aggregate counters. Every worker's
// validator counts into the plane's registry, so the figures are the
// registry's totals. Each is read atomically on its own; read them after
// Drain or Close for a consistent cut.
type Stats struct {
	Decided          int64 // triggers decided
	Valid            int64 // triggers judged valid
	Faults           int64 // alarms raised
	NonDeterministic int64 // triggers labeled non-deterministic
	Timeouts         int64 // decisions forced by timer expiry
	LateResponses    int64 // responses that arrived after their verdict
	Pending          int   // triggers awaiting decision (grace windows included)
}

// FalsePositiveRate returns alarms / decisions — meaningful on benign runs.
func (s Stats) FalsePositiveRate() float64 {
	if s.Decided == 0 {
		return 0
	}
	return float64(s.Faults) / float64(s.Decided)
}

// Stats reads the plane's aggregate counters.
func (p *Plane) Stats() Stats {
	v := p.workers[0].v // any worker's accessors read the shared totals
	return Stats{
		Decided:          v.Decided(),
		Valid:            v.Valid(),
		Faults:           v.Faults(),
		NonDeterministic: v.NonDeterministic(),
		Timeouts:         v.Timeouts(),
		LateResponses:    v.LateResponses(),
		Pending:          v.Pending(),
	}
}

// ShardDecided returns one shard's decided-trigger count.
func (p *Plane) ShardDecided(i int) int64 {
	if i < 0 || i >= len(p.workers) {
		return 0
	}
	return p.workers[i].nDecided.Load()
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
