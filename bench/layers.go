package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/shard"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/wire"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// prints all of them: a layer that is not on a workload's path reads 0.
// README.md says which end-to-end metric each should move.
var layerUnits = map[string]string{
	"loadgen.next_ns":            "ns",
	"loadgen.events_per_trigger": "count",

	"wire.bin_encode_ns":           "ns",
	"wire.bin_decode_ns":           "ns",
	"wire.bin_bytes_per_envelope":  "B",
	"wire.json_encode_ns":          "ns",
	"wire.json_decode_ns":          "ns",
	"wire.json_bytes_per_envelope": "B",

	"wire.client_send_ns":            "ns",
	"wire.client_backlog_max":        "count",
	"wire.client_writes_per_trigger": "count",
	"wire.client_reads_per_trigger":  "count",
	"wire.client_dropped":            "count",
	"wire.client_reconnects":         "count",

	"wire.server_responses":   "count",
	"wire.server_line_errors": "count",
	"wire.server_push_errors": "count",
	"wire.stats_rtt_p50_us":   "us",
	"wire.transit_p50_us":     "us",
	"wire.rtt_p99_us":         "us",

	"shard.submit_ns":             "ns",
	"shard.items_per_response":    "count",
	"shard.overflow_total":        "count",
	"shard.queue_depth_max":       "count",
	"shard.decided_imbalance":     "x",
	"shard.replay_triggers_per_s": "1/s",

	"core.submit_ns":               "ns",
	"core.submit_us_per_trigger":   "us",
	"core.allocs_per_trigger":      "count",
	"core.alloc_bytes_per_trigger": "B",
	"core.validate_p50_us":         "us",
	"core.timeouts_total":          "count",
	"core.late_responses_total":    "count",
	"core.pending_max":             "count",

	"simnet.run_ns_per_trigger": "ns",
	"simnet.events_per_trigger": "count",
	"simnet.queue_len_max":      "count",

	"sim.detection_p50_ms_virtual":            "ms",
	"sim.detection_p95_ms_virtual":            "ms",
	"sim.validator_bytes_per_trigger_modeled": "B",
	"sim.false_positive_pct":                  "%",
	"sim.boot_s":                              "s",
	"store.replication_msgs_per_trigger":      "count",
	"core.replicated_msgs_per_trigger":        "count",
	"obs.scrape_ms":                           "ms",
	"rt.gc_cycles_per_s":                      "1/s",
	"rt.gc_pause_ms_per_s":                    "ms/s",
	"rt.heap_inuse_mb_start":                  "MB",
	"rt.heap_inuse_mb_end":                    "MB",
	"trace.overhead_pct":                      "%",
	"trace.samples":                           "count",
	"e2e.cpu_us_per_trigger_traced":           "us",
	"e2e.layer_sum_cpu_us_per_trigger":        "us",
	"e2e.unattributed_cpu_us_per_trigger":     "us",
}

// layers collects per-layer values; finish fills in the zeros and units.
type layers map[string]float64

func (ls layers) finish() map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{ls[name], unit}
	}
	return out
}

// runtimeLayers reports the Go runtime's share of a window.
func (ls layers) runtimeLayers(a, b snapshot) {
	secs := b.at.Sub(a.at).Seconds()
	ls["rt.gc_cycles_per_s"] = float64(b.mem.NumGC-a.mem.NumGC) / secs
	ls["rt.gc_pause_ms_per_s"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6 / secs
	ls["rt.heap_inuse_mb_start"] = float64(a.mem.HeapInuse) / 1e6
	ls["rt.heap_inuse_mb_end"] = float64(b.mem.HeapInuse) / 1e6
}

// traced is the -trace 1 body of a wire run: half the time untraced, half
// traced (their throughput difference is the tracing overhead), then the
// idle-connection probes, the trace file and the layer replays.
func (l *loop) traced(opt options, res *result) error {
	plain, err := l.measure(opt.seconds/2, nil)
	if err != nil {
		return err
	}
	tr := &tracer{}
	w, err := l.measure(opt.seconds/2, tr)
	if err != nil {
		return err
	}
	l.drain()
	ls := layers{}
	ls.runtimeLayers(w.a, w.b)
	ls["trace.overhead_pct"] = (plain.throughput() - w.throughput()) / plain.throughput() * 100
	ls["trace.samples"] = float64(w.verdicts)

	triggers := float64(tr.count[spanSubmit])
	responses := float64(tr.count[spanSend])
	ls["loadgen.next_ns"] = tr.meanNS(spanLoadgen)
	ls["loadgen.events_per_trigger"] = ratio(float64(tr.count[spanLoadgen]), triggers)
	ls["wire.client_send_ns"] = tr.meanNS(spanSend)
	ls["wire.client_backlog_max"] = float64(tr.backlogMax)
	ls["wire.client_writes_per_trigger"] = w.perVerdict(float64(w.b.writes - w.a.writes))
	ls["wire.client_reads_per_trigger"] = w.perVerdict(float64(w.b.reads - w.a.reads))
	ls["wire.client_dropped"] = float64(l.c.Dropped())
	ls["wire.client_reconnects"] = float64(l.c.Reconnects())
	ls["wire.transit_p50_us"] = median(micros(w.transitNS))
	ls["wire.rtt_p99_us"] = percentile(micros(w.latNS), 99)
	ls["core.validate_p50_us"] = median(micros(w.detectNS))

	rtt, err := l.statsRTT(200)
	if err != nil {
		return err
	}
	ls["wire.stats_rtt_p50_us"] = median(rtt)
	page, scrapeMS, err := l.scrapeServer(5)
	if err != nil {
		return err
	}
	ls["obs.scrape_ms"] = scrapeMS
	ls["wire.server_responses"] = page["jury_wire_responses_total"]
	ls["wire.server_line_errors"] = page["jury_wire_line_errors_total"]
	ls["wire.server_push_errors"] = page["jury_wire_push_errors_total"]
	ls["shard.items_per_response"] = ratio(page["jury_shard_enqueued_total"], page["jury_wire_responses_total"])
	ls["shard.overflow_total"] = page["jury_shard_overflow_total"]

	path, err := tr.write(opt.outDir, l.sp.name)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}

	n := int(float64(l.sp.replay) * opt.scale)
	stream, err := replayStream(l.sp, opt.seed, n)
	if err != nil {
		return err
	}
	results, err := replayCore(l.sp, stream, ls)
	if err != nil {
		return err
	}
	codecUS, err := replayCodec(stream, results, ls)
	if err != nil {
		return err
	}
	if l.sp.shards > 1 {
		if err := replayShard(l.sp, stream, ls); err != nil {
			return err
		}
	}

	// Reconcile: the traced window's CPU per trigger against the busy
	// time the bench measured in each layer alone. The remainder is
	// syscalls, scheduling, locks and GC.
	perTrigger := ratio(responses, triggers)
	sum := ls["loadgen.next_ns"]*ls["loadgen.events_per_trigger"]/1e3 +
		ls["wire.client_send_ns"]*perTrigger/1e3 +
		codecUS +
		ls["shard.submit_ns"]*perTrigger/1e3 +
		ls["core.submit_us_per_trigger"]
	ls["e2e.cpu_us_per_trigger_traced"] = w.cpuPerVerdict()
	ls["e2e.layer_sum_cpu_us_per_trigger"] = sum
	ls["e2e.unattributed_cpu_us_per_trigger"] = w.cpuPerVerdict() - sum
	res.Metrics = ls.finish()
	log.Printf("%s: traced %d verdicts (untraced half %d), %d spans kept in %s, replays of %d triggers",
		l.sp.name, w.verdicts, plain.verdicts, len(tr.spans), path, n)
	return nil
}

// stream is the seeded response stream of the first n triggers (Ψ-only
// updates included), materialized so each layer replays identical input.
type stream struct {
	responses []core.Response
	classes   map[uint64]class // by trigger sequence
	triggers  int
}

func replayStream(sp spec, seed int64, n int) (*stream, error) {
	g, err := newGen(sp, seed, buildTable(sp))
	if err != nil {
		return nil, err
	}
	st := &stream{classes: make(map[uint64]class, n), triggers: n}
	for g.seq < uint64(n) {
		rs, cl, seq := g.next()
		st.responses = append(st.responses, rs...)
		if cl != classPsi {
			st.classes[seq] = cl
		}
	}
	return st, nil
}

func membership(sp spec) *cluster.Membership {
	var ids []store.NodeID
	for i := 1; i <= sp.n; i++ {
		ids = append(ids, store.NodeID(i))
	}
	var dpids []topo.DPID
	for i := 1; i <= switches; i++ {
		dpids = append(dpids, topo.DPID(i))
	}
	return cluster.NewMembership(cluster.AnyControllerOneMaster, ids, dpids)
}

// replayCore feeds the stream to a bare core.Validator on its own engine,
// advancing the engine to each response's virtual timestamp first. It
// returns the verdicts, for the codec replay to encode.
func replayCore(sp spec, st *stream, ls layers) ([]core.Result, error) {
	eng := simnet.NewEngine(0)
	v := core.NewValidator(eng, membership(sp), core.ValidatorConfig{K: sp.n - 1, Timeout: validationTimeout})
	results := make([]core.Result, 0, st.triggers)
	wrong := 0
	v.OnResult = func(r core.Result) {
		seq, _ := parseTriggerID(r.Trigger)
		if !st.classes[seq].matches(r) {
			wrong++
		}
		results = append(results, r)
	}
	var (
		runNS, submitNS      int64
		pendingMax, queueMax int
		before, after        runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	t := time.Now()
	for i := range st.responses {
		r := &st.responses[i]
		if r.At > eng.Now() {
			if err := eng.Run(r.At); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		v.Submit(*r)
		t2 := time.Now()
		runNS += int64(t1.Sub(t))
		submitNS += int64(t2.Sub(t1))
		t = t2
		pendingMax = max(pendingMax, v.Pending())
		queueMax = max(queueMax, eng.Pending())
	}
	if err := eng.RunUntilIdle(); err != nil {
		return nil, err
	}
	runNS += int64(time.Since(t))
	runtime.ReadMemStats(&after)
	if wrong > 0 || len(results) != st.triggers {
		return nil, fmt.Errorf("core replay: %d wrong verdicts, %d of %d triggers decided", wrong, len(results), st.triggers)
	}
	var page bytes.Buffer
	if err := v.Metrics().WritePrometheus(&page); err != nil {
		return nil, err
	}
	n := float64(st.triggers)
	ls["core.submit_ns"] = float64(submitNS) / float64(len(st.responses))
	ls["core.submit_us_per_trigger"] = float64(submitNS+runNS) / 1e3 / n
	ls["core.allocs_per_trigger"] = float64(after.Mallocs-before.Mallocs) / n
	ls["core.alloc_bytes_per_trigger"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	ls["core.timeouts_total"] = float64(v.Timeouts())
	ls["core.late_responses_total"] = scrape(page.Bytes())["jury_validator_late_responses_total"]
	ls["core.pending_max"] = float64(pendingMax)
	ls["simnet.run_ns_per_trigger"] = float64(runNS) / n
	ls["simnet.events_per_trigger"] = float64(eng.Processed()) / n
	ls["simnet.queue_len_max"] = float64(queueMax)
	return results, nil
}

// replayCodec encodes and decodes the stream's envelopes (responses, then
// one result per trigger) with both codecs, the way client and server
// call them: AppendEnvelope and BinReader+Clone for binary,
// encoding/json over wire.Envelope for the compat path. It returns the
// binary encode + decode time of one trigger's envelopes in microseconds.
func replayCodec(st *stream, results []core.Result, ls layers) (float64, error) {
	envs := make([]wire.Envelope, 0, len(st.responses)+len(results))
	for i := range st.responses {
		envs = append(envs, wire.Envelope{Type: wire.TypeResponse, Response: &st.responses[i]})
	}
	for i := range results {
		envs = append(envs, wire.Envelope{Type: wire.TypeResult, Result: &results[i]})
	}
	n := float64(len(envs))

	// The client encodes a batch into a pooled buffer, so the timed
	// encode reuses one; the untimed pass builds the decoder's input.
	var buf, scratch []byte
	for i := range envs {
		buf = wire.AppendEnvelope(buf, &envs[i])
	}
	t := time.Now()
	for i := range envs {
		if i%wire.DefaultMaxBatch == 0 {
			scratch = scratch[:0]
		}
		scratch = wire.AppendEnvelope(scratch, &envs[i])
	}
	encNS := float64(time.Since(t))
	br := wire.NewBinReader(bytes.NewReader(buf), 0)
	decoded := 0
	t = time.Now()
	for {
		env, err := br.ReadEnvelope()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("binary replay: %w", err)
		}
		switch {
		case env.Response != nil:
			sinkResponse = wire.CloneResponse(*env.Response)
		case env.Result != nil:
			sinkResult = wire.CloneResult(*env.Result)
		}
		decoded++
	}
	decNS := float64(time.Since(t))
	if decoded != len(envs) {
		return 0, fmt.Errorf("binary replay decoded %d of %d envelopes", decoded, len(envs))
	}
	ls["wire.bin_encode_ns"] = encNS / n
	ls["wire.bin_decode_ns"] = decNS / n
	ls["wire.bin_bytes_per_envelope"] = float64(len(buf)) / n
	codecUS := (encNS + decNS) / 1e3 / float64(st.triggers)

	var lines bytes.Buffer
	enc := json.NewEncoder(&lines)
	t = time.Now()
	for i := range envs {
		if err := enc.Encode(envs[i]); err != nil {
			return 0, fmt.Errorf("json replay: %w", err)
		}
	}
	encNS = float64(time.Since(t))
	size := lines.Len()
	lr := wire.NewLineReader(&lines, 0)
	t = time.Now()
	for decoded = 0; ; decoded++ {
		line, err := lr.ReadLine()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("json replay: %w", err)
		}
		var env wire.Envelope
		if err := json.Unmarshal(line, &env); err != nil {
			return 0, fmt.Errorf("json replay: %w", err)
		}
	}
	decNS = float64(time.Since(t))
	if decoded != len(envs) {
		return 0, fmt.Errorf("json replay decoded %d of %d envelopes", decoded, len(envs))
	}
	ls["wire.json_encode_ns"] = encNS / n
	ls["wire.json_decode_ns"] = decNS / n
	ls["wire.json_bytes_per_envelope"] = float64(size) / n
	return codecUS, nil
}

// Sinks keep the compiler from discarding the decode replays' clones.
var (
	sinkResponse core.Response
	sinkResult   core.Result
)

// replayShard drives a shard.Plane directly with the stream, one
// dispatcher as in the server. The queues are deep enough never to push
// back, so the time inside Plane.Submit is dispatch work alone (hash,
// fan-out, channel sends) and the deepest queue shows how far the workers
// fell behind; the wall time to drain is the plane's own throughput.
func replayShard(sp spec, st *stream, ls layers) error {
	plane, err := shard.New(shard.Config{
		Shards:            sp.shards,
		QueueDepth:        len(st.responses) + 1,
		Validator:         core.ValidatorConfig{K: sp.n - 1, Timeout: validationTimeout},
		Members:           membership(sp),
		TimeFromResponses: true,
	})
	if err != nil {
		return fmt.Errorf("shard replay: %w", err)
	}
	var submitNS int64
	start := time.Now()
	for i := range st.responses {
		t := time.Now()
		plane.Submit(st.responses[i])
		submitNS += int64(time.Since(t))
	}
	plane.Drain()
	wall := time.Since(start).Seconds()
	var most, total float64
	depth := 0
	for i := 0; i < sp.shards; i++ {
		d := float64(plane.ShardDecided(i))
		most, total = max(most, d), total+d
		depth = max(depth, plane.QueueHighWatermark(i))
	}
	plane.Close()
	ls["shard.submit_ns"] = float64(submitNS) / float64(len(st.responses))
	ls["shard.queue_depth_max"] = float64(depth)
	ls["shard.decided_imbalance"] = ratio(most, total/float64(sp.shards))
	ls["shard.replay_triggers_per_s"] = float64(st.triggers) / wall
	return nil
}
