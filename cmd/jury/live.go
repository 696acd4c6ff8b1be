package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"github.com/jurysdn/jury/internal/cluster"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/dataplane"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/ofconn"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/simnet"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
	"github.com/jurysdn/jury/internal/wire"
)

// maxLiveFlows bounds -flows: flow f rides in two bytes of its source MAC
// and in source port 10000+f, which must fit a uint16.
const maxLiveFlows = 1<<16 - 10000

// liveSwitch is one switch in its own pumped event domain, connected to
// the controller over real TCP.
type liveSwitch struct {
	sw   *dataplane.Switch
	pump *ofconn.Pump
	end  *ofconn.SwitchEnd
}

// runLive demonstrates the live (non-simulated) path: a real SDN
// controller process accepting OpenFlow connections over TCP, with local
// switch processes dialing in, completing handshakes, and getting flow
// rules installed reactively — the same event-driven components as the
// simulation, pumped by wall-clock time (internal/ofconn).
//
// With -validator, every egress FLOW_MOD is additionally streamed to a
// running `jury serve` as a fabricated response complement (one
// untainted primary response plus -validator-k tainted secondary
// responses), exercising the out-of-band wire path end to end. The wire
// client reconnects with backoff, so a validator restart mid-run costs at
// most the bounded send backlog — the loss shows up in the dropped
// count, never silently.
//
//	jury live -switches 4 -flows 20
//	jury live -switches 4 -flows 20 -validator 127.0.0.1:9090 -validator-k 2
func runLive(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("live", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:0", "controller listen address")
		nSwitches = fs.Int("switches", 4, "number of live switches to connect")
		nFlows    = fs.Int("flows", 20, "flows to push through each switch")
		metricsAt = fs.String("metrics", "", "serve Prometheus /metrics and /healthz on this address (empty = off)")

		validatorAt = fs.String("validator", "", "stream egress FLOW_MODs to a jury serve validator at this address (empty = off)")
		validatorK  = fs.Int("validator-k", 2, "fabricated secondary responses per egress (must match the validator's -k)")
		codecName   = fs.String("codec", "json", "wire codec toward the validator: json (newline-delimited, the default) or binary (length-prefixed frames)")
		traceOut    = fs.String("trace-out", "", "write the controller-side span trace (JSONL) to this path at exit; stitch against jury serve -trace-out with jury trace")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *nFlows < 0 || *nFlows > maxLiveFlows {
		return usagef("-flows %d out of range [0, %d]", *nFlows, maxLiveFlows)
	}

	// Controller domain: one controller on a wall-clock-pumped engine.
	ctrlEng := simnet.NewEngine(1)
	ctrlPump := ofconn.NewPump(ctrlEng, time.Millisecond)
	defer ctrlPump.Close()
	var dpids []topo.DPID
	for i := 1; i <= *nSwitches; i++ {
		dpids = append(dpids, topo.DPID(i))
	}
	members := cluster.NewMembership(cluster.SingleController, []store.NodeID{1}, dpids)
	profile := controller.ONOSProfile()
	profile.PausePeriod = 0
	profile.LLDPPeriod = 0
	reg := obs.NewRegistry()
	members.InstrumentMetrics(reg)
	sccfg := store.DefaultConfig(store.Eventual)
	sccfg.Metrics = reg
	sc := store.NewCluster(ctrlEng, sccfg)
	var ctrl *controller.Controller
	ctrlPump.Do(func() {
		ctrl = controller.New(ctrlEng, 1, profile, sc.AddNode(1), members)
	})

	// Controller-side span trace on the pump's virtual clock. The tracer
	// is single-goroutine by contract, so every touch — open at egress,
	// close at the validator's verdict, final export — hops onto the pump.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(ctrlEng.Now)
		tracer.InstrumentMetrics(reg)
	}

	// Optional out-of-band validation: every egress FLOW_MOD becomes a
	// fabricated response complement streamed to the validator over the
	// resilient wire client (reconnects across a validator restart; loss
	// is bounded by the send queue and visible on Dropped()).
	var (
		vc       *wire.Client
		vmu      sync.Mutex
		vResults int
		vAlarms  int
		vStats   *wire.Stats
	)
	if *validatorAt != "" {
		codec, err := wire.ParseCodec(*codecName)
		if err != nil {
			return usageError{err}
		}
		ccfg := wire.ClientConfig{
			Codec:   codec,
			Metrics: reg,
			OnResult: func(r core.Result) {
				vmu.Lock()
				vResults++
				if r.Verdict == core.VerdictFault {
					vAlarms++
				}
				vmu.Unlock()
				if tracer != nil {
					// Close the trigger's round-trip span on the pump, where
					// the tracer lives.
					ctrlPump.Do(func() {
						id := string(r.Trigger)
						tracer.EndSpan(id, "validate-rtt", "wire", r.Reason)
						tracer.EndTrigger(id, r.Verdict.String(), r.Fault.String())
					})
				}
			},
			OnStats: func(st wire.Stats) {
				vmu.Lock()
				vStats = &st
				vmu.Unlock()
			},
		}
		if tracer != nil {
			// Stamp every response envelope with the controller's span
			// context: Send runs on the pump goroutine, so reading the
			// pump engine's clock here is safe.
			ccfg.Trace = &wire.TraceContext{Origin: "jurylive"}
			ccfg.TraceNow = ctrlEng.Now
		}
		c, err := wire.DialConfig(*validatorAt, ccfg)
		if err != nil {
			return fmt.Errorf("validator: %w", err)
		}
		defer c.Close()
		vc = c
		fmt.Fprintf(stdout, "streaming egress FLOW_MODs to validator at %s (k=%d, codec=%s)\n", *validatorAt, *validatorK, codec)
		egress := 0
		ctrlPump.Do(func() {
			ctrl.OnEgress = func(dpid topo.DPID, msg openflow.Message, _ *trigger.Context) {
				if _, ok := msg.(*openflow.FlowMod); !ok {
					return
				}
				egress++ // runs on the pump: serialized with the event loop
				if tracer != nil {
					id := fmt.Sprintf("live-%d", egress)
					tracer.StartTrigger(id, "flow-mod")
					tracer.Emit(id, "egress", "controller/C1", ctrlEng.Now(), ctrlEng.Now(), dpid.String())
					tracer.StartSpan(id, "validate-rtt", "wire")
				}
				base := core.Response{
					Primary: 1,
					Trigger: trigger.ID(fmt.Sprintf("live-%d", egress)),
					Cache:   store.FlowsDB,
					Op:      store.OpCreate,
					Key:     dpid.String(),
					Value:   core.CanonicalMessage(msg),
				}
				p := base
				p.Controller = 1
				p.Kind = core.CacheUpdate
				if err := vc.Send(p); err != nil {
					log.Printf("jurylive: validator send: %v", err)
				}
				for i := 0; i < *validatorK; i++ {
					s := base
					s.Controller = store.NodeID(2 + i)
					s.Kind = core.SecondaryExec
					s.Tainted = true
					if err := vc.Send(s); err != nil {
						log.Printf("jurylive: validator send: %v", err)
					}
				}
			}
		})
	}

	// Scrapes hop onto the controller pump so registry reads are
	// serialized with the event loop mutating it.
	stopMetrics, err := serveMetrics(*metricsAt, func(w io.Writer) error {
		var werr error
		ctrlPump.Do(func() { werr = reg.WritePrometheus(w) })
		return werr
	}, stdout)
	if err != nil {
		return err
	}
	defer stopMetrics()

	sessions := make(map[topo.DPID]bool)
	ce, err := ofconn.ListenController(*listen, ctrlPump,
		func(dpid topo.DPID, msg openflow.Message, send func(openflow.Message)) {
			if !sessions[dpid] {
				sessions[dpid] = true
				ctrl.ConnectSwitch(dpid, func(m openflow.Message) {
					mm := m
					go send(mm) // leave the pump before hitting the socket
				})
			}
			ctrl.HandleSouthbound(dpid, msg, nil)
		})
	if err != nil {
		return err
	}
	defer ce.Close()
	fmt.Fprintf(stdout, "controller listening on %s\n", ce.Addr())

	var switches []*liveSwitch
	for i := 1; i <= *nSwitches; i++ {
		ls, err := dialSwitch(ce.Addr(), topo.DPID(i))
		if err != nil {
			return err
		}
		defer ls.pump.Close()
		defer ls.end.Close()
		switches = append(switches, ls)
	}

	// Let handshakes land, seed host bindings at the controller, then
	// push traffic through every switch.
	time.Sleep(200 * time.Millisecond)
	ctrlPump.Do(func() {
		for i := 1; i <= *nSwitches; i++ {
			mac := topo.HostMAC(i)
			rec := fmt.Sprintf(`{"mac":"%s","ip":"%s","dpid":%d,"port":2}`, mac, topo.HostIP(i), i)
			ctrl.Node().Write(store.EdgesDB, store.OpCreate, mac.String(), rec, nil)
		}
	})
	for idx, ls := range switches {
		dst := topo.HostMAC(idx + 1)
		for f := 0; f < *nFlows; f++ {
			src := openflow.MAC{0x00, 0xAA, 0, byte(idx), byte(f >> 8), byte(f)}
			frame := openflow.TCPPacket(src, dst, topo.HostIP(100+f), topo.HostIP(idx+1), uint16(10000+f), 80, 0x02, 0)
			ls.pump.Do(func() { ls.sw.Inject(frame, 1) })
		}
	}

	// Wait for the rules to cross the wire and land in the tables.
	want := *nSwitches * *nFlows
	waitUntil(ctx, 5*time.Second, func() bool { return countRules(switches) >= want })
	fmt.Fprintln(stdout, "switch   rules  packet_ins")
	total := 0
	for i, ls := range switches {
		var rules int
		var pins uint64
		ls.pump.Do(func() {
			rules = len(ls.sw.Table())
			pins = ls.sw.PacketIns()
		})
		total += rules
		fmt.Fprintf(stdout, "of:%04x  %5d  %10d\n", i+1, rules, pins)
	}
	if total < want {
		return fmt.Errorf("only %d of %d rules installed", total, want)
	}
	fmt.Fprintf(stdout, "OK: %d reactive flow rules installed over live TCP OpenFlow\n", total)

	if vc != nil {
		// Ask the validator for its aggregate view, then report the wire
		// client's own accounting: reconnects and any shed backlog.
		if err := vc.RequestStats(); err != nil {
			log.Printf("jurylive: stats request: %v", err)
		}
		waitUntil(ctx, 3*time.Second, func() bool {
			vmu.Lock()
			defer vmu.Unlock()
			return vStats != nil
		})
		vmu.Lock()
		fmt.Fprintf(stdout, "validator: %d results received (%d alarms)\n", vResults, vAlarms)
		if vStats != nil {
			fmt.Fprintf(stdout, "validator: %s\n", statsLine(*vStats))
		} else {
			fmt.Fprintln(stdout, "validator: no stats reply (validator unreachable?)")
		}
		vmu.Unlock()
		fmt.Fprintf(stdout, "wire client: reconnects=%d dropped=%d backlog=%d\n",
			vc.Reconnects(), vc.Dropped(), vc.Backlog())
	}

	if tracer != nil {
		err := writeFile(*traceOut, func(w io.Writer) error {
			var werr error
			ctrlPump.Do(func() { werr = tracer.WriteJSONL(w) })
			return werr
		})
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(stdout, "controller trace -> %s (%d triggers)\n", *traceOut, tracer.CompletedTriggers())
	}
	return nil
}

func countRules(switches []*liveSwitch) int {
	total := 0
	for _, ls := range switches {
		ls.pump.Do(func() { total += len(ls.sw.Table()) })
	}
	return total
}

func dialSwitch(addr string, dpid topo.DPID) (*liveSwitch, error) {
	eng := simnet.NewEngine(int64(dpid))
	pump := ofconn.NewPump(eng, time.Millisecond)
	var sw *dataplane.Switch
	pump.Do(func() {
		sw = dataplane.NewSwitch(eng, dpid)
		sw.SetPorts([]uint16{1, 2})
	})
	end, err := ofconn.DialSwitch(addr, dpid, pump, func(msg openflow.Message) {
		sw.HandleControllerMessage(msg)
	})
	if err != nil {
		pump.Close()
		return nil, err
	}
	pump.Do(func() {
		sw.SetSendUp(func(msg openflow.Message) { _ = end.Send(msg) }) //jurylint:allow errcrit -- best-effort push; a dead conn ends the read loop and the run fails its rule count
	})
	return &liveSwitch{sw: sw, pump: pump, end: end}, nil
}
