// Command throughput runs the cluster-throughput experiments of §VII-B1
// live: the FLOW_MOD-vs-PACKET_IN curves for vanilla ONOS (Fig. 4f) and
// vanilla ODL (Fig. 4g), the impact of JURY's replication on ONOS
// (Fig. 4h), and the Cbench overload collapse (Fig. 4e) — printing the
// series the paper plots.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/controller"
	"github.com/jurysdn/jury/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== Fig. 4f: FLOW_MOD vs PACKET_IN, vanilla ONOS ==")
	if err := throughputSweep(jury.ONOS, []int{1, 3, 5, 7}, []float64{1000, 3000, 5000, 7500, 10000}); err != nil {
		return err
	}
	fmt.Println("\n== Fig. 4g: FLOW_MOD vs PACKET_IN, vanilla ODL ==")
	if err := throughputSweep(jury.ODL, []int{1, 3, 5, 7}, []float64{200, 400, 600, 800, 1000}); err != nil {
		return err
	}
	fmt.Println("\n== Fig. 4h: JURY-enhanced ONOS, n=7 ==")
	if err := jurySweep(); err != nil {
		return err
	}
	fmt.Println("\n== Fig. 4e: Cbench bursts overwhelm a controller ==")
	return cbenchCollapse()
}

func measure(cfg jury.Config, rate float64, dur time.Duration) (pin, fm float64, err error) {
	sim, err := jury.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	sim.Boot()
	start := sim.Now()
	until := start + dur
	sim.Driver.LocalPairs = true
	sim.Driver.Start(workload.ConstantRate(rate), until)
	if err := sim.Run(dur + time.Second); err != nil {
		return 0, 0, err
	}
	return sim.PacketIns.MeanRate(start, until), sim.FlowMods.MeanRate(start, until), nil
}

func throughputSweep(kind jury.ControllerKind, sizes []int, rates []float64) error {
	header := []string{"n \\ offered"}
	for _, r := range rates {
		header = append(header, fmt.Sprintf("%.0f/s", r))
	}
	var rows [][]string
	for _, n := range sizes {
		row := []string{fmt.Sprintf("n=%d", n)}
		for _, rate := range rates {
			_, fm, err := measure(jury.Config{Seed: 42, Kind: kind, ClusterSize: n}, rate, 6*time.Second)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.0f", fm))
		}
		rows = append(rows, row)
	}
	printTable(header, rows)
	return nil
}

// printTable writes rows of cells under a header as aligned columns.
func printTable(header []string, rows [][]string) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

func jurySweep() error {
	rates := []float64{4000, 8000}
	header := []string{"config"}
	for _, r := range rates {
		header = append(header, fmt.Sprintf("%.0f/s", r))
	}
	var rows [][]string
	configs := []struct {
		label string
		jury  bool
		k     int
	}{
		{"vanilla n=7", false, 0},
		{"jury k=2", true, 2},
		{"jury k=4", true, 4},
		{"jury k=6", true, 6},
	}
	var base []float64
	for ci, c := range configs {
		row := []string{c.label}
		for ri, rate := range rates {
			_, fm, err := measure(jury.Config{
				Seed: 42, Kind: jury.ONOS, ClusterSize: 7,
				EnableJury: c.jury, K: c.k,
			}, rate, 6*time.Second)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.0f", fm))
			if ci == 0 {
				base = append(base, fm)
			} else if ri == len(rates)-1 {
				drop := (base[ri] - fm) / base[ri] * 100
				row[len(row)-1] += fmt.Sprintf(" (-%.1f%%)", drop)
			}
		}
		rows = append(rows, row)
	}
	printTable(header, rows)
	fmt.Println("paper: <11% FLOW_MOD throughput drop at k=6 (§VII-B1)")
	return nil
}

func cbenchCollapse() error {
	// A single controller with a bounded ingress queue and overload
	// service inflation (the memory-bloat model) faces Cbench bursts.
	profile := controller.ONOSProfile()
	profile.QueueCap = 8192
	profile.InflateAt = 2048
	profile.InflateSlope = 0.006
	sim, err := jury.New(jury.Config{
		Seed:        42,
		Kind:        jury.ONOS,
		Profile:     &profile,
		ClusterSize: 1,
		Topology:    jury.SingleSwitch,
	})
	if err != nil {
		return err
	}
	sim.Boot()
	cb := workload.NewCbench(sim.Engine, sim.Fabric)
	cb.BurstSize = 12000
	cb.Period = time.Second
	cb.Spread = 900 * time.Millisecond
	start := sim.Now()
	cb.Start(start + 20*time.Second)
	if err := sim.Run(21 * time.Second); err != nil {
		return err
	}
	fmt.Println("second  PACKET_IN/s  FLOW_MOD/s  backlog")
	pins := sim.PacketIns.Rates()
	fms := sim.FlowMods.Rates()
	for i := int(start / time.Second); i < len(pins); i++ {
		var fm float64
		if i < len(fms) {
			fm = fms[i]
		}
		fmt.Printf("%6d  %11.0f  %10.0f\n", i-int(start/time.Second), pins[i], fm)
	}
	fmt.Println("paper: the FLOW_MOD rate lags the bursty PACKET_IN rate and falls toward zero (Fig. 4e)")
	return nil
}
