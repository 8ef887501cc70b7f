// Command discs-report renders markdown reports.
//
// Without flags it regenerates every headline number of the paper's
// evaluation as a paper-vs-measured table — the automated backing for
// EXPERIMENTS.md.
//
// With -metrics it instead renders the observability export written by
// `discs-sim -metrics`: fleet-wide final counters, the interval time
// series and an event-log summary, all in simulated time.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"discs/internal/cli"
	"discs/internal/cost"
	"discs/internal/eval"
	"discs/internal/obs"
	"discs/internal/topology"
)

func main() {
	cli.Init("discs-report")
	prof := cli.RegisterProfileFlags()
	topoFlags := cli.RegisterTopoFlags(topology.DefaultGenConfig())
	var (
		runs    = flag.Int("runs", 10, "random-deployment repetitions")
		mcFlows = flag.Int("mc-flows", 50000, "Monte-Carlo flow samples")
		metrics = flag.String("metrics", "", "render the observability export at this path instead of the paper table")
		series  = flag.String("series", "netsim.delivered,router.out_stamped,router.in_dropped,ctrl.msgs_sent",
			"comma-separated metrics for the -metrics time-series section")
	)
	flag.Parse()
	defer prof.Start()()

	if *metrics != "" {
		ex, err := obs.ReadExportFile(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		if err := renderExport(ex, splitList(*series)); err != nil {
			log.Fatal(err)
		}
		return
	}
	paperTable(topoFlags, *runs, *mcFlows)
}

// renderExport prints the markdown view of one observability export.
func renderExport(ex *obs.Export, series []string) error {
	fmt.Printf("# DISCS observability report (%s)\n\n", ex.GeneratedBy)
	fmt.Printf("final snapshot at t=%.3fs simulated; %d interval points every %.3fs; %d events (%d dropped)\n\n",
		cli.Seconds(ex.Final.AtNanos), len(ex.Points),
		cli.Seconds(ex.IntervalNanos), len(ex.Events), ex.EventsDropped)

	fmt.Println("## fleet totals")
	fmt.Println()
	agg := cli.AggregateScopes(ex.Final)
	t := cli.NewTable("Metric", "Total")
	for _, name := range agg.Names() {
		t.Row(name, fmt.Sprintf("%d", agg.Get(name)))
	}
	for _, name := range gaugeNames(agg) {
		t.Row(name+" (gauge)", fmt.Sprintf("%d", agg.GetGauge(name)))
	}
	if err := t.Write(os.Stdout); err != nil {
		return err
	}

	if len(ex.Points) > 0 {
		fmt.Println()
		fmt.Println("## time series (per-interval deltas, fleet-wide)")
		fmt.Println()
		fmt.Println("```tsv")
		if err := cli.WriteSeriesTSV(os.Stdout, ex.Points, series); err != nil {
			return err
		}
		fmt.Println("```")
	}

	if len(ex.Events) > 0 {
		fmt.Println()
		fmt.Println("## events by kind")
		fmt.Println()
		et := cli.NewTable("Kind", "Count")
		for _, kc := range cli.EventCounts(ex.Events) {
			et.Row(kc.Kind, fmt.Sprintf("%d", kc.N))
		}
		if err := et.Write(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// gaugeNames returns the snapshot's gauge names in sorted order.
func gaugeNames(s obs.Snapshot) []string {
	names := make([]string, 0, len(s.Gauges))
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// paperTable regenerates the paper's evaluation checkpoints
// (eval.Checkpoints) and the §VI-C cost model and prints
// paper-vs-measured.
func paperTable(topoFlags *cli.TopoFlags, runs, mcFlows int) {
	base := topology.DefaultGenConfig()
	base.SkipLinks = true
	topo, err := topoFlags.Build(base)
	if err != nil {
		log.Fatal(err)
	}
	cps, err := eval.Checkpoints(topo, runs, mcFlows, topoFlags.Seed)
	if err != nil {
		log.Fatal(err)
	}
	t := cli.NewTable("Quantity", "Paper", "Measured")
	for _, c := range cps {
		t.Row(c.Name, c.Paper, fmt.Sprintf("%.*f", c.Prec, c.Value))
	}
	add := func(name, paper, format string, v float64) {
		t.Row(name, paper, fmt.Sprintf(format, v))
	}
	c := cost.Controller(cost.Defaults())
	rt := cost.Router(cost.Defaults())
	add("§VI-C: controller total memory (MB)", "463.1", "%.1f", c.TotalMemoryBytes/1e6)
	add("§VI-C: key negotiations (/min)", "6.1", "%.1f", c.KeyNegotiationsPerMin)
	add("§VI-C: invocations (/min)", "1.1", "%.1f", c.InvocationsPerMin)
	add("§VI-C: SSL connections under attack (/s)", "147", "%.0f", c.ConnPerSecOnAttack)
	add("§VI-C: controller CPU (%)", "7.3", "%.1f", c.CPUUtilization*100)
	add("§VI-C: controller bandwidth (Mbps)", "1.76", "%.2f", c.BandwidthMbps)
	add("§VI-C: router SRAM (MB)", "3.5", "%.1f", rt.SRAMBytes/1e6)
	add("§VI-C: AES-CMAC IPv4 (Mpps/core)", "≈8", "%.2f", rt.V4MACPerSec/1e6)
	add("§VI-C: AES-CMAC IPv6 (Mpps/core)", "≈5.33", "%.2f", rt.V6MACPerSec/1e6)
	add("§VI-C: IPv4 line rate (Gbps)", "26.25", "%.2f", rt.V4Gbps)
	add("§VI-C: IPv6 line rate (Gbps)", "18.33", "%.2f", rt.V6Gbps)
	add("§VI-C: IPv6 goodput loss (%)", "≈1.6", "%.2f", rt.V6GoodputLoss*100)

	fmt.Printf("# DISCS reproduction report (seed %d, %d ASes, %d prefixes)\n\n",
		topoFlags.Seed, topo.NumASes(), topo.Pfx2AS().Len())
	if err := t.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
