// Command discs-sim runs an end-to-end DISCS scenario on a synthetic
// Internet: BGP convergence, DAS discovery via DISCS-Ads, peering and
// key negotiation, then a declarative campaign (internal/scenario) —
// the -scenario spec, or else the embedded default.json: a d-DDoS
// pulse, on-demand invocation of the four defense functions, the same
// d-DDoS pulse and an s-DDoS pulse again, and legitimate traffic from
// every peer. The report ends with where the spoofed traffic died,
// read from each DAS border router's own counters: egress drops are
// DP/SP at the sender's border, ingress drops CDP/CSP verification.
//
// With -metrics it also writes the unified observability export
// (internal/obs): the final registry snapshot, an interval time series
// recorded on the simulated clock, and the control/data-plane event
// trace. discs-report -metrics renders that file.
//
// Checkpoint/restore: -snapshot writes a crash-consistent image of
// the deployed, settled world (internal/snapshot) and continues;
// -restore boots from such an image — skipping generation,
// convergence and deployment — and runs the campaign after
// journal-replay recovery. -sweep N forks N campaign cells from one
// warm image, shifting the spec's seed by the cell index.
package main

import (
	_ "embed"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"discs/internal/bgp"
	"discs/internal/cli"
	"discs/internal/core"
	"discs/internal/flowexport"
	"discs/internal/netsim"
	"discs/internal/obs"
	"discs/internal/scenario"
	"discs/internal/snapshot"
	"discs/internal/topology"
)

// defaultSpec is the campaign a run without -scenario executes.
//
//go:embed default.json
var defaultSpec []byte

// config is one invocation's settings, parsed from the flags.
type config struct {
	gen      topology.GenConfig
	paper    bool
	das      int
	workers  int
	metrics  string
	interval time.Duration
	sample   int

	scenarioPath, dataset string
	snapPath, restorePath string
	sweep                 int
}

func main() {
	cli.Init("discs-sim")
	prof := cli.RegisterProfileFlags()
	topoFlags := cli.RegisterTopoFlags(topology.GenConfig{
		NumASes: 200, NumPrefixes: 600, ZipfExponent: 1.0, Seed: 1,
	})
	var c config
	flag.BoolVar(&c.paper, "paper", false, "run at paper scale: topology.DefaultGenConfig (44 036 ASes, ~442k prefixes) with one originated prefix per DAS; explicit -ases/-prefixes/-zipf/-seed still override")
	flag.IntVar(&c.das, "das", 10, "number of DISCS deployers (largest-first)")
	flag.IntVar(&c.workers, "workers", runtime.GOMAXPROCS(0), "simulation worker goroutines, at least 1; results are bit-identical across worker counts")
	flag.StringVar(&c.metrics, "metrics", "", "write the observability export (JSON) to this path")
	flag.DurationVar(&c.interval, "interval", time.Second, "simulated-time spacing of interval snapshots")
	flag.IntVar(&c.sample, "trace-sample", 64, "with -metrics, trace every Nth data-plane packet decision")
	flag.StringVar(&c.scenarioPath, "scenario", "", "run this declarative scenario spec (JSON, see examples/scenario) instead of the built-in default campaign")
	flag.StringVar(&c.dataset, "dataset", "", "write the campaign's ground-truth-labeled flow dataset to this path (.csv, or .dfx2 for the binary export)")
	flag.StringVar(&c.snapPath, "snapshot", "", "after deployment settles, write a crash-consistent world snapshot to this path and continue")
	flag.StringVar(&c.restorePath, "restore", "", "boot from a world snapshot instead of generating/converging/deploying (topology and DAS set come from the image)")
	flag.IntVar(&c.sweep, "sweep", 0, "with -restore: fork N campaign cells from the image, the spec's seed shifted by the cell index")
	flag.Parse()
	if c.workers < 1 {
		log.Fatalf("-workers %d: the engine needs at least one worker", c.workers)
	}
	if c.sweep > 0 && c.restorePath == "" {
		log.Fatal("-sweep requires -restore")
	}
	// Paper mode swaps in the full evaluation scale of §VI: the
	// DefaultGenConfig synthetic Internet (2012 CAIDA snapshot scale)
	// with links, linear-time network build, warmed routing trees, and
	// one originated prefix per DAS — BGP's only required role in
	// DISCS is disseminating the Ads, and a full 442k-prefix table
	// would push convergence to ~200M events for no additional signal.
	if c.paper {
		c.gen = topoFlags.ConfigSet(topology.DefaultGenConfig())
	} else {
		c.gen = topoFlags.Config(topology.GenConfig{TierOneCount: 5})
	}
	defer prof.Start()()
	if err := run(os.Stdout, c); err != nil {
		log.Fatal(err)
	}
}

// run executes one invocation, writing its report to w.
func run(w io.Writer, c config) error {
	raw := defaultSpec
	if c.scenarioPath != "" {
		var err error
		if raw, err = os.ReadFile(c.scenarioPath); err != nil {
			return err
		}
	}
	spec, err := scenario.Parse(raw)
	if err != nil {
		return err
	}
	if c.restorePath != "" {
		return runRestored(w, c, spec)
	}
	return runStraight(w, c, spec)
}

// runStraight generates, converges and deploys a world, then runs the
// campaign on it.
func runStraight(w io.Writer, c config, spec *scenario.Spec) error {
	start := time.Now()
	topo, err := topology.GenerateInternet(c.gen)
	if err != nil {
		return err
	}
	genDur := time.Since(start)
	start = time.Now()
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	if err != nil {
		return err
	}
	buildDur := time.Since(start)

	// Re-lane the engine before any event is scheduled: shard the
	// border nodes by customer-cone locality, then give the simulator
	// one lane per shard. A parallel run is bit-identical to -workers 1
	// (see DESIGN.md §11).
	net.AssignShards(netsim.DefaultShards)
	eng, err := net.Sim.Relane(netsim.Options{Shards: netsim.DefaultShards, Workers: c.workers})
	if err != nil {
		return err
	}
	defer eng.Close()
	mode := "parallel"
	if eng.Merged() {
		mode = "merged (zero-delay cross-shard link)"
	}
	fmt.Fprintf(w, "parsim engine: %d shards, %d workers, lookahead %v, mode %s\n",
		eng.Shards(), eng.Workers(), eng.Lookahead(), mode)

	deployers := topo.BySizeDesc()[:c.das]
	start = time.Now()
	if c.paper {
		net.OriginateFirst(deployers...)
	} else {
		net.OriginateAll()
	}
	if err := net.Converge(); err != nil {
		return err
	}
	convDur := time.Since(start)
	fmt.Fprintf(w, "internet: %d ASes, %d links, %d prefixes, BGP converged\n",
		topo.NumASes(), topo.NumLinks(), topo.Pfx2AS().Len())
	if c.paper {
		fmt.Fprintf(w, "paper-scale timings: generate %.2fs, build %.2fs, originate+converge %.2fs\n",
			genDur.Seconds(), buildDur.Seconds(), convDur.Seconds())
	}

	cfg := core.DefaultConfig()
	if c.metrics != "" {
		cfg.TraceSampleEvery = c.sample
	}
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: cfg})
	if err != nil {
		return err
	}

	// The interval recorder ticks on the simulated clock, so points
	// appear whenever the campaign advances time (settling, grace
	// windows, attack waves) — armed before deployment so the control
	// plane's ramp-up is part of the series.
	var rec *obs.Recorder
	if c.metrics != "" {
		rec = obs.NewRecorder()
		net.Sim.EveryBackground(c.interval, func() {
			rec.Record(sys.Registry().Snapshot())
		})
	}

	for i, asn := range deployers {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			return err
		}
	}
	if err := sys.Settle(); err != nil {
		return err
	}
	victim := deployers[len(deployers)-1]
	if c.paper {
		// Precompute routing trees for every destination the campaign
		// forwards toward (the victim and the DAS peers), so the
		// attack waves run on O(1) warm NextHop lookups.
		start = time.Now()
		warmed := topo.WarmRoutes(deployers, 0)
		fmt.Fprintf(w, "paper-scale timings: warmed %d routing trees in %.2fs\n",
			warmed, time.Since(start).Seconds())
	}
	fmt.Fprintf(w, "deployed DISCS on %d largest ASes; victim AS%d has %d peers\n",
		c.das, victim, len(sys.Controllers[victim].Peers()))

	// The deployed, settled, warmed world is the expensive part of a
	// run; -snapshot persists it so later runs (and -sweep campaign
	// fans) start here instead of at generation.
	if c.snapPath != "" {
		start = time.Now()
		if err := snapshot.WriteFile(c.snapPath, &snapshot.World{Net: net, Eng: eng, Sys: sys}); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote world snapshot: %s (%.2fs)\n", c.snapPath, time.Since(start).Seconds())
	}

	if err := runScenario(w, sys, spec, 0, c.dataset); err != nil {
		return err
	}

	if c.metrics != "" {
		ex := obs.NewExport("discs-sim", sys.Registry(), rec, int64(c.interval))
		if err := ex.WriteFile(c.metrics); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote observability export: %s (%d interval points, %d events, %d dropped)\n",
			c.metrics, len(ex.Points), len(ex.Events), ex.EventsDropped)
	}
	return nil
}

// runScenario drives the campaign through the scenario engine on the
// deployed world, then reports per-phase outcomes, time-to-mitigation,
// where the spoofed traffic died, and the plane totals, and optionally
// exports the ground-truth-labeled flow dataset.
func runScenario(w io.Writer, sys *core.System, spec *scenario.Spec, seedOffset int64, dataset string) error {
	eng, err := scenario.NewEngine(scenario.Options{Spec: spec, Sys: sys, SeedOffset: seedOffset})
	if err != nil {
		return err
	}
	before := make(map[topology.ASN]core.RouterStats)
	for _, asn := range sys.Deployed() {
		before[asn] = sys.Router(asn).Stats()
	}
	res, err := eng.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\nscenario %q (seed %d+%d) against victim AS%d:\n",
		res.Scenario, res.Seed, seedOffset, res.Victim)
	fmt.Fprintf(w, "  %-3s %-18s %-8s %9s %9s %9s %7s\n",
		"#", "phase", "kind", "sent", "delivered", "dropped", "drop%")
	for _, ph := range res.Phases {
		fmt.Fprintf(w, "  %-3d %-18s %-8s %9d %9d %9d %6.1f%%",
			ph.Index, ph.Name, ph.Kind, ph.Sent, ph.Delivered, ph.Dropped, 100*ph.DropRate)
		switch {
		case ph.Kind == scenario.PhaseInvoke:
			fmt.Fprintf(w, "  invoked at %d peers", ph.InvokedPeers)
		case ph.Kind == scenario.PhaseDeploy:
			fmt.Fprintf(w, "  +%d DAS (ratio %.3f, IncDP %.3f, IncCDP %.3f, eff %.3f)",
				ph.NewDeployed, ph.DeployedRatio, ph.IncDP, ph.IncCDP, ph.Effectiveness)
		case ph.Kind == scenario.PhaseAdaptive:
			fmt.Fprintf(w, "  rotations %d, probes %d, agents %d live / %d idle",
				ph.Rotations, ph.ProbesSent, ph.LiveAgents, ph.IdleAgents)
		case ph.Kind == scenario.PhaseLegit:
			fmt.Fprintf(w, "  false positives %d", ph.FalsePositives)
		}
		fmt.Fprintln(w)
	}
	if ttm := res.TTM; ttm != nil {
		switch {
		case ttm.Recovered:
			fmt.Fprintf(w, "time-to-mitigation: detect %v + recover %v = %v (first attack %v, invoked %v, recovered %v)\n",
				ttm.DetectDelay, ttm.RecoveryDelay, ttm.Total,
				ttm.FirstAttackAt, ttm.InvokedAt, ttm.RecoveredAt)
		case ttm.Invoked:
			fmt.Fprintf(w, "time-to-mitigation: detected after %v, drop rate never reached the recovery threshold\n", ttm.DetectDelay)
		default:
			fmt.Fprintf(w, "time-to-mitigation: defense never invoked\n")
		}
	}

	writeDropReport(w, sys, before, res.Victim)
	writeTotals(w, sys)

	if dataset != "" {
		if err := writeDataset(dataset, res); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote labeled dataset: %s (%d flow records)\n", dataset, len(res.Dataset))
	}
	return nil
}

// writeDropReport prints where the campaign's packets died: per DAS
// border router, its drop counters' growth since before — egress
// counts the DP/SP filter drops at its outbound side, ingress the
// CDP/CSP verification drops at its inbound side. Rows run most drops
// first (ties by ASN, so the report never depends on map order) and
// leave out routers that dropped nothing; a router deployed during the
// campaign counts from zero.
func writeDropReport(w io.Writer, sys *core.System, before map[topology.ASN]core.RouterStats, victim topology.ASN) {
	type row struct {
		as              topology.ASN
		egress, ingress uint64
	}
	var rows []row
	for _, asn := range sys.Deployed() {
		a, b := sys.Router(asn).Stats(), before[asn]
		if r := (row{asn, a.OutDropped - b.OutDropped, a.InDropped - b.InDropped}); r.egress+r.ingress > 0 {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		ti, tj := rows[i].egress+rows[i].ingress, rows[j].egress+rows[j].ingress
		if ti != tj {
			return ti > tj
		}
		return rows[i].as < rows[j].as
	})
	fmt.Fprintf(w, "\ndrops by DAS border router over the campaign:\n")
	fmt.Fprintf(w, "  %-8s %14s %18s\n", "AS", "egress (DP/SP)", "ingress (CDP/CSP)")
	for _, r := range rows {
		role := ""
		if r.as == victim {
			role = "  victim"
		}
		fmt.Fprintf(w, "  AS%-6d %14d %18d%s\n", r.as, r.egress, r.ingress, role)
	}
}

// writeTotals prints the fleet-wide resource accounting (§VI-C2): one
// registry spans the whole system, so totals are suffix sums over the
// snapshot. The engine's epoch count is the same at any worker count;
// its per-worker event counts and stall time are not, so they stay in
// the -metrics export.
func writeTotals(w io.Writer, sys *core.System) {
	snap := sys.Stats()
	fmt.Fprintf(w, "\ndata plane totals across %d routers:\n", len(sys.Controllers))
	fmt.Fprintf(w, "  outbound: %d processed, %d stamped, %d dropped\n",
		snap.Sum(core.MetricRouterOutProcessed), snap.Sum(core.MetricRouterOutStamped),
		snap.Sum(core.MetricRouterOutDropped))
	fmt.Fprintf(w, "  inbound:  %d processed, %d verified, %d verify-failed, %d dropped, %d erased-only\n",
		snap.Sum(core.MetricRouterInProcessed), snap.Sum(core.MetricRouterInVerified),
		snap.Sum(core.MetricRouterInVerifyFail), snap.Sum(core.MetricRouterInDropped),
		snap.Sum(core.MetricRouterInErasedOnly))
	fmt.Fprintf(w, "  crypto:   %d CMACs computed, %d ICMP errors scrubbed\n",
		snap.Sum(core.MetricRouterMACsComputed), snap.Sum(core.MetricRouterICMPScrubbed))
	fmt.Fprintf(w, "control plane totals across %d controllers:\n", len(sys.Controllers))
	fmt.Fprintf(w, "  %d msgs sent, %d received, %d retries; %d B sealed, %d B opened\n",
		snap.Sum(core.MetricCtrlMsgsSent), snap.Sum(core.MetricCtrlMsgsRecv),
		snap.Sum(core.MetricCtrlRetries), snap.Sum(core.MetricCtrlBytesSealed),
		snap.Sum(core.MetricCtrlBytesOpened))
	fmt.Fprintf(w, "parsim: %d epochs\n", snap.Get(netsim.MetricEpochs))
}

// writeDataset exports the run's labeled flow records: the binary
// export for a .dfx2 path, CSV otherwise.
func writeDataset(path string, res *scenario.Result) error {
	if strings.HasSuffix(path, ".dfx2") {
		b, err := flowexport.MarshalLabeled(res.Scenario, res.Dataset)
		if err != nil {
			return fmt.Errorf("dataset export: %w (use .csv for runs beyond one datagram)", err)
		}
		return os.WriteFile(path, b, 0o644)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := flowexport.WriteLabeledCSV(f, res.Dataset); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runRestored boots one or more campaign cells from a world snapshot:
// decode the image once, then per cell restore a fresh world, re-drive
// the crash-recovery journal replay, and run the campaign with the
// spec's seed shifted by the cell index. Restore + replay is seconds
// where the cold path (generate, converge, deploy) is tens of seconds
// at paper scale.
func runRestored(w io.Writer, c config, spec *scenario.Spec) error {
	start := time.Now()
	img, err := snapshot.ReadFile(c.restorePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "read world snapshot: %s (%.2fs)\n", c.restorePath, time.Since(start).Seconds())

	cells := max(c.sweep, 1)
	for cell := 0; cell < cells; cell++ {
		if err := runCell(w, c, img, spec, cell, cells); err != nil {
			return err
		}
	}
	return nil
}

// runCell restores one world from img and runs the campaign on it at
// seed offset cell.
func runCell(w io.Writer, c config, img *snapshot.Image, spec *scenario.Spec, cell, cells int) error {
	start := time.Now()
	world, err := snapshot.Restore(img, snapshot.Options{Workers: c.workers})
	if err != nil {
		return err
	}
	defer world.Eng.Close()
	if world.Sys == nil {
		return fmt.Errorf("image has no deployed system; write one with -snapshot")
	}
	if err := world.Sys.RestartAll(); err != nil {
		return err
	}
	if err := world.Sys.Settle(); err != nil {
		return err
	}
	if cells > 1 {
		fmt.Fprintf(w, "\n=== cell %d/%d (seed offset %d) ===\n", cell+1, cells, cell)
	}
	fmt.Fprintf(w, "restored %d ASes, %d DAS; recovery settled in %.2fs\n",
		world.Net.Topo.NumASes(), len(world.Sys.Deployed()), time.Since(start).Seconds())

	if err := runScenario(w, world.Sys, spec, int64(cell), c.dataset); err != nil {
		return err
	}
	fmt.Fprintf(w, "cell wall time %.2fs\n", time.Since(start).Seconds())
	return nil
}
