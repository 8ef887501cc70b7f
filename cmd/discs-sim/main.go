// Command discs-sim runs an end-to-end DISCS scenario on a synthetic
// Internet: BGP convergence, DAS discovery via DISCS-Ads, peering, key
// negotiation, a d-DDoS plus reflection attack, on-demand invocation
// of the four defense functions, and a report of where the spoofed
// traffic died.
//
// With -metrics it also writes the unified observability export
// (internal/obs): the final registry snapshot, an interval time series
// recorded on the simulated clock, and the control/data-plane event
// trace. discs-report -metrics renders that file.
//
// Checkpoint/restore: -snapshot writes a crash-consistent image of
// the deployed, settled world (internal/snapshot) and continues;
// -restore boots from such an image — skipping generation,
// convergence and deployment — and runs the attack phase after
// journal-replay recovery. -sweep N forks N scenario cells from one
// warm image, varying the attack seed per cell.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"discs/internal/attack"
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

// runOpts bundles the attack/invocation-phase knobs shared by a
// straight-through run and restored cells.
type runOpts struct {
	flows, perFlow, waves int
	interval              time.Duration
	invoke                string
	seed                  int64
	// scenarioPath switches the attack phase to a declarative campaign
	// (internal/scenario); dataset optionally exports its labeled flow
	// records. seedOffset shifts the scenario RNG per sweep cell.
	scenarioPath, dataset string
	seedOffset            int64
}

func main() {
	cli.Init("discs-sim")
	prof := cli.RegisterProfileFlags()
	topoFlags := cli.RegisterTopoFlags(topology.GenConfig{
		NumASes: 200, NumPrefixes: 600, ZipfExponent: 1.0, Seed: 1,
	})
	var (
		paper   = flag.Bool("paper", false, "run at paper scale: topology.DefaultGenConfig (44 036 ASes, ~442k prefixes) with one originated prefix per DAS; explicit -ases/-prefixes/-zipf/-seed still override")
		nDAS    = flag.Int("das", 10, "number of DISCS deployers (largest-first)")
		flows   = flag.Int("flows", 200, "number of attack flows")
		perFlow = flag.Int("per-flow", 10, "packets per flow")
		invoke  = flag.String("invoke", "", `invocation triples to use instead of all four functions, e.g. "all:DP:24h,all:CDP:24h" ("all" expands to the victim's prefixes)`)

		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker goroutines, at least 1; results are bit-identical across worker counts")

		metrics  = flag.String("metrics", "", "write the observability export (JSON) to this path")
		interval = flag.Duration("interval", time.Second, "simulated-time spacing of interval snapshots and attack waves")
		waves    = flag.Int("waves", 8, "attack waves per run (clock advances by -interval between waves)")
		sample   = flag.Int("trace-sample", 64, "with -metrics, trace every Nth data-plane packet decision")

		scenarioPath = flag.String("scenario", "", "run a declarative scenario spec (JSON, see examples/scenario) instead of the built-in attack phase")
		dataset      = flag.String("dataset", "", "with -scenario: write the ground-truth-labeled flow dataset to this path (.csv, or .dfx2 for the binary export)")

		snapPath    = flag.String("snapshot", "", "after deployment settles, write a crash-consistent world snapshot to this path and continue")
		restorePath = flag.String("restore", "", "boot from a world snapshot instead of generating/converging/deploying (topology, DAS set and seed come from the image)")
		sweep       = flag.Int("sweep", 0, "with -restore: fork N scenario cells from the image, attack seed varying per cell")
	)
	flag.Parse()
	if *perFlow < 0 {
		log.Fatalf("-per-flow %d: a packet count cannot be negative", *perFlow)
	}
	if *workers < 1 {
		log.Fatalf("-workers %d: the engine needs at least one worker", *workers)
	}
	defer prof.Start()()
	seed := topoFlags.Seed

	if *restorePath != "" {
		runRestored(*restorePath, *workers, *sweep, runOpts{
			flows: *flows, perFlow: *perFlow, waves: *waves,
			interval: *interval, invoke: *invoke, seed: seed,
			scenarioPath: *scenarioPath, dataset: *dataset,
		})
		return
	}
	if *sweep > 0 {
		log.Fatal("-sweep requires -restore")
	}

	// Paper mode swaps in the full evaluation scale of §VI: the
	// DefaultGenConfig synthetic Internet (2012 CAIDA snapshot scale)
	// with links, linear-time network build, warmed routing trees, and
	// one originated prefix per DAS — BGP's only required role in
	// DISCS is disseminating the Ads, and a full 442k-prefix table
	// would push convergence to ~200M events for no additional signal.
	var genCfg topology.GenConfig
	if *paper {
		genCfg = topoFlags.ConfigSet(topology.DefaultGenConfig())
		seed = genCfg.Seed
	} else {
		genCfg = topoFlags.Config(topology.GenConfig{TierOneCount: 5})
	}
	start := time.Now()
	topo, err := topology.GenerateInternet(genCfg)
	if err != nil {
		log.Fatal(err)
	}
	genDur := time.Since(start)
	start = time.Now()
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	buildDur := time.Since(start)

	// Re-lane the engine before any event is scheduled: shard the
	// border nodes by customer-cone locality, then give the simulator
	// one lane per shard. A parallel run is bit-identical to -workers 1
	// (see DESIGN.md §11).
	net.AssignShards(netsim.DefaultShards)
	eng, err := net.Sim.Relane(netsim.Options{Shards: netsim.DefaultShards, Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	mode := "parallel"
	if eng.Merged() {
		mode = "merged (zero-delay cross-shard link)"
	}
	fmt.Printf("parsim engine: %d shards, %d workers, lookahead %v, mode %s\n",
		eng.Shards(), eng.Workers(), eng.Lookahead(), mode)

	deployers := topo.BySizeDesc()[:*nDAS]
	start = time.Now()
	if *paper {
		net.OriginateFirst(deployers...)
	} else {
		net.OriginateAll()
	}
	if err := net.Converge(); err != nil {
		log.Fatal(err)
	}
	convDur := time.Since(start)
	fmt.Printf("internet: %d ASes, %d links, %d prefixes, BGP converged\n",
		topo.NumASes(), topo.NumLinks(), topo.Pfx2AS().Len())
	if *paper {
		fmt.Printf("paper-scale timings: generate %.2fs, build %.2fs, originate+converge %.2fs\n",
			genDur.Seconds(), buildDur.Seconds(), convDur.Seconds())
	}

	cfg := core.DefaultConfig()
	if *metrics != "" {
		cfg.TraceSampleEvery = *sample
	}
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}

	// The interval recorder ticks on the simulated clock, so points
	// appear whenever the scenario advances time (settling, grace
	// windows, attack waves) — armed before deployment so the control
	// plane's ramp-up is part of the series.
	var rec *obs.Recorder
	if *metrics != "" {
		rec = obs.NewRecorder()
		net.Sim.EveryBackground(*interval, func() {
			rec.Record(sys.Registry().Snapshot())
		})
	}

	for i, asn := range deployers {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		log.Fatal(err)
	}
	victim := deployers[len(deployers)-1]
	if *paper {
		// Precompute routing trees for every destination the scenario
		// forwards toward (the victim and the DAS peers), so the
		// attack waves run on O(1) warm NextHop lookups.
		start = time.Now()
		warmed := topo.WarmRoutes(deployers, 0)
		fmt.Printf("paper-scale timings: warmed %d routing trees in %.2fs\n",
			warmed, time.Since(start).Seconds())
	}
	vc := sys.Controllers[victim]
	fmt.Printf("deployed DISCS on %d largest ASes; victim AS%d has %d peers\n",
		*nDAS, victim, len(vc.Peers()))

	// The deployed, settled, warmed world is the expensive part of a
	// run; -snapshot persists it so later runs (and -sweep scenario
	// fans) start here instead of at generation.
	if *snapPath != "" {
		start = time.Now()
		if err := snapshot.WriteFile(*snapPath, &snapshot.World{Net: net, Eng: eng, Sys: sys}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote world snapshot: %s (%.2fs)\n", *snapPath, time.Since(start).Seconds())
	}

	runAttack(sys, eng, deployers, runOpts{
		flows: *flows, perFlow: *perFlow, waves: *waves,
		interval: *interval, invoke: *invoke, seed: seed,
		scenarioPath: *scenarioPath, dataset: *dataset,
	})

	if *metrics != "" {
		ex := obs.NewExport("discs-sim", sys.Registry(), rec, int64(*interval))
		if err := ex.WriteFile(*metrics); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote observability export: %s (%d interval points, %d events, %d dropped)\n",
			*metrics, len(ex.Points), len(ex.Events), ex.EventsDropped)
	}
}

// runAttack executes the attack/invocation phase — the part of the
// scenario after the world is deployed and settled, which is exactly
// where a restored snapshot resumes. With -scenario it hands the whole
// phase to the declarative engine instead.
func runAttack(sys *core.System, eng *netsim.Engine, deployers []topology.ASN, sc runOpts) {
	if sc.scenarioPath != "" {
		runScenario(sys, sc)
		return
	}
	topo := sys.Net.Topo
	victim := deployers[len(deployers)-1]
	vc := sys.Controllers[victim]

	// Attack before invocation: everything gets through.
	sampler := attack.NewSampler(topo)
	rng := rand.New(rand.NewSource(sc.seed))
	mkFlows := func(kind attack.Kind) []attack.Flow {
		out := make([]attack.Flow, sc.flows)
		for i := range out {
			out[i] = sampler.DrawFlowForVictim(kind, victim, rng)
		}
		return out
	}
	dFlows, sFlows := mkFlows(attack.DDDoS), mkFlows(attack.SDDoS)

	before, err := attack.RunPaced(sys, dFlows, sc.perFlow, sc.seed, sc.waves, sc.interval)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nd-DDoS before invocation: %d sent, %d delivered (%.1f%% filtered)\n",
		before.Sent, before.Delivered, 100*before.DropRate())

	// The victim detects the attack and invokes. By default it invokes
	// everything (§IV-E2: unknown attack type → all four functions);
	// -invoke overrides with explicit (v, f, duration) triples, where
	// the prefix "all" expands to the victim's own prefixes.
	var invs []core.Invocation
	if sc.invoke == "" {
		for _, f := range []core.Function{core.DP, core.CDP, core.SP, core.CSP} {
			invs = append(invs, core.Invocation{
				Prefixes: vc.OwnPrefixes(), Function: f, Duration: 24 * time.Hour,
			})
		}
	} else {
		var err error
		invs, err = core.ParseInvocations(strings.ReplaceAll(sc.invoke, "all:", "0.0.0.0/0:"))
		if err != nil {
			log.Fatal(err)
		}
		for i := range invs {
			if len(invs[i].Prefixes) == 1 && invs[i].Prefixes[0].Bits() == 0 {
				invs[i].Prefixes = vc.OwnPrefixes()
			}
		}
	}
	n, err := vc.Invoke(invs...)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Settle(); err != nil {
		log.Fatal(err)
	}
	sys.Net.Sim.After(core.DefaultGrace+time.Second, func() {})
	sys.Settle()
	names := make([]string, len(invs))
	for i, inv := range invs {
		names[i] = inv.Function.String()
	}
	fmt.Printf("victim invoked %s at %d peers\n", strings.Join(names, "+"), n)

	report := func(name string, res attack.Result) {
		fmt.Printf("\n%s after invocation: %d sent, %d delivered (%.1f%% filtered)\n",
			name, res.Sent, res.Delivered, 100*res.DropRate())
		var where []topology.ASN
		for asn := range res.DroppedAt {
			where = append(where, asn)
		}
		sort.Slice(where, func(i, j int) bool {
			// Tie-break equal drop counts by ASN: map iteration order must
			// not leak into the report (the output is diffed across runs).
			di, dj := res.DroppedAt[where[i]], res.DroppedAt[where[j]]
			if di != dj {
				return di > dj
			}
			return where[i] < where[j]
		})
		for _, asn := range where {
			role := "peer egress (far from victim)"
			if asn == victim {
				role = "victim border (verification)"
			}
			fmt.Printf("  dropped at AS%-6d %6d  %s\n", asn, res.DroppedAt[asn], role)
		}
	}

	after, err := attack.RunPaced(sys, dFlows, sc.perFlow, sc.seed+1, sc.waves, sc.interval)
	if err != nil {
		log.Fatal(err)
	}
	report("d-DDoS", after)

	afterS, err := attack.RunPaced(sys, sFlows, sc.perFlow, sc.seed+2, sc.waves, sc.interval)
	if err != nil {
		log.Fatal(err)
	}
	report("s-DDoS", afterS)

	// Legitimate traffic sanity: genuine flows from every DAS peer.
	ok, total := 0, 0
	for _, asn := range deployers[:len(deployers)-1] {
		pkts, err := (attack.Flow{Kind: attack.DDDoS, Agent: asn, Innocent: asn, Victim: victim}).
			Packets(topo, 10, rng)
		if err != nil {
			continue
		}
		for _, p := range pkts {
			total++
			if sys.SendV4(asn, p).Delivered {
				ok++
			}
		}
	}
	fmt.Printf("\nlegitimate traffic from peers: %d/%d delivered (false positives: %d)\n",
		ok, total, total-ok)

	// Fleet-wide resource accounting (§VI-C2): one registry spans the
	// whole system, so totals are suffix sums over the snapshot.
	snap := sys.Stats()
	fmt.Printf("\ndata plane totals across %d routers:\n", len(sys.Routers))
	fmt.Printf("  outbound: %d processed, %d stamped, %d dropped\n",
		snap.Sum(core.MetricRouterOutProcessed), snap.Sum(core.MetricRouterOutStamped),
		snap.Sum(core.MetricRouterOutDropped))
	fmt.Printf("  inbound:  %d processed, %d verified, %d verify-failed, %d dropped, %d erased-only\n",
		snap.Sum(core.MetricRouterInProcessed), snap.Sum(core.MetricRouterInVerified),
		snap.Sum(core.MetricRouterInVerifyFail), snap.Sum(core.MetricRouterInDropped),
		snap.Sum(core.MetricRouterInErasedOnly))
	fmt.Printf("  crypto:   %d CMACs computed, %d ICMP errors scrubbed\n",
		snap.Sum(core.MetricRouterMACsComputed), snap.Sum(core.MetricRouterICMPScrubbed))
	fmt.Printf("control plane totals across %d controllers:\n", len(sys.Controllers))
	fmt.Printf("  %d msgs sent, %d received, %d retries; %d B sealed, %d B opened\n",
		snap.Sum(core.MetricCtrlMsgsSent), snap.Sum(core.MetricCtrlMsgsRecv),
		snap.Sum(core.MetricCtrlRetries), snap.Sum(core.MetricCtrlBytesSealed),
		snap.Sum(core.MetricCtrlBytesOpened))

	fmt.Printf("\nparsim: %d epochs, %.3fs total worker stall\n",
		snap.Get(netsim.MetricEpochs),
		time.Duration(snap.Get(netsim.MetricStallNS)).Seconds())
	for w := 0; w < eng.Workers(); w++ {
		fmt.Printf("  worker %d: %d events\n", w, snap.Get(netsim.MetricWorkerEvents(w)))
	}
}

// runScenario executes a declarative campaign (internal/scenario) on
// the deployed world: parse the spec, drive every phase, report
// per-phase outcomes and time-to-mitigation, and optionally export the
// ground-truth-labeled flow dataset.
func runScenario(sys *core.System, sc runOpts) {
	raw, err := os.ReadFile(sc.scenarioPath)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := scenario.Parse(raw)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := scenario.NewEngine(scenario.Options{Spec: spec, Sys: sys, SeedOffset: sc.seedOffset})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nscenario %q (seed %d+%d) against victim AS%d:\n",
		res.Scenario, res.Seed, sc.seedOffset, res.Victim)
	fmt.Printf("  %-3s %-18s %-8s %9s %9s %9s %7s\n",
		"#", "phase", "kind", "sent", "delivered", "dropped", "drop%")
	for _, ph := range res.Phases {
		fmt.Printf("  %-3d %-18s %-8s %9d %9d %9d %6.1f%%",
			ph.Index, ph.Name, ph.Kind, ph.Sent, ph.Delivered, ph.Dropped, 100*ph.DropRate)
		switch {
		case ph.Kind == scenario.PhaseInvoke:
			fmt.Printf("  invoked at %d peers", ph.InvokedPeers)
		case ph.Kind == scenario.PhaseDeploy:
			fmt.Printf("  +%d DAS (ratio %.3f, IncDP %.3f, IncCDP %.3f, eff %.3f)",
				ph.NewDeployed, ph.DeployedRatio, ph.IncDP, ph.IncCDP, ph.Effectiveness)
		case ph.Kind == scenario.PhaseAdaptive:
			fmt.Printf("  rotations %d, probes %d, agents %d live / %d idle",
				ph.Rotations, ph.ProbesSent, ph.LiveAgents, ph.IdleAgents)
		case ph.Kind == scenario.PhaseLegit:
			fmt.Printf("  false positives %d", ph.FalsePositives)
		}
		fmt.Println()
	}
	if ttm := res.TTM; ttm != nil {
		switch {
		case ttm.Recovered:
			fmt.Printf("time-to-mitigation: detect %v + recover %v = %v (first attack %v, invoked %v, recovered %v)\n",
				ttm.DetectDelay, ttm.RecoveryDelay, ttm.Total,
				ttm.FirstAttackAt, ttm.InvokedAt, ttm.RecoveredAt)
		case ttm.Invoked:
			fmt.Printf("time-to-mitigation: detected after %v, drop rate never reached the recovery threshold\n", ttm.DetectDelay)
		default:
			fmt.Printf("time-to-mitigation: defense never invoked\n")
		}
	}

	if sc.dataset != "" {
		if strings.HasSuffix(sc.dataset, ".dfx2") {
			b, err := flowexport.MarshalLabeled(res.Scenario, res.Dataset)
			if err != nil {
				log.Fatalf("dataset export: %v (use .csv for runs beyond one datagram)", err)
			}
			if err := os.WriteFile(sc.dataset, b, 0o644); err != nil {
				log.Fatal(err)
			}
		} else {
			f, err := os.Create(sc.dataset)
			if err != nil {
				log.Fatal(err)
			}
			if err := flowexport.WriteLabeledCSV(f, res.Dataset); err != nil {
				f.Close()
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("wrote labeled dataset: %s (%d flow records)\n", sc.dataset, len(res.Dataset))
	}
}

// runRestored boots one or more scenario cells from a world snapshot:
// decode the image once, then per cell restore a fresh world, re-drive
// the crash-recovery journal replay, and run the attack phase with a
// per-cell attack seed. Restore + replay is seconds where the cold
// path (generate, converge, deploy) is tens of seconds at paper scale.
func runRestored(path string, workers, sweep int, sc runOpts) {
	start := time.Now()
	img, err := snapshot.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read world snapshot: %s (%.2fs)\n", path, time.Since(start).Seconds())

	cells := sweep
	if cells < 1 {
		cells = 1
	}
	for cell := 0; cell < cells; cell++ {
		start := time.Now()
		world, err := snapshot.Restore(img, snapshot.Options{Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		if world.Sys == nil {
			log.Fatal("image has no deployed system; write one with -snapshot")
		}
		if err := world.Sys.RestartAll(); err != nil {
			log.Fatal(err)
		}
		if err := world.Sys.Settle(); err != nil {
			log.Fatal(err)
		}
		deployers := world.Sys.Deployed()
		cellSc := sc
		cellSc.seed += int64(cell)
		cellSc.seedOffset = int64(cell)
		if cells > 1 {
			fmt.Printf("\n=== cell %d/%d (attack seed %d) ===\n", cell+1, cells, cellSc.seed)
		}
		fmt.Printf("restored %d ASes, %d DAS; recovery settled in %.2fs\n",
			world.Net.Topo.NumASes(), len(deployers), time.Since(start).Seconds())

		runAttack(world.Sys, world.Eng, deployers, cellSc)
		world.Eng.Close()
		fmt.Printf("cell wall time %.2fs\n", time.Since(start).Seconds())
	}
}
