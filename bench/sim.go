package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"discs/internal/attack"
	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/netsim"
	"discs/internal/obs"
	"discs/internal/parsim"
	"discs/internal/scenario"
	"discs/internal/snapshot"
	"discs/internal/topology"
)

// The simulator workloads time a researcher's run phase by phase. Host
// time is what is measured; simulated time appears only where a metric
// says so (scenario.ttm_sim_ms). The topology is the program's own
// model at a fixed scale and stays the same for every seed, so that the
// amount of work is the same in every run; the seed drives what the
// harness generates: the campaign and the flows.

const simWorkers = 2

// simWorld is a generated Internet with its BGP network and engine.
type simWorld struct {
	topo *topology.Topology
	net  *bgp.Network
	eng  *parsim.Engine

	generateS, buildS, engineS float64
}

func (w *simWorld) close() { w.eng.Close() }

// newSimWorld is the set-up every simulator round starts with:
// generate, build the BGP network, install the parallel engine.
func newSimWorld(gen topology.GenConfig) (*simWorld, error) {
	w := &simWorld{}
	var err error
	start := time.Now()
	if w.topo, err = topology.GenerateInternet(gen); err != nil {
		return nil, err
	}
	w.generateS = time.Since(start).Seconds()
	start = time.Now()
	if w.net, err = bgp.BuildNetwork(w.topo, time.Millisecond); err != nil {
		return nil, err
	}
	w.buildS = time.Since(start).Seconds()
	start = time.Now()
	w.net.AssignShards(parsim.DefaultShards)
	w.eng, err = parsim.New(w.net.Sim, parsim.Options{Shards: parsim.DefaultShards, Workers: simWorkers})
	if err != nil {
		return nil, err
	}
	w.engineS = time.Since(start).Seconds()
	return w, nil
}

// deploy deploys DISCS on the given ASes and settles the control plane.
// Controller i gets seed i+1, as everywhere else in the repository, for
// every benchmark seed: the controller seeds set the peering delays and
// with them the whole control-plane event sequence, so fixing them makes
// the control plane's work and its exact counts the same in every run.
func deploy(net *bgp.Network, deployers []topology.ASN, tk *track, spCalls, spSettle int) (sys *core.System, callsS, settleS float64, err error) {
	sys, err = core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: core.DefaultConfig()})
	if err != nil {
		return nil, 0, 0, err
	}
	callsS = timed(tk, spCalls, func() {
		for i, asn := range deployers {
			if _, err = sys.Deploy(asn, int64(i+1)); err != nil {
				return
			}
		}
	}).Seconds()
	if err != nil {
		return nil, 0, 0, err
	}
	settleS = timed(tk, spSettle, func() { err = sys.Settle() }).Seconds()
	return sys, callsS, settleS, err
}

// fullMesh checks that every deployer peers with every other.
func fullMesh(sys *core.System, deployers []topology.ASN) (peerings int, ok bool) {
	ok = true
	for _, asn := range deployers {
		n := len(sys.Controllers[asn].Peers())
		peerings += n
		if n != len(deployers)-1 {
			ok = false
		}
	}
	return peerings / 2, ok
}

// putEngine writes the parsim and control-plane ledgers from a world's
// registry snapshot; engineS is the host time the engine was driven for.
func putEngine(res *result, snap obs.Snapshot, engineS, deployS float64) {
	events := snap.Get(netsim.MetricEvents)
	res.put("parsim.epochs", float64(snap.Get(parsim.MetricEpochs)))
	res.put("parsim.events", float64(events))
	res.put("parsim.stall_s", time.Duration(snap.Get(parsim.MetricStallNS)).Seconds())
	res.put("parsim.events_per_s", float64(events)/engineS)
	var sum, max float64
	for w := 0; w < simWorkers; w++ {
		v := float64(snap.Get(parsim.MetricWorkerEvents(w)))
		sum += v
		if v > max {
			max = v
		}
	}
	if sum > 0 {
		res.put("parsim.worker_imbalance", max/(sum/simWorkers))
	}
	msgs := snap.Sum(core.MetricCtrlMsgsSent)
	res.put("core.ctrl_msgs", float64(msgs))
	res.put("core.ctrl_retries", float64(snap.Sum(core.MetricCtrlRetries)))
	res.put("securechan.bytes_sealed", float64(snap.Sum(core.MetricCtrlBytesSealed)))
	if msgs > 0 {
		res.put("core.ctrl_us_per_msg", deployS*1e6/float64(msgs))
	}
}

// spareSetups sets a simulator world up and throws it away, so that with
// the one each round keeps setup_s is a median of setupRepeats.
func spareSetups(cfg runConfig, setup func() (*simWorld, error)) (setupS []float64, err error) {
	for i := 0; i < cfg.scaled(setupRepeats, 1)-1; i++ {
		start := time.Now()
		w, err := setup()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		w.close()
	}
	return setupS, nil
}

// medianOf is the median over rounds of one of their figures.
func medianOf[R any](rounds []R, f func(R) float64) float64 {
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		vals[i] = f(r)
	}
	return median(vals)
}

// simSpans are the interned names of the phase spans; every phase of a
// simulator round is a root span, so the spans sum to the round.
type simSpans struct {
	generate, build, engine, converge, deployCalls, settle, warm int
	checkpoint, read, restore, invoke, flows                     int
	phase                                                        [5]int // the campaign's phases
}

func newSimSpans(tr *tracer) simSpans {
	sp := simSpans{
		generate: tr.name("topology.generate"), build: tr.name("bgp.build"), engine: tr.name("parsim.new"),
		converge: tr.name("bgp.converge"), deployCalls: tr.name("core.deploy_calls"), settle: tr.name("core.settle"),
		warm: tr.name("topology.warm"), checkpoint: tr.name("snapshot.write"),
		read: tr.name("snapshot.read"), restore: tr.name("snapshot.restore"),
		invoke: tr.name("core.invoke"), flows: tr.name("core.send_flows"),
	}
	for i, n := range campaignPhases {
		sp.phase[i] = tr.name("scenario.phase." + n)
	}
	return sp
}

// recordWorld enters a world's set-up phases in the ledger after the
// fact (they were timed inside newSimWorld).
func (sp simSpans) recordWorld(tk *track, w *simWorld, end time.Time) {
	e := end.Add(-seconds(w.engineS))
	b := e.Add(-seconds(w.buildS))
	g := b.Add(-seconds(w.generateS))
	tk.record(sp.generate, g, b)
	tk.record(sp.build, b, e)
	tk.record(sp.engine, e, end)
}

// --- sim-paper -------------------------------------------------------------

const paperDAS = 10

// campaignPhases are the campaign's phases in order: an onset pulse
// train, the victim's invocation, an adaptive attacker rotating its
// spoofed sources away from deployed ASes, a sustained train, and
// legitimate traffic from every peer (whose drops are false positives).
var campaignPhases = [5]string{"onset", "invoke", "rotate", "sustain", "legit"}

// Campaign size: pulse-wave trains of a d-DDoS vector, sized so the
// engine runs a few seconds at paper scale on two cores.
const (
	campaignFlows   = 1300
	campaignPerFlow = 12
	campaignPulses  = 6
	campaignGap     = 250 * time.Millisecond
	campaignLegit   = 200 // packets per legitimate peer
)

func campaignSpec(cfg runConfig) (*scenario.Spec, error) {
	flows := cfg.scaled(campaignFlows, 20)
	return scenario.New("bench-paper", cfg.seed).
		Pulse(campaignPhases[0], flows, campaignPerFlow, campaignPulses, campaignGap).
		Invoke(campaignPhases[1]).
		Adaptive(campaignPhases[2], scenario.StrategyRotate, flows, campaignPerFlow, campaignPulses, campaignGap).
		Pulse(campaignPhases[3], flows, campaignPerFlow, campaignPulses, campaignGap).
		Legit(campaignPhases[4], cfg.scaled(campaignLegit, 4)).
		Build()
}

// campaignRun is one engine run and what the oracle needs from it.
type campaignRun struct {
	res     *scenario.Result
	runS    float64
	packets int64
	phaseS  [5]float64 // host seconds per phase; traced runs only
}

// runCampaign runs the campaign on sys. On a traced run a second
// goroutine watches the engine's phase counter and stamps the host
// time of each phase boundary: the engine exposes no hook, so the
// harness observes the boundary from outside, and enters the five
// phases in the ledger as the spans that tile the run.
func runCampaign(cfg runConfig, sys *core.System, tk *track, sp simSpans) (*campaignRun, error) {
	spec, err := campaignSpec(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := scenario.NewEngine(scenario.Options{Spec: spec, Sys: sys})
	if err != nil {
		return nil, err
	}
	run := &campaignRun{}
	phases := sys.Registry().Counter(scenario.MetricPhases)
	base := phases.Value()
	bounds := make([]time.Time, 0, len(campaignPhases)+1)
	stop, done := make(chan struct{}), make(chan struct{})
	if cfg.traced() {
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for phases.Value()-base >= uint64(len(bounds)) && len(bounds) <= len(campaignPhases) {
					bounds = append(bounds, time.Now())
				}
				nap(2 * time.Millisecond)
			}
		}()
	}
	start := time.Now()
	run.res, err = eng.Run()
	end := time.Now()
	run.runS = end.Sub(start).Seconds()
	if cfg.traced() {
		close(stop)
		<-done
		// A boundary the watcher had not seen yet when the run ended is
		// less than one of its naps old.
		for len(bounds) <= len(campaignPhases) {
			bounds = append(bounds, end)
		}
	}
	if err != nil {
		return nil, err
	}
	for _, ph := range run.res.Phases {
		run.packets += int64(ph.Sent)
	}
	if cfg.traced() {
		// bounds[0] was stamped at start-up; boundary i closes phase i-1.
		bounds[0] = start
		for i := 1; i < len(bounds); i++ {
			run.phaseS[i-1] = bounds[i].Sub(bounds[i-1]).Seconds()
			tk.record(sp.phase[i-1], bounds[i-1], bounds[i])
		}
	}
	return run, nil
}

// checkCampaign books the campaign's checked phases: the defence was
// invoked and mitigated the attack, the sustained train is dropped, and
// no legitimate packet is.
func checkCampaign(res *result, label string, run *campaignRun) {
	r := run.res
	res.check(r.TTM != nil && r.TTM.Invoked && r.TTM.Recovered, "%s: campaign never mitigated (ttm %+v)", label, r.TTM)
	if len(r.Phases) != len(campaignPhases) {
		res.check(false, "%s: %d phases ran, want %d", label, len(r.Phases), len(campaignPhases))
		return
	}
	sustain, legit := r.Phases[3], r.Phases[4]
	res.check(sustain.DropRate >= 0.5, "%s: sustained train drop rate %.3f after invocation", label, sustain.DropRate)
	res.check(legit.Sent > 0 && legit.FalsePositives == 0, "%s: %d of %d legitimate packets dropped", label, legit.FalsePositives, legit.Sent)
}

// paperRound is what one sim-paper round measured.
type paperRound struct {
	total, converge, deployCalls, settle, warm, checkpoint, read, restore float64
	generate, build, setup                                                float64
	fresh, restored                                                       *campaignRun
	imageMB                                                               float64
	snap                                                                  obs.Snapshot // the straight world's registry after its campaign
}

// runPaperRound runs generate -> build -> converge -> deploy -> warm ->
// campaign -> checkpoint -> restore -> the same campaign on the restored
// world, booking each checked phase in res. A failed check that leaves
// nothing to continue with ends the round early with ok false.
func runPaperRound(cfg runConfig, gen topology.GenConfig, image string, res *result, tk *track, sp simSpans) (rt paperRound, ok bool, err error) {
	roundStart := time.Now()
	w, err := newSimWorld(gen)
	if err != nil {
		return rt, false, err
	}
	defer w.close()
	rt.setup = time.Since(roundStart).Seconds()
	sp.recordWorld(tk, w, time.Now())
	rt.generate, rt.build = w.generateS, w.buildS

	deployers := w.topo.BySizeDesc()[:paperDAS]
	rt.converge = timed(tk, sp.converge, func() {
		w.net.OriginateFirst(deployers...)
		err = w.net.Converge()
	}).Seconds()
	res.check(err == nil, "converge: %v", err)
	if err != nil {
		return rt, false, nil
	}

	sys, callsS, settleS, err := deploy(w.net, deployers, tk, sp.deployCalls, sp.settle)
	if err != nil {
		return rt, false, err
	}
	rt.deployCalls, rt.settle = callsS, settleS
	_, mesh := fullMesh(sys, deployers)
	res.check(mesh, "deploy: the %d DAS did not form a full mesh", paperDAS)
	rt.warm = timed(tk, sp.warm, func() { w.topo.WarmRoutes(deployers, 0) }).Seconds()

	if rt.fresh, err = runCampaign(cfg, sys, tk, sp); err != nil {
		return rt, false, err
	}
	checkCampaign(res, "campaign", rt.fresh)
	rt.snap = sys.Stats()

	rt.checkpoint = timed(tk, sp.checkpoint, func() {
		err = snapshot.WriteFile(image, &snapshot.World{Net: w.net, Eng: w.eng, Sys: sys})
	}).Seconds()
	st, statErr := os.Stat(image)
	res.check(err == nil && statErr == nil && st.Size() > 0, "checkpoint: %v %v", err, statErr)
	if err != nil || statErr != nil {
		return rt, false, nil
	}
	rt.imageMB = float64(st.Size()) / 1e6

	var img *snapshot.Image
	rt.read = timed(tk, sp.read, func() { img, err = snapshot.ReadFile(image) }).Seconds()
	var restored *snapshot.World
	if err == nil {
		rt.restore = timed(tk, sp.restore, func() {
			if restored, err = snapshot.Restore(img, snapshot.Options{Workers: simWorkers}); err != nil {
				return
			}
			if err = restored.Sys.RestartAll(); err != nil {
				return
			}
			err = restored.Sys.Settle()
		}).Seconds()
	}
	if restored != nil && restored.Eng != nil {
		defer restored.Eng.Close()
	}
	res.check(err == nil, "restore: %v", err)
	if err != nil {
		return rt, false, nil
	}
	if rt.restored, err = runCampaign(cfg, restored.Sys, tk, sp); err != nil {
		return rt, false, err
	}
	res.check(reflect.DeepEqual(offered(rt.fresh.res), offered(rt.restored.res)),
		"the restored world was offered different traffic from the world it was cut from")
	checkCampaign(res, "restored campaign", rt.restored)
	rt.total = time.Since(roundStart).Seconds()
	return rt, true, nil
}

func runSimPaper(cfg runConfig) (*result, error) {
	res := newResult()
	gen := topology.DefaultGenConfig()
	if cfg.scale > 1 {
		gen = topology.GenConfig{NumASes: 300, NumPrefixes: 900, ZipfExponent: 1.0, Seed: gen.Seed, TierOneCount: 6}
	}
	tk := cfg.tracer.newTrack()
	sp := newSimSpans(cfg.tracer)
	tmp, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	setupS, err := spareSetups(cfg, func() (*simWorld, error) { return newSimWorld(gen) })
	if err != nil {
		return nil, err
	}

	var rounds []paperRound
	var roundS []float64
	var cpuTotal time.Duration
	meter := startProcMeter()
	for begin := time.Now(); cfg.anotherRound(begin, roundS); {
		cpu0 := cpuTime()
		rt, ok, err := runPaperRound(cfg, gen, filepath.Join(tmp, "world.snap"), res, tk, sp)
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
		cpuTotal += cpuTime() - cpu0
		rounds = append(rounds, rt)
		roundS = append(roundS, rt.total)
		setupS = append(setupS, rt.setup)
		cfg.logf("  round %d: %.2f s = set-up %.2f + converge %.2f + deploy %.2f + campaign %.2f + checkpoint %.2f + restore %.2f + campaign %.2f",
			len(rounds), rt.total, rt.setup, rt.converge, rt.deployCalls+rt.settle, rt.fresh.runS, rt.checkpoint, rt.read+rt.restore, rt.restored.runS)
	}
	meter.putProc(res)

	col := func(f func(paperRound) float64) float64 { return medianOf(rounds, f) }
	first := rounds[0]
	packets := first.fresh.packets + first.restored.packets
	// scenario_kpps is the fresh world's campaign, the researcher's
	// figure; pkt_mpps is the rate over both campaigns of a round, twice
	// the work and so the steadier number to gate on.
	res.put("setup_s", median(setupS))
	res.put("total_s", median(roundS))
	res.put("pkt_mpps", col(func(r paperRound) float64 {
		return float64(r.fresh.packets+r.restored.packets) / (r.fresh.runS + r.restored.runS) / 1e6
	}))
	res.put("cpu_us_per_pkt", cpuTotal.Seconds()*1e6/float64(packets*int64(len(rounds))))
	res.put("converge_s", col(func(r paperRound) float64 { return r.converge }))
	res.put("deploy_s", col(func(r paperRound) float64 { return r.deployCalls + r.settle }))
	res.put("scenario_kpps", col(func(r paperRound) float64 { return float64(r.fresh.packets) / r.fresh.runS / 1e3 }))
	res.put("checkpoint_s", col(func(r paperRound) float64 { return r.checkpoint }))
	res.put("restore_s", col(func(r paperRound) float64 { return r.read + r.restore }))
	res.put("topology.generate_s", col(func(r paperRound) float64 { return r.generate }))
	res.put("bgp.build_s", col(func(r paperRound) float64 { return r.build }))
	res.put("topology.warm_s", col(func(r paperRound) float64 { return r.warm }))
	res.put("core.deploy_calls_s", col(func(r paperRound) float64 { return r.deployCalls }))
	res.put("core.settle_s", col(func(r paperRound) float64 { return r.settle }))
	res.put("scenario.run_s", col(func(r paperRound) float64 { return r.fresh.runS }))
	res.put("scenario.packets", float64(first.fresh.packets))
	if ttm := first.fresh.res.TTM; ttm != nil {
		res.put("scenario.ttm_sim_ms", float64(ttm.Total)/1e6)
	}
	res.put("snapshot.write_s", col(func(r paperRound) float64 { return r.checkpoint }))
	res.put("snapshot.read_s", col(func(r paperRound) float64 { return r.read }))
	res.put("snapshot.restore_s", col(func(r paperRound) float64 { return r.restore }))
	res.put("snapshot.image_mb", first.imageMB)
	putEngine(res, first.snap, first.converge+first.settle+first.fresh.runS, first.deployCalls+first.settle)
	cfg.logf("  %d round(s): %d ASes, %d DAS, %d workers; campaign of %d packets on the fresh and on the restored world; image %.1f MB",
		len(rounds), gen.NumASes, paperDAS, simWorkers, first.fresh.packets, first.imageMB)

	if cfg.traced() {
		res.put("scenario.onset_s", first.fresh.phaseS[0])
		res.put("scenario.invoke_s", first.fresh.phaseS[1])
		res.put("scenario.rotate_s", first.fresh.phaseS[2])
		res.put("scenario.sustain_s", first.fresh.phaseS[3])
		res.put("trace.overhead_ratio", cfg.tracer.estimatedOverhead(seconds(first.total)))
	}
	return res, nil
}

// A restored deployed system comes back through the crash-recovery
// path: every controller restarts, replays its journal and re-syncs its
// campaigns, which re-opens their tolerance intervals. Packet fates on
// the restored world therefore need not equal those on a world that was
// never imaged (more is erased, less dropped, while an interval is
// open), and the simulated clock differs. What the restore oracle holds
// the restored world to: the same spec with the same seed offers it
// exactly the traffic it offered the world the image was cut from (same
// flows, same rotations: the deployed set and every prefix survived),
// it mitigates, and it drops no legitimate packet.

// phaseOffer is what a campaign phase put on the network.
type phaseOffer struct {
	Name                          string
	Sent, Rotations, InvokedPeers int
}

func offered(r *scenario.Result) []phaseOffer {
	out := make([]phaseOffer, len(r.Phases))
	for i, p := range r.Phases {
		out[i] = phaseOffer{p.Name, p.Sent, p.Rotations, p.InvokedPeers}
	}
	return out
}

// --- sim-ctrl-mesh ---------------------------------------------------------

const (
	meshASes     = 300
	meshDAS      = 180
	meshPerPeer  = 6000 // legitimate packets each peer sends after the invocation
	meshTopoSeed = 1
)

func runSimCtrlMesh(cfg runConfig) (*result, error) {
	res := newResult()
	gen := topology.GenConfig{NumASes: meshASes, NumPrefixes: meshASes, ZipfExponent: 1.0, Seed: meshTopoSeed, TierOneCount: 6}
	das := cfg.scaled(meshDAS, 6)
	perPeer := cfg.scaled(meshPerPeer, 10)
	tk := cfg.tracer.newTrack()
	sp := newSimSpans(cfg.tracer)

	// Set-up here runs through BGP convergence: this workload is about
	// the controller mesh, and a converged network is where it starts.
	setup := func(tk *track) (*simWorld, error) {
		w, err := newSimWorld(gen)
		if err != nil {
			return nil, err
		}
		sp.recordWorld(tk, w, time.Now())
		timed(tk, sp.converge, func() {
			w.net.OriginateAll()
			err = w.net.Converge()
		})
		return w, err
	}

	type roundTimes struct {
		total, setup, deployCalls, settle, invoke, flows float64
		packets                                          int64
		snap                                             obs.Snapshot
	}
	// The spare set-ups are untraced, so that the ledger holds the
	// rounds only.
	setupS, err := spareSetups(cfg, func() (*simWorld, error) { return setup(nil) })
	if err != nil {
		return nil, err
	}

	var rounds []roundTimes
	var roundS []float64
	var cpuTotal time.Duration
	meter := startProcMeter()
	for begin := time.Now(); cfg.anotherRound(begin, roundS); {
		var rt roundTimes
		cpu0 := cpuTime()
		roundStart := time.Now()
		w, err := setup(tk)
		if err != nil {
			return nil, err
		}
		rt.setup = time.Since(roundStart).Seconds()
		setupS = append(setupS, rt.setup)
		deployers := w.topo.BySizeDesc()[:das]
		sys, callsS, settleS, err := deploy(w.net, deployers, tk, sp.deployCalls, sp.settle)
		if err != nil {
			w.close()
			return nil, err
		}
		rt.deployCalls, rt.settle = callsS, settleS
		peerings, mesh := fullMesh(sys, deployers)
		res.check(mesh && peerings == das*(das-1)/2, "deploy: %d peerings, want %d", peerings, das*(das-1)/2)

		// The smallest DAS invokes all four functions at every peer,
		// then the grace interval passes so verification is strict.
		victim := deployers[das-1]
		vc := sys.Controllers[victim]
		var accepted int
		rt.invoke = timed(tk, sp.invoke, func() {
			var invs []core.Invocation
			for _, fn := range []core.Function{core.DP, core.CDP, core.SP, core.CSP} {
				invs = append(invs, core.Invocation{Prefixes: vc.OwnPrefixes(), Function: fn, Duration: core.DefaultDuration})
			}
			if accepted, err = vc.Invoke(invs...); err != nil {
				return
			}
			if err = sys.Settle(); err != nil {
				return
			}
			sys.Net.Sim.After(core.DefaultGrace+time.Second, func() {})
			err = sys.Settle()
		}).Seconds()
		res.check(err == nil && accepted == das-1, "invoke: %d of %d peers accepted (%v)", accepted, das-1, err)

		// Legitimate flows from every peer: a drop is a false positive.
		r := rand.New(rand.NewSource(cfg.seed))
		var sent, dropped int64
		rt.flows = timed(tk, sp.flows, func() {
			for _, asn := range deployers[:das-1] {
				f := attack.Flow{Kind: attack.DDDoS, Agent: asn, Innocent: asn, Victim: victim}
				pkts, err := f.Packets(w.topo, perPeer, r)
				if err != nil {
					continue // an AS without IPv4 space cannot send
				}
				for _, p := range pkts {
					sent++
					if !sys.SendV4(asn, p).Delivered {
						dropped++
					}
				}
			}
		}).Seconds()
		res.check(sent > 0 && dropped == 0, "flows: %d of %d legitimate packets dropped", dropped, sent)
		rt.packets = sent
		rt.snap = sys.Stats()
		w.close()
		rt.total = time.Since(roundStart).Seconds()
		cpuTotal += cpuTime() - cpu0
		rounds = append(rounds, rt)
		roundS = append(roundS, rt.total)
		cfg.logf("  round %d: %.2f s = set-up %.2f + deploy %.2f + invoke %.2f + flows %.2f",
			len(rounds), rt.total, rt.setup, rt.deployCalls+rt.settle, rt.invoke, rt.flows)
	}
	meter.putProc(res)

	col := func(f func(roundTimes) float64) float64 { return medianOf(rounds, f) }
	first := rounds[0]
	deployS := col(func(r roundTimes) float64 { return r.deployCalls + r.settle })
	res.put("setup_s", median(setupS))
	res.put("total_s", median(roundS))
	res.put("pkt_mpps", col(func(r roundTimes) float64 { return float64(r.packets) / r.flows / 1e6 }))
	res.put("cpu_us_per_pkt", cpuTotal.Seconds()*1e6/float64(first.packets*int64(len(rounds))))
	res.put("deploy_s", deployS)
	res.put("core.deploy_calls_s", col(func(r roundTimes) float64 { return r.deployCalls }))
	res.put("core.settle_s", col(func(r roundTimes) float64 { return r.settle }))
	putEngine(res, first.snap, first.setup+first.settle+first.invoke, first.deployCalls+first.settle)
	cfg.logf("  %d rounds: %d ASes, %d DAS (%d peerings), %d control messages, %d legitimate packets",
		len(rounds), meshASes, das, das*(das-1)/2, first.snap.Sum(core.MetricCtrlMsgsSent), first.packets)
	if cfg.traced() {
		res.put("trace.overhead_ratio", cfg.tracer.estimatedOverhead(seconds(first.total*float64(len(rounds)))))
	}
	return res, nil
}
