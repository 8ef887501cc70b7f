// Differential tests for the parallel engine: the same scenario run
// at -workers 1 and -workers 4 must produce byte-identical final obs
// snapshots and the same event ordering. The mid-size fault-injected
// variant always runs (so `make check` exercises it under -race); the
// paper-scale variants — workers 1 vs 4, and checkpoint→restore vs
// straight-through — are gated behind DISCS_PAPER_DIFF because each
// runs the 44 036-AS scenario at least twice.
package discs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"discs/internal/attack"
	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/netsim"
	"discs/internal/obs"
	"discs/internal/snapshot"
	"discs/internal/topology"
)

// newSystem wires DISCS into net with the default protocol config.
func newSystem(tb testing.TB, net *bgp.Network) *core.System {
	tb.Helper()
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: core.DefaultConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// stripEngineMetrics drops the parsim.* namespace: stall and worker
// attribution are wall-clock and scheduling dependent by design (see
// DESIGN.md §11); everything else must match exactly.
func stripEngineMetrics(snap obs.Snapshot) (map[string]uint64, map[string]int64) {
	counters := make(map[string]uint64, len(snap.Counters))
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "parsim.") {
			continue
		}
		counters[name] = v
	}
	gauges := make(map[string]int64, len(snap.Gauges))
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "parsim.") {
			continue
		}
		gauges[name] = v
	}
	return counters, gauges
}

// sortTrace puts trace events into the canonical order used for
// comparison. Lanes publish into the shared ring as they run, so the
// raw ring order is scheduling-dependent; the canonical sort is not.
func sortTrace(evs []obs.Event) []obs.Event {
	out := append([]obs.Event(nil), evs...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.AS != b.AS {
			return a.AS < b.AS
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.Serial < b.Serial
	})
	return out
}

// runMidScenario executes a fault-injected mid-size DISCS scenario —
// BGP convergence, 6 DAS deployments over lossy/jittery controller
// links, heartbeats, an attack burst, invocation — under the parallel
// engine with the given worker count.
func runMidScenario(t *testing.T, workers int) (map[string]uint64, map[string]int64, []obs.Event) {
	t.Helper()
	topo, err := topology.GenerateInternet(topology.GenConfig{
		NumASes: 120, NumPrefixes: 360, ZipfExponent: 1.0, Seed: 3, TierOneCount: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.AssignShards(netsim.DefaultShards)
	eng, err := net.Sim.Relane(netsim.Options{Shards: netsim.DefaultShards, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	net.Sim.Registry().SetTraceCapacity(1 << 15)
	net.Sim.SeedFaults(7)
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}

	// Controller links (created from Deploy onward) are faulted: the
	// control plane must converge despite loss, duplication and jitter,
	// identically at every worker count.
	net.Sim.SetDefaultLinkFaults(netsim.LinkFaults{
		Loss: 0.05, Dup: 0.05, JitterMax: 500 * time.Microsecond,
	})
	sys := newSystem(t, net)
	deployers := topo.BySizeDesc()[:6]
	for i, asn := range deployers {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		t.Fatal(err)
	}
	// Heartbeats tick on background events: advance past a few
	// intervals so liveness traffic crosses the faulted links too.
	net.Sim.Run(net.Sim.Now() + 3*core.DefaultConfig().HeartbeatInterval)

	victim := deployers[len(deployers)-1]
	sampler := attack.NewSampler(topo)
	rng := rand.New(rand.NewSource(5))
	flows := make([]attack.Flow, 40)
	for i := range flows {
		flows[i] = sampler.DrawFlowForVictim(attack.DDDoS, victim, rng)
	}
	if _, err := attack.RunPaced(sys, flows, 5, 5, 2, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	vc := sys.Controllers[victim]
	if _, err := vc.Invoke(core.Invocation{
		Prefixes: vc.OwnPrefixes(), Function: core.DP, Duration: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, err := attack.RunPaced(sys, flows, 5, 6, 2, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	counters, gauges := stripEngineMetrics(sys.Stats())
	return counters, gauges, sortTrace(sys.Registry().Tracer().Events())
}

func diffSnapshots(t *testing.T, label string,
	c1, c4 map[string]uint64, g1, g4 map[string]int64, e1, e4 []obs.Event) {
	t.Helper()
	if len(c1) != len(c4) {
		t.Fatalf("%s: counter sets differ: %d vs %d", label, len(c1), len(c4))
	}
	for name, v := range c1 {
		if c4[name] != v {
			t.Errorf("%s: counter %s: %d vs %d", label, name, v, c4[name])
		}
	}
	for name, v := range g1 {
		if g4[name] != v {
			t.Errorf("%s: gauge %s: %d vs %d", label, name, v, g4[name])
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if len(e1) != len(e4) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(e1), len(e4))
	}
	for i := range e1 {
		if e1[i] != e4[i] {
			t.Fatalf("%s: trace diverges at %d: %+v vs %+v", label, i, e1[i], e4[i])
		}
	}
}

// TestSystemDifferentialWorkers: the fault-injected mid-size scenario
// is bit-identical between 1 and 4 workers — final counters, gauges,
// and the full control/data-plane event trace.
func TestSystemDifferentialWorkers(t *testing.T) {
	c1, g1, e1 := runMidScenario(t, 1)
	c4, g4, e4 := runMidScenario(t, 4)
	if len(e1) == 0 {
		t.Fatal("no trace events recorded")
	}
	if c1["netsim.delivered"] == 0 {
		t.Fatal("scenario delivered nothing")
	}
	diffSnapshots(t, "mid-size", c1, c4, g1, g4, e1, e4)
}

// The paper-scale scenario of `discs-sim -paper`: 10 DAS, a paced
// d-DDoS campaign, invocation, a second campaign.
const (
	paperDAS     = 10
	paperFlows   = 200
	paperPerFlow = 10
	paperWaves   = 8
)

// skipUnlessPaperDiff gates the paper-scale differentials: each runs
// the 44 036-AS scenario at least twice.
func skipUnlessPaperDiff(t *testing.T) {
	t.Helper()
	if os.Getenv("DISCS_PAPER_DIFF") == "" {
		t.Skip("set DISCS_PAPER_DIFF=1 (make diff-paper) to run the paper-scale differentials")
	}
}

// paperConverged generates the 44 036-AS Internet, builds it under the
// parallel engine with the given worker count, and converges one
// prefix per DAS. With faults, every link jitters during convergence,
// so the fault RNG streams sit at nonzero positions when a checkpoint
// is cut. The caller closes the engine.
func paperConverged(t *testing.T, workers int, faults bool) (*bgp.Network, *netsim.Engine, []topology.ASN) {
	t.Helper()
	topo, err := topology.GenerateInternet(topology.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.AssignShards(netsim.DefaultShards)
	eng, err := net.Sim.Relane(netsim.Options{Shards: netsim.DefaultShards, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if faults {
		net.Sim.SeedFaults(7)
		for _, l := range net.Sim.Links() {
			l.SetFaults(netsim.LinkFaults{JitterMax: 100 * time.Microsecond})
		}
	}
	deployers := topo.BySizeDesc()[:paperDAS]
	net.OriginateFirst(deployers...)
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	return net, eng, deployers
}

// paperCampaign deploys DISCS on the converged paper-scale network —
// over lossy controller links when faults is set — warms the DAS
// routing trees, and runs the paced campaign with the victim's DP
// invocation between its two halves. It returns the stripped final
// counters and gauges.
func paperCampaign(t *testing.T, net *bgp.Network, deployers []topology.ASN, faults bool) (map[string]uint64, map[string]int64) {
	t.Helper()
	if faults {
		net.Sim.SetDefaultLinkFaults(netsim.LinkFaults{
			Loss: 0.05, Dup: 0.05, JitterMax: 500 * time.Microsecond,
		})
	}
	sys := newSystem(t, net)
	for i, asn := range deployers {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		t.Fatal(err)
	}
	net.Topo.WarmRoutes(deployers, 0)

	seed := topology.DefaultGenConfig().Seed
	victim := deployers[len(deployers)-1]
	sampler := attack.NewSampler(net.Topo)
	rng := rand.New(rand.NewSource(seed))
	flows := make([]attack.Flow, paperFlows)
	for i := range flows {
		flows[i] = sampler.DrawFlowForVictim(attack.DDDoS, victim, rng)
	}
	if _, err := attack.RunPaced(sys, flows, paperPerFlow, seed, paperWaves, time.Second); err != nil {
		t.Fatal(err)
	}
	vc := sys.Controllers[victim]
	if _, err := vc.Invoke(core.Invocation{
		Prefixes: vc.OwnPrefixes(), Function: core.DP, Duration: 24 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, err := attack.RunPaced(sys, flows, paperPerFlow, seed+1, paperWaves, time.Second); err != nil {
		t.Fatal(err)
	}
	return stripEngineMetrics(sys.Stats())
}

// TestPaperDifferential runs the full 44 036-AS paper scenario at
// -workers 1 and -workers 4 and requires byte-identical final
// snapshots.
func TestPaperDifferential(t *testing.T) {
	skipUnlessPaperDiff(t)
	run := func(workers int) (map[string]uint64, map[string]int64) {
		net, eng, deployers := paperConverged(t, workers, false)
		defer eng.Close()
		return paperCampaign(t, net, deployers, false)
	}
	c1, g1 := run(1)
	c4, g4 := run(4)
	diffSnapshots(t, "paper", c1, c4, g1, g4, nil, nil)
}

// TestPaperSnapshotDifferential checkpoints the fault-injected paper
// scenario at convergence and continues it straight through; the image
// restored into a fresh world must then run the same continuation to
// identical final counters and gauges, at 1 and 4 workers.
func TestPaperSnapshotDifferential(t *testing.T) {
	skipUnlessPaperDiff(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			net, eng, deployers := paperConverged(t, workers, true)
			var img bytes.Buffer
			if err := snapshot.Write(&img, &snapshot.World{Net: net, Eng: eng}); err != nil {
				t.Fatal(err)
			}
			c1, g1 := paperCampaign(t, net, deployers, true)
			eng.Close()

			decoded, err := snapshot.Read(&img)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := snapshot.Restore(decoded, snapshot.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if restored.Eng != nil {
				defer restored.Eng.Close()
			}
			c2, g2 := paperCampaign(t, restored.Net, deployers, true)
			diffSnapshots(t, fmt.Sprintf("paper-snapshot/w%d", workers), c1, c2, g1, g2, nil, nil)
		})
	}
}
