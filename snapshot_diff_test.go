// Differential tests for checkpoint/restore: a scenario that is
// snapshotted at convergence, restored, and run to the end must be
// bit-identical to the same scenario run straight through — final
// counters, gauges and the full control-plane event trace — at every
// worker count. This is the recovery analogue of the parallel-engine
// differential in diff_test.go and reuses its oracle machinery
// (stripEngineMetrics, sortTrace, diffSnapshots).
package discs_test

import (
	"bytes"
	"fmt"
	"math/rand"
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

// snapConverged builds the prologue shared by the snapshot
// differentials: a mid-size internet converged under the parallel
// engine with jitter on every network link. The jitter keeps the
// fault RNG streams hot during convergence, so a checkpoint captures
// them at nonzero positions — restore must resume each stream
// mid-flight, not from its seed.
func snapConverged(t testing.TB, workers int) (*bgp.Network, *netsim.Engine) {
	t.Helper()
	topo, err := topology.GenerateInternet(topology.GenConfig{
		NumASes: 100, NumPrefixes: 300, ZipfExponent: 1.0, Seed: 11, TierOneCount: 4,
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
	t.Cleanup(func() { eng.Close() })

	net.Sim.Registry().SetTraceCapacity(1 << 15)
	net.Sim.SeedFaults(7)
	for _, l := range net.Sim.Links() {
		l.SetFaults(netsim.LinkFaults{JitterMax: 200 * time.Microsecond})
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	return net, eng
}

// snapEpilogue runs the post-checkpoint half of the scenario on net —
// lossy controller links, 6 DAS deployments, heartbeats, an attack
// burst, invocation, a second burst — and returns the stripped final
// counters, gauges and canonical trace.
func snapEpilogue(t testing.TB, net *bgp.Network) (map[string]uint64, map[string]int64, []obs.Event) {
	t.Helper()
	net.Sim.SetDefaultLinkFaults(netsim.LinkFaults{
		Loss: 0.05, Dup: 0.05, JitterMax: 500 * time.Microsecond,
	})
	sys := newSystem(t, net)
	deployers := net.Topo.BySizeDesc()[:6]
	for i, asn := range deployers {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		t.Fatal(err)
	}
	net.Sim.Run(net.Sim.Now() + 3*core.DefaultConfig().HeartbeatInterval)

	victim := deployers[len(deployers)-1]
	sampler := attack.NewSampler(net.Topo)
	rng := rand.New(rand.NewSource(5))
	flows := make([]attack.Flow, 30)
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

// restoreFrom snapshots world into memory, decodes and restores it.
func restoreFrom(t testing.TB, world *snapshot.World, workers int) *bgp.Network {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, world); err != nil {
		t.Fatal(err)
	}
	img, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := snapshot.Restore(img, snapshot.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Eng != nil {
		t.Cleanup(func() { restored.Eng.Close() })
	}
	restored.Net.Sim.Registry().SetTraceCapacity(1 << 15)
	return restored.Net
}

// TestSnapshotDifferentialWorkers: checkpoint at convergence, restore,
// run to the end — bit-identical to the straight-through run, at 1 and
// 4 workers. The straight-through run continues on the very world that
// was checkpointed, so this also proves Write is non-mutating.
func TestSnapshotDifferentialWorkers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			net, eng := snapConverged(t, workers)
			var buf bytes.Buffer
			if err := snapshot.Write(&buf, &snapshot.World{Net: net, Eng: eng}); err != nil {
				t.Fatal(err)
			}
			c1, g1, e1 := snapEpilogue(t, net)

			img, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			restored, err := snapshot.Restore(img, snapshot.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if restored.Eng != nil {
				defer restored.Eng.Close()
			}
			restored.Net.Sim.Registry().SetTraceCapacity(1 << 15)
			c2, g2, e2 := snapEpilogue(t, restored.Net)

			if len(e1) == 0 {
				t.Fatal("no trace events recorded")
			}
			if c1["netsim.delivered"] == 0 {
				t.Fatal("scenario delivered nothing")
			}
			diffSnapshots(t, fmt.Sprintf("snapshot/w%d", workers), c1, c2, g1, g2, e1, e2)
		})
	}
}

// TestSnapshotCrashRestartRegression: on a restored system, the
// Crash → Restart journal-replay path must behave exactly as it does
// on a system that never went through an image — same counters, same
// gauges, same recovery event trace (resumed handshakes, campaign
// resync, second invocation).
func TestSnapshotCrashRestartRegression(t *testing.T) {
	const workers = 2
	run := func(t *testing.T, viaImage bool) (map[string]uint64, map[string]int64, []obs.Event) {
		net, eng := snapConverged(t, workers)
		if viaImage {
			net = restoreFrom(t, &snapshot.World{Net: net, Eng: eng}, workers)
		}
		sys := newSystem(t, net)
		deployers := net.Topo.BySizeDesc()[:4]
		for i, asn := range deployers {
			if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Settle(); err != nil {
			t.Fatal(err)
		}
		victim := deployers[len(deployers)-1]
		vc := sys.Controllers[victim]
		if _, err := vc.Invoke(core.Invocation{
			Prefixes: vc.OwnPrefixes(), Function: core.DP, Duration: time.Hour,
		}); err != nil {
			t.Fatal(err)
		}
		if err := sys.Settle(); err != nil {
			t.Fatal(err)
		}

		// Crash the victim, let its peers miss heartbeats, restart:
		// the journal replay must resume sessions and re-sync the
		// campaign identically whether or not the system came from an
		// image.
		if err := sys.Crash(victim); err != nil {
			t.Fatal(err)
		}
		net.Sim.Run(net.Sim.Now() + 3*core.DefaultConfig().HeartbeatInterval)
		if err := sys.Restart(victim); err != nil {
			t.Fatal(err)
		}
		if err := sys.Settle(); err != nil {
			t.Fatal(err)
		}
		if _, err := vc.Invoke(core.Invocation{
			Prefixes: vc.OwnPrefixes(), Function: core.CDP, Duration: time.Hour,
		}); err != nil {
			t.Fatal(err)
		}
		if err := sys.Settle(); err != nil {
			t.Fatal(err)
		}
		counters, gauges := stripEngineMetrics(sys.Stats())
		return counters, gauges, sortTrace(sys.Registry().Tracer().Events())
	}

	c1, g1, e1 := run(t, false)
	c2, g2, e2 := run(t, true)
	if len(e1) == 0 {
		t.Fatal("no trace events recorded")
	}
	diffSnapshots(t, "crash-restart", c1, c2, g1, g2, e1, e2)
}
