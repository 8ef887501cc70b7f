// Differential tests for the scenario engine: a declarative campaign
// (pulse-wave onset, invocation, adaptive rotation, carpet-bombing,
// legit sanity traffic) must produce a bit-identical Result — phase
// outcomes, time-to-mitigation, and the labeled dataset — plus
// identical final counters and traces, at every worker count and when
// resumed from a checkpoint instead of run straight through. Reuses
// the oracle machinery from diff_test.go and the converged-world
// prologue from snapshot_diff_test.go.
package discs_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"discs/internal/bgp"
	"discs/internal/netsim"
	"discs/internal/obs"
	"discs/internal/scenario"
	"discs/internal/snapshot"
)

// diffSpec is the campaign both differentials run: it exercises every
// phase kind that touches the data plane, including the adaptive
// attacker whose decisions depend on observed verdicts — the hardest
// thing to keep deterministic across schedules.
func diffSpec(t testing.TB) *scenario.Spec {
	t.Helper()
	spec, err := scenario.New("diff", 42).
		Legit("baseline", 4).
		Pulse("onset", 30, 5, 2, 100*time.Millisecond).
		Invoke("defend").
		Adaptive("rotate", scenario.StrategyRotate, 30, 5, 2, 100*time.Millisecond).
		Carpet("carpet", 20, 4, 2, 100*time.Millisecond).
		Legit("sanity", 4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// scenarioEpilogue deploys DISCS over lossy controller links and runs
// diffSpec through the engine, returning the scenario Result alongside
// the stripped final counters, gauges and canonical trace.
func scenarioEpilogue(t testing.TB, net *bgp.Network) (*scenario.Result, map[string]uint64, map[string]int64, []obs.Event) {
	t.Helper()
	net.Sim.SetDefaultLinkFaults(netsim.LinkFaults{
		Loss: 0.05, Dup: 0.05, JitterMax: 500 * time.Microsecond,
	})
	sys := newSystem(t, net)
	for i, asn := range net.Topo.BySizeDesc()[:6] {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		t.Fatal(err)
	}

	eng, err := scenario.NewEngine(scenario.Options{Spec: diffSpec(t), Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	counters, gauges := stripEngineMetrics(sys.Stats())
	return res, counters, gauges, sortTrace(sys.Registry().Tracer().Events())
}

func diffScenarioResults(t *testing.T, label string, r1, r2 *scenario.Result) {
	t.Helper()
	if len(r1.Phases) == 0 || r1.TTM == nil || !r1.TTM.Invoked {
		t.Fatalf("%s: degenerate result: %+v", label, r1)
	}
	if !reflect.DeepEqual(r1.Phases, r2.Phases) {
		for i := range r1.Phases {
			if !reflect.DeepEqual(r1.Phases[i], r2.Phases[i]) {
				t.Fatalf("%s: phase %d diverges:\n%+v\nvs\n%+v", label, i, r1.Phases[i], r2.Phases[i])
			}
		}
	}
	if !reflect.DeepEqual(r1.TTM, r2.TTM) {
		t.Fatalf("%s: TTM diverges: %+v vs %+v", label, r1.TTM, r2.TTM)
	}
	if !reflect.DeepEqual(r1.Dataset, r2.Dataset) {
		t.Fatalf("%s: datasets diverge (%d vs %d records)", label, len(r1.Dataset), len(r2.Dataset))
	}
}

// TestScenarioDifferentialWorkers: the same scenario run at 1 and 4
// workers yields a bit-identical Result and final obs snapshot, with
// exactly diffSpec's packet volume and dataset shape — the engine is
// deterministic, so any drift there is a behaviour change.
func TestScenarioDifferentialWorkers(t *testing.T) {
	net1, _ := snapConverged(t, 1)
	r1, c1, g1, e1 := scenarioEpilogue(t, net1)
	net4, _ := snapConverged(t, 4)
	r4, c4, g4, e4 := scenarioEpilogue(t, net4)

	if c1["netsim.delivered"] == 0 {
		t.Fatal("scenario delivered nothing")
	}
	const wantSent, wantRecords = 800, 110
	sent := 0
	for _, ph := range r1.Phases {
		sent += ph.Sent
	}
	if sent != wantSent || len(r1.Dataset) != wantRecords {
		t.Fatalf("sent %d packets and exported %d dataset records, want %d and %d",
			sent, len(r1.Dataset), wantSent, wantRecords)
	}
	diffScenarioResults(t, "workers", r1, r4)
	diffSnapshots(t, "scenario-workers", c1, c4, g1, g4, e1, e4)
}

// TestScenarioSnapshotDifferential: checkpoint at convergence, restore,
// run the scenario — bit-identical to running it straight through on
// the world that was checkpointed.
func TestScenarioSnapshotDifferential(t *testing.T) {
	const workers = 2
	net, eng := snapConverged(t, workers)
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, &snapshot.World{Net: net, Eng: eng}); err != nil {
		t.Fatal(err)
	}
	r1, c1, g1, e1 := scenarioEpilogue(t, net)

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
	r2, c2, g2, e2 := scenarioEpilogue(t, restored.Net)

	if len(e1) == 0 {
		t.Fatal("no trace events recorded")
	}
	diffScenarioResults(t, fmt.Sprintf("snapshot/w%d", workers), r1, r2)
	diffSnapshots(t, "scenario-snapshot", c1, c2, g1, g2, e1, e2)
}
