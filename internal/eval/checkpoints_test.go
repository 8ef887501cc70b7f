package eval

import (
	"math"
	"testing"

	"discs/internal/topology"
)

// checkpointTol is how far a regenerated checkpoint may move from the
// value EXPERIMENTS.md records before the reproduction counts as
// changed.
const checkpointTol = 0.002

// TestPaperCheckpoints regenerates every §VI checkpoint on the
// paper-scale synthetic Internet (44,036 ASes) with discs-report's
// defaults (seed 1, 10 random orders, 50,000 Monte-Carlo flows) and
// holds each to the value EXPERIMENTS.md records. It also pins the
// substitution-sensitivity experiment R1 (DESIGN.md §3 #1): the Fig. 7b
// effectiveness at 50 deployers under uncalibrated Zipf size
// distributions. `go test -v -run PaperCheckpoints ./internal/eval`
// prints the whole table.
func TestPaperCheckpoints(t *testing.T) {
	cfg := topology.DefaultGenConfig()
	cfg.SkipLinks = true
	topo, err := topology.GenerateInternet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumASes() != 44036 {
		t.Fatalf("paper-scale Internet has %d ASes, want 44036", topo.NumASes())
	}
	got, err := Checkpoints(topo, 10, 50_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// In Checkpoints' order: Fig. 5 @10 %, @50 %; share, incentive and
	// effectiveness @50; incentive @200; share and effectiveness @629;
	// X1. The Fig. 6c incentive @50 overshoots the paper by ~0.08: the
	// calibrated head is heavier than the 2012 data below rank 50.
	recorded := []float64{0.1733, 0.7374, 0.537, 0.764, 0.396, 0.905, 0.895, 0.881, 0.396}
	if len(got) != len(recorded) {
		t.Fatalf("%d checkpoints, want %d", len(got), len(recorded))
	}
	for i, c := range got {
		check(t, c.Name, c.Paper, recorded[i], c.Value)
	}

	// R1: the same Fig. 7b point on other size distributions.
	for _, sh := range []struct {
		name     string
		cfg      topology.GenConfig
		recorded float64
	}{
		{"zipf 0.8", topology.GenConfig{NumASes: 44036, ZipfExponent: 0.8, Seed: 1, SkipLinks: true}, 0.0469},
		{"zipf 1.0", topology.GenConfig{NumASes: 44036, ZipfExponent: 1.0, Seed: 1, SkipLinks: true}, 0.2012},
		{"calibrated", cfg, 0.3963},
	} {
		tp, err := topology.GenerateInternet(sh.cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := FromTopology(tp)
		acc := NewAccumulator(r)
		for _, asn := range r.OptimalOrder()[:50] {
			if err := acc.Deploy(asn); err != nil {
				t.Fatal(err)
			}
		}
		check(t, "R1: effectiveness @50 largest, "+sh.name, "0.41", sh.recorded, acc.Effectiveness())
	}
}

// check logs one checkpoint and fails the test if it left its band.
func check(t *testing.T, name, paper string, recorded, measured float64) {
	t.Helper()
	t.Logf("%-48s paper %-20s recorded %.4f measured %.4f", name, paper, recorded, measured)
	if math.Abs(measured-recorded) > checkpointTol {
		t.Errorf("%s: measured %.4f, recorded %.4f ±%g (paper %s)",
			name, measured, recorded, checkpointTol, paper)
	}
}

// TestCheckpointsSmallInternet: on an Internet with fewer ASes than a
// checkpoint's deployer count, that checkpoint is left out rather than
// indexing past the deployment order.
func TestCheckpointsSmallInternet(t *testing.T) {
	topo, err := topology.GenerateInternet(topology.GenConfig{NumASes: 40, NumPrefixes: 200, ZipfExponent: 1, Seed: 1, SkipLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Checkpoints(topo, 2, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "Fig 5: incentive @10% random deployment" {
		t.Fatalf("checkpoints on 40 ASes = %+v, want the two Fig. 5 rows", got)
	}
}
