// Scenario: the declarative attack-campaign engine (internal/scenario)
// driving a generated internet through a phased pulse-wave campaign —
// onset train, defense invocation, an adaptive attacker rotating its
// spoofed sources, an adoption step with the §VI incentive values, and
// a legit-traffic sanity phase — then reporting time-to-mitigation and
// the ground-truth-labeled dataset the run exported.
//
// The same campaigns run from JSON files (this directory holds a
// curated library) via:
//
//	go run ./cmd/discs-sim -scenario examples/scenario/pulsewave.json
//	go run ./examples/scenario
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/flowexport"
	"discs/internal/scenario"
	"discs/internal/topology"
)

func main() {
	log.SetFlags(0)

	// A small generated internet: 30 ASes, Zipf-skewed address space,
	// DISCS on the 6 largest. The victim defaults to the last deployer.
	topo, err := topology.GenerateInternet(topology.GenConfig{
		NumASes: 30, NumPrefixes: 90, ZipfExponent: 1.0, Seed: 5, TierOneCount: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		log.Fatal(err)
	}
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: core.DefaultConfig()})
	if err != nil {
		log.Fatal(err)
	}
	for i, asn := range topo.BySizeDesc()[:6] {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		log.Fatal(err)
	}

	// The campaign, phase by phase. The builder mirrors the JSON schema;
	// zero fields take the same defaults.
	spec, err := scenario.New("walkthrough", 42).
		Pulse("onset", 40, 6, 3, 500*time.Millisecond).
		Invoke("defend").
		Adaptive("rotate", scenario.StrategyRotate, 40, 6, 3, 500*time.Millisecond).
		Deploy("adopt", 4, "size").
		Pulse("sustain", 40, 6, 2, 500*time.Millisecond).
		Legit("sanity", 5).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	eng, err := scenario.NewEngine(scenario.Options{Spec: spec, Sys: sys})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scenario %q against victim AS%d:\n\n", res.Scenario, res.Victim)
	for _, ph := range res.Phases {
		fmt.Printf("%-8s %-9s", ph.Name, ph.Kind)
		switch ph.Kind {
		case scenario.PhaseInvoke:
			fmt.Printf(" invoked at %d peers\n", ph.InvokedPeers)
		case scenario.PhaseDeploy:
			fmt.Printf(" +%d DAS — ratio %.3f, IncDP %.3f, IncCDP %.3f, effectiveness %.3f\n",
				ph.NewDeployed, ph.DeployedRatio, ph.IncDP, ph.IncCDP, ph.Effectiveness)
		default:
			fmt.Printf(" %4d sent, %4d delivered, %4d dropped (%.0f%% filtered)",
				ph.Sent, ph.Delivered, ph.Dropped, 100*ph.DropRate)
			if ph.Rotations > 0 {
				fmt.Printf(", %d source rotations", ph.Rotations)
			}
			if ph.Kind == scenario.PhaseLegit {
				fmt.Printf(", %d false positives", ph.FalsePositives)
			}
			fmt.Println()
		}
	}

	if ttm := res.TTM; ttm != nil && ttm.Recovered {
		fmt.Printf("\ntime-to-mitigation: detect %v + recover %v = %v\n",
			ttm.DetectDelay, ttm.RecoveryDelay, ttm.Total)
	}

	// The dataset carries ground truth per (flow, phase): what the flow
	// was and what the defense did to it — export it for offline
	// analysis or detector training.
	byLabel := map[flowexport.Label]int{}
	for _, r := range res.Dataset {
		byLabel[r.Label]++
	}
	fmt.Printf("\nlabeled dataset: %d flow records (%d ddos, %d benign)\n",
		len(res.Dataset), byLabel[flowexport.LabelDDoS], byLabel[flowexport.LabelBenign])
	fmt.Println("\nfirst rows of the CSV export:")
	flowexport.WriteLabeledCSV(os.Stdout, res.Dataset[:3])
}
