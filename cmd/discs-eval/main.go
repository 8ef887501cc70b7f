// Command discs-eval regenerates the evaluation figures of the DISCS
// paper (ICPP 2015) as tab-separated tables:
//
//	discs-eval -fig 5     deployment incentives vs deployment ratio (Fig. 5)
//	discs-eval -fig 6a    cumulated address ratio per strategy (Fig. 6a)
//	discs-eval -fig 6b    incentives per strategy, whole process (Fig. 6b)
//	discs-eval -fig 6c    incentives per strategy, early stage (Fig. 6c)
//	discs-eval -fig 7a    global spoofing reduction, whole process (Fig. 7a)
//	discs-eval -fig 7b    global spoofing reduction, early stage (Fig. 7b)
//	discs-eval -fig all   everything, with headers
//
// With -metrics it instead emits the interval time series of an
// observability export (written by `discs-sim -metrics`) as TSV, ready
// for the same plotting pipeline as the figures.
//
// The Internet is synthetic (see DESIGN.md substitution #1) but
// paper-scale by default: 44 036 ASes, ~179k prefixes, piecewise-Pareto address
// space.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"discs/internal/cli"
	"discs/internal/eval"
	"discs/internal/obs"
	"discs/internal/topology"
)

func main() {
	cli.Init("discs-eval")
	prof := cli.RegisterProfileFlags()
	// The figure math needs only the per-AS address-space ratios, so
	// links are skipped; everything else comes from the calibrated
	// paper-scale defaults (piecewise-Pareto head + Zipf tail), not an
	// ad-hoc flat-Zipf config.
	baseCfg := topology.DefaultGenConfig()
	baseCfg.SkipLinks = true
	topoFlags := cli.RegisterTopoFlags(baseCfg)
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 5, 6a, 6b, 6c, 7a, 7b, all")
		runs    = flag.Int("runs", 50, "random-deployment repetitions for figure 5")
		samples = flag.Int("samples", 60, "sample points per curve")
		early   = flag.Int("early", 200, "deployer cutoff for the early-stage figures (6c uses this; 7b uses 1000)")
		metrics = flag.String("metrics", "", "emit the time series of this observability export instead of a figure")
		series  = flag.String("series", "netsim.delivered,router.out_stamped,router.in_dropped",
			"comma-separated metrics for the -metrics series")
	)
	flag.Parse()
	defer prof.Start()()

	if *metrics != "" {
		ex, err := obs.ReadExportFile(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		if err := cli.WriteSeriesTSV(os.Stdout, ex.Points, splitList(*series)); err != nil {
			log.Fatal(err)
		}
		return
	}

	topo, err := topoFlags.Build(baseCfg)
	if err != nil {
		log.Fatal(err)
	}
	r := eval.FromTopology(topo)
	seed := topoFlags.Seed

	run := func(name string, fn func() error) {
		fmt.Printf("# figure %s\n", name)
		if err := fn(); err != nil {
			log.Fatalf("figure %s: %v", name, err)
		}
		fmt.Println()
	}

	figures := map[string]func() error{
		"5": func() error {
			pts, err := eval.MeanIncentiveCurve(r, *runs, *samples, seed)
			if err != nil {
				return err
			}
			return eval.WriteTSV(os.Stdout, []string{"DP", "CDP", "DP+CDP"}, pts)
		},
		"6a": func() error {
			curves, err := eval.StrategyCurves(r, *samples, seed,
				func(r *eval.Ratios, order []topology.ASN, samples int) ([]eval.Point, error) {
					return eval.CumulativeRatioCurve(r, order, samples), nil
				})
			if err != nil {
				return err
			}
			return writeStrategies(curves, "cumulated")
		},
		"6b": func() error {
			curves, err := eval.StrategyCurves(r, *samples, seed, incentiveBoth)
			if err != nil {
				return err
			}
			return writeStrategies(curves, "DP+CDP")
		},
		"6c": func() error {
			curves, err := earlyStrategyCurves(r, *early, *samples, seed, incentiveBoth)
			if err != nil {
				return err
			}
			return writeStrategies(curves, "DP+CDP")
		},
		"7a": func() error {
			curves, err := eval.StrategyCurves(r, *samples, seed, eval.EffectivenessCurve)
			if err != nil {
				return err
			}
			return writeStrategies(curves, "effectiveness")
		},
		"7b": func() error {
			curves, err := earlyStrategyCurves(r, 1000, *samples, seed, eval.EffectivenessCurve)
			if err != nil {
				return err
			}
			return writeStrategies(curves, "effectiveness")
		},
	}

	if *fig == "all" {
		for _, name := range []string{"5", "6a", "6b", "6c", "7a", "7b"} {
			run(name, figures[name])
		}
		return
	}
	fn, ok := figures[*fig]
	if !ok {
		log.Fatalf("unknown figure %q (want 5, 6a, 6b, 6c, 7a, 7b, all)", *fig)
	}
	run(*fig, fn)
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// incentiveBoth adapts IncentiveCurve to the single DP+CDP series used
// by figures 6b/6c.
func incentiveBoth(r *eval.Ratios, order []topology.ASN, samples int) ([]eval.Point, error) {
	return eval.IncentiveCurve(r, order, samples)
}

// earlyStrategyCurves truncates each strategy's order to the first
// `cut` deployers (the "early stage" panels).
func earlyStrategyCurves(r *eval.Ratios, cut, samples int, seed int64,
	fn func(*eval.Ratios, []topology.ASN, int) ([]eval.Point, error)) (map[string][]eval.Point, error) {
	trunc := func(rr *eval.Ratios, order []topology.ASN, s int) ([]eval.Point, error) {
		if len(order) > cut {
			order = order[:cut]
		}
		return fn(rr, order, s)
	}
	return eval.StrategyCurves(r, samples, seed, trunc)
}

// writeStrategies prints one TSV block per strategy.
func writeStrategies(curves map[string][]eval.Point, series string) error {
	for _, name := range []string{"uniform", "random", "optimal"} {
		fmt.Printf("## strategy %s\n", name)
		if err := eval.WriteTSV(os.Stdout, []string{series}, curves[name]); err != nil {
			return err
		}
	}
	return nil
}
