package eval

import (
	"discs/internal/attack"
	"discs/internal/baseline"
	"discs/internal/topology"
)

// Checkpoint is one headline number of the paper's §VI evaluation: the
// value the paper states beside the value this reproduction measures.
type Checkpoint struct {
	Name string
	// Paper is the paper's value as stated (some are only implied).
	Paper string
	Value float64
	// Prec is the number of decimals the value is reported with.
	Prec int
}

// Checkpoints regenerates the Fig. 5–7 checkpoints and the X1
// Monte-Carlo cross-check on topo, in the order discs-report prints
// them. Fig. 5 averages runs random deployment orders and X1 samples
// mcFlows d-DDoS flows, both seeded from seed; the rest follow the
// optimal (largest-first) order. Checkpoints beyond topo's AS count are
// left out.
func Checkpoints(topo *topology.Topology, runs, mcFlows int, seed int64) ([]Checkpoint, error) {
	r := FromTopology(topo)
	var out []Checkpoint
	add := func(name, paper string, prec int, v float64) {
		out = append(out, Checkpoint{Name: name, Paper: paper, Value: v, Prec: prec})
	}

	// Figure 5: random deployment incentives.
	pts, err := MeanIncentiveCurve(r, runs, 21, seed)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		if p.Ratio >= 0.09 && p.Ratio <= 0.11 {
			add("Fig 5: incentive @10% random deployment", "0.1688", 4, p.Y["DP+CDP"])
		}
		if p.Ratio >= 0.49 && p.Ratio <= 0.51 {
			add("Fig 5: incentive @50% random deployment", "0.6865", 4, p.Y["DP+CDP"])
		}
	}

	// Figures 6/7: optimal strategy checkpoints.
	acc := NewAccumulator(r)
	order := r.OptimalOrder()
	for k := 0; k < 629 && k < len(order); k++ {
		if err := acc.Deploy(order[k]); err != nil {
			return nil, err
		}
		switch k + 1 {
		case 50:
			add("Fig 6a: address share of 50 largest", "≈0.52 (implied)", 3, acc.DeployedRatio())
			add("Fig 6c: incentive @50 largest", "0.68", 3, acc.IncBoth())
			add("Fig 7b: effectiveness @50 largest", "0.41", 3, acc.Effectiveness())
		case 200:
			add("Fig 6c: incentive @200 largest", "0.88", 3, acc.IncBoth())
		case 629:
			add("Fig 6a: address share of 629 largest", "≈0.90 (implied)", 3, acc.DeployedRatio())
			add("Fig 7b: effectiveness @629 largest", "0.90", 3, acc.Effectiveness())
		}
	}

	// X1: flow-level Monte-Carlo effectiveness at the Fig. 7b point.
	if len(order) >= 50 {
		mc := monteCarloEffectiveness(topo, baseline.DISCS{}, order[:50], attack.DDDoS, mcFlows, seed)
		add("X1: flow-level MC effectiveness @50 largest", "matches closed form", 3, mc)
	}
	return out, nil
}
