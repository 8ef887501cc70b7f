package eval

import (
	"math/rand"

	"discs/internal/attack"
	"discs/internal/baseline"
	"discs/internal/topology"
)

// This file cross-checks the closed forms against flow-level
// Monte-Carlo simulation using the analytic DISCS filter
// (baseline.DISCS) — experiment X1 of DESIGN.md. The closed forms and
// the sampler use the same assumption (addresses uniformly likely to
// be agent/innocent/victim), so the estimates must agree up to
// sampling error and the O(r_j) cross terms the paper's forms drop.

// MonteCarloIncentive estimates inc(D, v): the fraction of spoofing
// flows attacking LAS v that become filtered when v deploys. kind
// selects d-DDoS (DP+CDP protection) or s-DDoS (SP+CSP); the two
// estimates coincide in distribution.
func MonteCarloIncentive(topo *topology.Topology, deployed []topology.ASN,
	v topology.ASN, kind attack.Kind, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	s := attack.NewSampler(topo)
	d := make(baseline.Deployment, len(deployed)+1)
	for _, asn := range deployed {
		d[asn] = true
	}
	filter := baseline.DISCS{}
	// Before deployment F(D, ·) = 0 for every flow attacking the LAS v,
	// so the delta equals the post-deployment filter rate.
	d[v] = true
	hits := 0
	for k := 0; k < n; k++ {
		f := s.DrawFlowForVictim(kind, v, rng)
		if f.Agent == 0 {
			continue
		}
		if filter.Filters(topo, d, f) {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// monteCarloEffectiveness estimates a defense's global filter rate by
// sampling flows over the whole Internet: with baseline.DISCS it is
// the §VI-B global reduction, with another defense its comparison.
func monteCarloEffectiveness(topo *topology.Topology, def baseline.Defense,
	deployed []topology.ASN, kind attack.Kind, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	s := attack.NewSampler(topo)
	d := make(baseline.Deployment, len(deployed))
	for _, asn := range deployed {
		d[asn] = true
	}
	hits := 0
	for k := 0; k < n; k++ {
		f := s.DrawFlow(kind, rng)
		if f.Agent == 0 {
			continue
		}
		if def.Filters(topo, d, f) {
			hits++
		}
	}
	return float64(hits) / float64(n)
}
