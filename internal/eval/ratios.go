// Package eval implements the evaluation engine of §VI of the paper:
// closed-form deployment incentives for the DISCS functions (§VI-A1),
// the random/optimal/uniform deployment strategies (§VI-A2, §VI-A3),
// global effectiveness (§VI-B), and Monte-Carlo cross-checks of the
// closed forms against flow-level simulation.
//
// Everything is computed over the per-AS routable-address ratios r_j:
// the paper's simulation assumption is that every routable address is
// equally likely to be the agent, innocent or victim of a spoofing
// flow, so p^A_j = p^I_j = p^V_j = r_j.
package eval

import (
	"fmt"
	"math/rand"
	"sort"

	"discs/internal/topology"
)

// Ratios is the r_j vector over a fixed AS ordering.
type Ratios struct {
	ASNs []topology.ASN
	R    []float64 // parallel to ASNs; sums to ~1
	idx  map[topology.ASN]int
}

// FromTopology extracts the ratios of every AS in the topology.
func FromTopology(t *topology.Topology) *Ratios {
	asns := append([]topology.ASN(nil), t.ASNs()...)
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	r := &Ratios{ASNs: asns, R: make([]float64, len(asns)), idx: make(map[topology.ASN]int, len(asns))}
	for i, asn := range asns {
		r.R[i] = t.Ratio(asn)
		r.idx[asn] = i
	}
	return r
}

// uniform builds a hypothetical Internet of n equally sized ASes
// (ASN 1..n) — the "uniform" reference curve of Figure 6.
func uniform(n int) *Ratios {
	r := &Ratios{ASNs: make([]topology.ASN, n), R: make([]float64, n), idx: make(map[topology.ASN]int, n)}
	for i := 0; i < n; i++ {
		asn := topology.ASN(i + 1)
		r.ASNs[i] = asn
		r.R[i] = 1 / float64(n)
		r.idx[asn] = i
	}
	return r
}

// of returns r_j for an AS.
func (r *Ratios) of(asn topology.ASN) (float64, error) {
	i, ok := r.idx[asn]
	if !ok {
		return 0, fmt.Errorf("eval: unknown AS%d", asn)
	}
	return r.R[i], nil
}

// numASes returns the number of ASes.
func (r *Ratios) numASes() int { return len(r.ASNs) }

// randomOrder returns a seeded random deployment order over all ASes
// (the §VI-A2 process: repeatedly pick a random LAS).
func (r *Ratios) randomOrder(seed int64) []topology.ASN {
	rng := rand.New(rand.NewSource(seed))
	out := append([]topology.ASN(nil), r.ASNs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// OptimalOrder returns the largest-first order, which §VI-A3 proves
// optimal for follower incentives.
func (r *Ratios) OptimalOrder() []topology.ASN {
	out := append([]topology.ASN(nil), r.ASNs...)
	sort.Slice(out, func(i, j int) bool {
		ri, rj := r.R[r.idx[out[i]]], r.R[r.idx[out[j]]]
		if ri != rj {
			return ri > rj
		}
		return out[i] < out[j]
	})
	return out
}

// cumulativeRatio returns the cumulated address-space ratio after each
// deployment step of the order (Figure 6a).
func (r *Ratios) cumulativeRatio(order []topology.ASN) []float64 {
	out := make([]float64, len(order))
	var sum float64
	for k, asn := range order {
		sum += r.R[r.idx[asn]]
		out[k] = sum
	}
	return out
}
