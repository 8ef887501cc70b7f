package eval

import (
	"fmt"

	"discs/internal/topology"
)

// Accumulator tracks a growing deployment set D and evaluates the
// §VI-A1 closed forms and the §VI-B effectiveness in O(1)/O(|D|) per
// query, using the running sums
//
//	S1 = Σ_{j∈D} r_j     S2 = Σ_{j∈D} r_j²
//	T  = Σ_{v∉D} r_v     U  = Σ_{v∉D} r_v²
//
// The deployment incentives of SP, CSP and SP+CSP have exactly the
// same forms as DP, CDP and DP+CDP (§VI-A1), so the DP family covers
// both.
type Accumulator struct {
	r        *Ratios
	deployed []bool
	n        int // |D|

	s1, s2 float64 // over D
	t, u   float64 // over the complement
	q2     float64 // Σ_all r² (constant)
	totalW float64 // total valid-flow weight (constant)
}

// NewAccumulator starts with an empty deployment set.
func NewAccumulator(r *Ratios) *Accumulator {
	acc := &Accumulator{r: r, deployed: make([]bool, r.numASes())}
	for _, x := range r.R {
		acc.t += x
		acc.u += x * x
	}
	acc.q2 = acc.u
	for _, rv := range r.R {
		inner := (1 - rv) - (acc.q2 - rv*rv) - rv*(1-rv)
		acc.totalW += rv * inner
	}
	return acc
}

// Deploy moves an AS into D.
func (a *Accumulator) Deploy(asn topology.ASN) error {
	i, ok := a.r.idx[asn]
	if !ok {
		return fmt.Errorf("eval: unknown AS%d", asn)
	}
	if a.deployed[i] {
		return fmt.Errorf("eval: AS%d already deployed", asn)
	}
	a.deployed[i] = true
	a.n++
	x := a.r.R[i]
	a.s1 += x
	a.s2 += x * x
	a.t -= x
	a.u -= x * x
	return nil
}

// NumDeployed returns |D|.
func (a *Accumulator) NumDeployed() int { return a.n }

// DeployedRatio returns Σ_{j∈D} r_j (Figure 6a's cumulated ratio).
func (a *Accumulator) DeployedRatio() float64 { return a.s1 }

// IncBothFor returns the DP+CDP (and SP+CSP) incentive for LAS v:
//
//	inc(D, v) = Σ_{a∈D} p^A_a(1−p^I_a) + Σ_{i∈D} p^I_i(1 − p^A_v − p^A_D)
//	          = (S1 − S2) + S1(1 − r_v − S1).
func (a *Accumulator) IncBothFor(v topology.ASN) float64 {
	rv, _ := a.r.of(v)
	return (a.s1 - a.s2) + a.s1*(1-rv-a.s1)
}

// Average incentives over the remaining LASes, weighted by p^V_v = r_v
// (§VI-A2):
//
//	inc(D) = Σ_{v∉D} r_v·inc(D,v) / Σ_{v∉D} r_v.

// meanRV returns U/T, the ratio-weighted mean r_v over the remaining
// LASes. When the deployment covers (numerically) everything, the
// marginal LAS limit r_v → 0 is used, which is how Figure 5's curves
// are defined at deployment ratio 1.
func (a *Accumulator) meanRV() float64 {
	if a.t <= 1e-12 {
		return 0
	}
	return a.u / a.t
}

// IncDP returns the weighted-average DP/SP incentive.
func (a *Accumulator) IncDP() float64 {
	return a.s1 - a.s2
}

// IncCDP returns the weighted-average CDP/CSP incentive:
// (S1 − S2) − (U/T)·S1.
func (a *Accumulator) IncCDP() float64 {
	return a.s1 - a.s2 - a.meanRV()*a.s1
}

// IncBoth returns the weighted-average DP+CDP / SP+CSP incentive:
// (S1 − S2) + S1(1 − S1) − (U/T)·S1.
func (a *Accumulator) IncBoth() float64 {
	return (a.s1 - a.s2) + a.s1*(1-a.s1) - a.meanRV()*a.s1
}

// Effectiveness returns the §VI-B measure: the fraction of global
// spoofing traffic filtered when every DAS invokes all functions all
// the time. A flow (a, i, v) with a, i, v pairwise distinct is
// filtered iff v ∈ D and (a ∈ D or i ∈ D); flows are weighted
// r_a·r_i·r_v and the result is normalized by the total weight of
// valid flows.
func (a *Accumulator) Effectiveness() float64 {
	total := a.totalW
	if total <= 0 {
		return 0
	}
	var filtered float64
	for i, dep := range a.deployed {
		if !dep {
			continue
		}
		rv := a.r.R[i]
		// a ∈ D, a ≠ v: Σ r_a(1−r_a−r_v)
		c1 := (a.s1 - rv) - (a.s2 - rv*rv) - rv*(a.s1-rv)
		// a ∉ D (hence a ≠ v): Σ_{i'∈D, i'≠v} r_i' = S1 − r_v
		c2 := (1 - a.s1) * (a.s1 - rv)
		filtered += rv * (c1 + c2)
	}
	return filtered / total
}
