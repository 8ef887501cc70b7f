package eval

import (
	"math"
	"math/rand"
	"testing"

	"discs/internal/attack"
	"discs/internal/baseline"
	"discs/internal/topology"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// mcTopo builds a moderately sized synthetic Internet (links skipped:
// the analytic filter does not need paths).
func mcTopo(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.GenerateInternet(topology.GenConfig{
		NumASes: 300, NumPrefixes: 600, ZipfExponent: 1.0, Seed: 9, SkipLinks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestMonteCarloMatchesClosedFormIncentive is experiment X1: the
// flow-level estimate of inc(D, v) agrees with the closed form.
func TestMonteCarloMatchesClosedFormIncentive(t *testing.T) {
	tp := mcTopo(t)
	r := FromTopology(tp)
	order := r.OptimalOrder()
	deployed := order[:30]
	v := order[len(order)-1] // a small LAS

	acc := NewAccumulator(r)
	for _, asn := range deployed {
		acc.Deploy(asn)
	}
	want := acc.IncBothFor(v)
	got := MonteCarloIncentive(tp, deployed, v, attack.DDDoS, 40_000, 1)
	// The closed form drops O(r²) cross terms and the sampler enforces
	// distinctness, so agreement is approximate.
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("MC incentive %v vs closed form %v", got, want)
	}
	// SP+CSP has the identical form: the s-DDoS estimate agrees too.
	gotS := MonteCarloIncentive(tp, deployed, v, attack.SDDoS, 40_000, 2)
	if math.Abs(gotS-want) > 0.03 {
		t.Fatalf("MC s-DDoS incentive %v vs closed form %v", gotS, want)
	}
}

func TestMonteCarloMatchesClosedFormEffectiveness(t *testing.T) {
	tp := mcTopo(t)
	r := FromTopology(tp)
	order := r.OptimalOrder()
	deployed := order[:40]

	acc := NewAccumulator(r)
	for _, asn := range deployed {
		acc.Deploy(asn)
	}
	want := acc.Effectiveness()
	got := monteCarloEffectiveness(tp, baseline.DISCS{}, deployed, attack.DDDoS, 60_000, 3)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("MC effectiveness %v vs closed form %v", got, want)
	}
}

// TestDISCSOutperformsBaselinesUnderPartialDeployment reproduces the
// qualitative §II comparison at 10% optimal deployment: DISCS filters
// more of the global spoofing traffic than SPM (needs both endpoints)
// and IF (needs the agent), and at least matches MEF.
func TestDISCSOutperformsBaselinesUnderPartialDeployment(t *testing.T) {
	tp := mcTopo(t)
	r := FromTopology(tp)
	deployed := r.OptimalOrder()[:30]

	const n = 30_000
	discs := monteCarloEffectiveness(tp, baseline.DISCS{}, deployed, attack.DDDoS, n, 4)
	spm := monteCarloEffectiveness(tp, baseline.SPM{}, deployed, attack.DDDoS, n, 4)
	mef := monteCarloEffectiveness(tp, baseline.MEF{}, deployed, attack.DDDoS, n, 4)

	if !(discs > spm) {
		t.Fatalf("DISCS %v not above SPM %v", discs, spm)
	}
	if discs < mef-1e-9 {
		t.Fatalf("DISCS %v below MEF %v", discs, mef)
	}
	// IF's global effectiveness is high (any deployed agent filters),
	// but its *incentive* is zero — an LAS deploying IF gains no
	// protection for traffic attacking it (§II). DISCS's defining
	// advantage is positive incentive, not raw effectiveness.
	victim := r.OptimalOrder()[r.numASes()-1]
	var ifInc float64
	{
		d := baseline.Deployment{victim: true}
		s := attack.NewSampler(tp)
		rng := newRand(6)
		hits := 0
		for k := 0; k < n; k++ {
			f := s.DrawFlowForVictim(attack.DDDoS, victim, rng)
			if (baseline.IF{}).Filters(tp, d, f) {
				hits++
			}
		}
		ifInc = float64(hits) / n
	}
	discsInc := MonteCarloIncentive(tp, deployed, victim, attack.DDDoS, n, 6)
	if ifInc != 0 {
		t.Fatalf("IF self-incentive = %v, want 0", ifInc)
	}
	if discsInc <= 0.1 {
		t.Fatalf("DISCS incentive = %v, want substantial", discsInc)
	}
	// s-DDoS: SPM and Passport offer nothing, DISCS does.
	discsS := monteCarloEffectiveness(tp, baseline.DISCS{}, deployed, attack.SDDoS, n, 5)
	spmS := monteCarloEffectiveness(tp, baseline.SPM{}, deployed, attack.SDDoS, n, 5)
	if spmS != 0 {
		t.Fatalf("SPM s-DDoS effectiveness = %v, want 0", spmS)
	}
	if discsS <= 0 {
		t.Fatal("DISCS s-DDoS effectiveness is zero")
	}
}
