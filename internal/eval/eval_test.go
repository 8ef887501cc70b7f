package eval

import (
	"bytes"
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"discs/internal/topology"
)

// smallRatios builds a hand-made ratio vector over ASes 1..n.
func smallRatios(t *testing.T, weights []float64) *Ratios {
	t.Helper()
	var sum float64
	for _, w := range weights {
		sum += w
	}
	r := &Ratios{idx: make(map[topology.ASN]int)}
	for i, w := range weights {
		asn := topology.ASN(i + 1)
		r.ASNs = append(r.ASNs, asn)
		r.R = append(r.R, w/sum)
		r.idx[asn] = i
	}
	return r
}

// bruteIncentives computes the §VI-A1 incentive definitions for a
// victim v by direct enumeration over all (a, i) pairs.
func bruteIncentives(r *Ratios, deployed map[topology.ASN]bool, v topology.ASN) (dp, cdp, both float64) {
	for ai, a := range r.ASNs {
		for ii, i := range r.ASNs {
			w := r.R[ai] * r.R[ii]
			dpHit := deployed[a] && i != a
			cdpHit := deployed[i] && a != v && a != i
			if dpHit {
				dp += w
			}
			if cdpHit {
				cdp += w
			}
			if dpHit || cdpHit {
				both += w
			}
		}
	}
	return dp, cdp, both
}

func TestClosedFormsMatchBruteForce(t *testing.T) {
	r := smallRatios(t, []float64{8, 5, 3, 2, 1, 1, 0.5, 0.25})
	acc := NewAccumulator(r)
	deployed := map[topology.ASN]bool{}
	for _, asn := range []topology.ASN{2, 5, 7} {
		if err := acc.Deploy(asn); err != nil {
			t.Fatal(err)
		}
		deployed[asn] = true
	}
	for _, v := range []topology.ASN{1, 3, 8} { // LASes
		dp, cdp, both := bruteIncentives(r, deployed, v)
		if got := incDPFor(acc, v); math.Abs(got-dp) > 1e-12 {
			t.Errorf("incDPFor(%d) = %v, brute %v", v, got, dp)
		}
		if got := incCDPFor(acc, v); math.Abs(got-cdp) > 1e-12 {
			t.Errorf("incCDPFor(%d) = %v, brute %v", v, got, cdp)
		}
		if got := acc.IncBothFor(v); math.Abs(got-both) > 1e-12 {
			t.Errorf("IncBothFor(%d) = %v, brute %v", v, got, both)
		}
	}
}

func TestAverageIncentivesMatchBruteForce(t *testing.T) {
	r := smallRatios(t, []float64{8, 5, 3, 2, 1, 1})
	acc := NewAccumulator(r)
	deployed := map[topology.ASN]bool{}
	for _, asn := range []topology.ASN{1, 4} {
		acc.Deploy(asn)
		deployed[asn] = true
	}
	var wDP, wCDP, wBoth, wSum float64
	for vi, v := range r.ASNs {
		if deployed[v] {
			continue
		}
		dp, cdp, both := bruteIncentives(r, deployed, v)
		w := r.R[vi]
		wDP += w * dp
		wCDP += w * cdp
		wBoth += w * both
		wSum += w
	}
	if got := acc.IncDP(); math.Abs(got-wDP/wSum) > 1e-12 {
		t.Errorf("IncDP = %v, brute %v", got, wDP/wSum)
	}
	if got := acc.IncCDP(); math.Abs(got-wCDP/wSum) > 1e-12 {
		t.Errorf("IncCDP = %v, brute %v", got, wCDP/wSum)
	}
	if got := acc.IncBoth(); math.Abs(got-wBoth/wSum) > 1e-12 {
		t.Errorf("IncBoth = %v, brute %v", got, wBoth/wSum)
	}
}

// bruteEffectiveness enumerates all valid (a,i,v) triples.
func bruteEffectiveness(r *Ratios, deployed map[topology.ASN]bool) float64 {
	var filtered, total float64
	for ai, a := range r.ASNs {
		for ii, i := range r.ASNs {
			for vi, v := range r.ASNs {
				if a == v || i == v || a == i {
					continue
				}
				w := r.R[ai] * r.R[ii] * r.R[vi]
				total += w
				if deployed[v] && (deployed[a] || deployed[i]) {
					filtered += w
				}
			}
		}
	}
	return filtered / total
}

func TestEffectivenessMatchesBruteForce(t *testing.T) {
	r := smallRatios(t, []float64{8, 5, 3, 2, 1, 1, 0.5})
	acc := NewAccumulator(r)
	deployed := map[topology.ASN]bool{}
	for _, asn := range []topology.ASN{1, 3, 6} {
		acc.Deploy(asn)
		deployed[asn] = true
	}
	want := bruteEffectiveness(r, deployed)
	if got := acc.Effectiveness(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Effectiveness = %v, brute %v", got, want)
	}
}

func TestEffectivenessBounds(t *testing.T) {
	r := smallRatios(t, []float64{5, 4, 3, 2, 1})
	acc := NewAccumulator(r)
	if acc.Effectiveness() != 0 {
		t.Fatal("empty deployment should have zero effectiveness")
	}
	for _, asn := range r.ASNs {
		acc.Deploy(asn)
	}
	if e := acc.Effectiveness(); math.Abs(e-1) > 1e-9 {
		t.Fatalf("full deployment effectiveness = %v, want 1", e)
	}
}

// TestMonotonicIncentives is experiment X2: the §VI-A1 theorem that
// incentives increase monotonically with the deployment set, checked
// as a randomized property over growth sequences.
func TestMonotonicIncentives(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(20)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64()*10 + 0.01
		}
		r := smallRatios(t, weights)
		order := r.randomOrder(int64(trial))
		v := order[len(order)-1] // stays an LAS throughout
		acc := NewAccumulator(r)
		prevDP, prevCDP, prevBoth := 0.0, 0.0, 0.0
		for _, asn := range order[:len(order)-1] {
			acc.Deploy(asn)
			dp, cdp, both := incDPFor(acc, v), incCDPFor(acc, v), acc.IncBothFor(v)
			const eps = 1e-12
			if dp < prevDP-eps || cdp < prevCDP-eps || both < prevBoth-eps {
				t.Fatalf("trial %d: incentive decreased: DP %v→%v CDP %v→%v Both %v→%v",
					trial, prevDP, dp, prevCDP, cdp, prevBoth, both)
			}
			prevDP, prevCDP, prevBoth = dp, cdp, both
		}
	}
}

// TestMonotonicEffectiveness: effectiveness also grows with deployment.
func TestMonotonicEffectiveness(t *testing.T) {
	r := smallRatios(t, []float64{9, 7, 5, 3, 2, 1, 1, 0.5})
	acc := NewAccumulator(r)
	prev := 0.0
	for _, asn := range r.OptimalOrder() {
		acc.Deploy(asn)
		e := acc.Effectiveness()
		if e < prev-1e-12 {
			t.Fatalf("effectiveness decreased %v → %v", prev, e)
		}
		prev = e
	}
}

// TestOptimalDominatesRandom verifies the §VI-A3 optimal-strategy
// theorem empirically: at every prefix length, largest-first yields
// incentive ≥ any random order.
func TestOptimalDominatesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	weights := make([]float64, 50)
	for i := range weights {
		weights[i] = math.Pow(rng.Float64()+0.001, 3) * 100
	}
	r := smallRatios(t, weights)
	opt := r.OptimalOrder()
	for trial := 0; trial < 10; trial++ {
		rnd := r.randomOrder(int64(trial))
		accO, accR := NewAccumulator(r), NewAccumulator(r)
		for k := 0; k < len(opt)-1; k++ {
			accO.Deploy(opt[k])
			accR.Deploy(rnd[k])
			// Compare incentive for a victim not deployed in either.
			if accO.IncDP() < accR.IncDP()-1e-9 {
				t.Fatalf("optimal DP incentive below random at k=%d", k+1)
			}
			if accO.IncBoth() < accR.IncBoth()-1e-6 {
				t.Fatalf("optimal Both incentive below random at k=%d: %v < %v",
					k+1, accO.IncBoth(), accR.IncBoth())
			}
		}
	}
}

func TestDPandCDPRelation(t *testing.T) {
	// §VI-A2: the DP and CDP curves nearly coincide (CDP is lower by
	// r_v·S1 per victim, a tiny amount), and DP+CDP is strictly higher.
	r := smallRatios(t, []float64{5, 4, 3, 2, 1, 1, 1, 1, 1, 1})
	acc := NewAccumulator(r)
	for _, asn := range []topology.ASN{1, 5, 9} {
		acc.Deploy(asn)
	}
	dp, cdp, both := acc.IncDP(), acc.IncCDP(), acc.IncBoth()
	if !(cdp <= dp) {
		t.Fatalf("CDP %v > DP %v", cdp, dp)
	}
	if !(both > dp) {
		t.Fatalf("Both %v ≤ DP %v", both, dp)
	}
	if dp-cdp > 0.2*dp {
		t.Fatalf("DP %v and CDP %v should nearly coincide", dp, cdp)
	}
}

func TestUniformRatios(t *testing.T) {
	u := uniform(100)
	if u.numASes() != 100 {
		t.Fatal("len")
	}
	var sum float64
	for _, x := range u.R {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("uniform ratios sum to %v", sum)
	}
	// Cumulative ratio grows linearly.
	cum := u.cumulativeRatio(u.ASNs)
	for k, c := range cum {
		if math.Abs(c-float64(k+1)/100) > 1e-9 {
			t.Fatalf("cumulative[%d] = %v", k, c)
		}
	}
}

func TestOrdersArePermutations(t *testing.T) {
	r := smallRatios(t, []float64{3, 1, 4, 1, 5, 9, 2, 6})
	for name, order := range map[string][]topology.ASN{
		"random":  r.randomOrder(1),
		"optimal": r.OptimalOrder(),
	} {
		if len(order) != r.numASes() {
			t.Fatalf("%s order length %d", name, len(order))
		}
		seen := map[topology.ASN]bool{}
		for _, asn := range order {
			if seen[asn] {
				t.Fatalf("%s order repeats AS%d", name, asn)
			}
			seen[asn] = true
		}
	}
	// Optimal is sorted by ratio descending.
	opt := r.OptimalOrder()
	for i := 1; i < len(opt); i++ {
		a, _ := r.of(opt[i-1])
		b, _ := r.of(opt[i])
		if a < b {
			t.Fatal("optimal order not descending")
		}
	}
}

func TestAccumulatorErrors(t *testing.T) {
	r := smallRatios(t, []float64{1, 2})
	acc := NewAccumulator(r)
	if err := acc.Deploy(99); err == nil {
		t.Fatal("unknown AS accepted")
	}
	acc.Deploy(1)
	if err := acc.Deploy(1); err == nil {
		t.Fatal("double deploy accepted")
	}
	if _, err := r.of(99); err == nil {
		t.Fatal("Of(99) should fail")
	}
}

func TestIncentiveCurveShape(t *testing.T) {
	weights := make([]float64, 500)
	rng := rand.New(rand.NewSource(3))
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.0)
	}
	rng.Shuffle(len(weights), func(i, j int) { weights[i], weights[j] = weights[j], weights[i] })
	r := smallRatios(t, weights)
	pts, err := IncentiveCurve(r, r.randomOrder(1), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 10 {
		t.Fatalf("only %d points", len(pts))
	}
	// Monotone in N; last point near full deployment.
	for i := 1; i < len(pts); i++ {
		if pts[i].N <= pts[i-1].N {
			t.Fatal("sample grid not increasing")
		}
		// The per-victim incentive is monotone (the §VI-A1 theorem);
		// the *average* over the shrinking LAS set may wobble by the
		// change in U/T, so allow a small slack.
		if pts[i].Y["DP+CDP"] < pts[i-1].Y["DP+CDP"]-1e-2 {
			t.Fatalf("DP+CDP curve dropped: %v -> %v", pts[i-1].Y["DP+CDP"], pts[i].Y["DP+CDP"])
		}
	}
	last := pts[len(pts)-1]
	if last.N != 500 || last.Ratio != 1 {
		t.Fatalf("last point = %+v", last)
	}
}

func TestMeanIncentiveCurve(t *testing.T) {
	r := smallRatios(t, []float64{10, 8, 6, 4, 2, 1, 1, 1, 1, 1})
	mean, err := MeanIncentiveCurve(r, 5, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	// The final point is deployment of everything: identical across
	// runs, so the mean equals a single run's final value.
	single, _ := IncentiveCurve(r, r.randomOrder(42), 10)
	gotLast := mean[len(mean)-1].Y["DP"]
	wantLast := single[len(single)-1].Y["DP"]
	if math.Abs(gotLast-wantLast) > 1e-9 {
		t.Fatalf("mean final %v != single final %v", gotLast, wantLast)
	}
}

func TestStrategyCurves(t *testing.T) {
	weights := make([]float64, 200)
	for i := range weights {
		weights[i] = 1 / float64(i+1)
	}
	r := smallRatios(t, weights)
	curves, err := StrategyCurves(r, 20, 7, EffectivenessCurve)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"optimal", "random", "uniform"} {
		if len(curves[name]) == 0 {
			t.Fatalf("missing %s curve", name)
		}
	}
	// Optimal must dominate random and uniform at the early stage.
	k := len(curves["optimal"]) / 4
	opt := curves["optimal"][k].Y["effectiveness"]
	rnd := curves["random"][k].Y["effectiveness"]
	uni := curves["uniform"][k].Y["effectiveness"]
	if !(opt > rnd && opt > uni) {
		t.Fatalf("optimal %v not above random %v / uniform %v early", opt, rnd, uni)
	}
}

func TestWriteTSV(t *testing.T) {
	pts := []Point{
		{N: 1, Ratio: 0.5, Y: map[string]float64{"a": 0.25}},
		{N: 2, Ratio: 1.0, Y: map[string]float64{"a": 0.5}},
	}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, []string{"a"}, pts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "n\tratio\ta" {
		t.Fatalf("tsv = %q", buf.String())
	}
}

func TestSamplePoints(t *testing.T) {
	pts := samplePoints(1000, 11)
	if pts[0] != 1 || pts[len(pts)-1] != 1000 {
		t.Fatalf("endpoints = %v", pts)
	}
	pts = samplePoints(3, 10)
	if len(pts) != 3 {
		t.Fatalf("small-n grid = %v", pts)
	}
}

func TestFromTopologyMatchesRatios(t *testing.T) {
	tp := topology.New()
	tp.AddAS(1)
	tp.AddAS(2)
	tp.AddPrefix(1, netip.MustParsePrefix("10.0.0.0/8"))
	tp.AddPrefix(2, netip.MustParsePrefix("11.0.0.0/8"))
	r := FromTopology(tp)
	if r.numASes() != 2 {
		t.Fatal("len")
	}
	x, err := r.of(1)
	if err != nil || math.Abs(x-0.5) > 1e-12 {
		t.Fatalf("Of(1) = %v %v", x, err)
	}
}

// incDPFor returns the DP (and SP) incentive for a specific LAS v:
//
//	inc_DP(D, v) = Σ_{a∈D} p^A_a (1 − p^I_a) = S1 − S2.
//
// It is independent of v.
func incDPFor(a *Accumulator, _ topology.ASN) float64 { return a.s1 - a.s2 }

// incCDPFor returns the CDP (and CSP) incentive for LAS v:
//
//	inc_CDP(D, v) = Σ_{i∈D} p^I_i (1 − p^A_v − p^A_i) = S1 − S2 − r_v·S1.
func incCDPFor(a *Accumulator, v topology.ASN) float64 {
	rv, _ := a.r.of(v)
	return a.s1 - a.s2 - rv*a.s1
}
