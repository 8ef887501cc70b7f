package eval

import (
	"fmt"
	"io"

	"discs/internal/topology"
)

// Point is one sample of a deployment curve.
type Point struct {
	// N is the number of deployers (Figures 6, 7) at this sample.
	N int
	// Ratio is the deployment ratio N/total (Figure 5's x axis).
	Ratio float64
	// Y holds the curve values at this sample, keyed by series name.
	Y map[string]float64
}

// samplePoints returns ~count indices in [1, n], always including 1
// and n, spaced evenly.
func samplePoints(n, count int) []int {
	if n <= 1 {
		// A 1-AS topology has exactly one sample; without this the
		// clamp below forces count to 1 and the spacing divides by
		// zero.
		if n == 1 {
			return []int{1}
		}
		return nil
	}
	if count < 2 {
		count = 2
	}
	if count > n {
		count = n
	}
	out := make([]int, 0, count)
	prev := 0
	for k := 0; k < count; k++ {
		i := 1 + k*(n-1)/(count-1)
		if i != prev {
			out = append(out, i)
			prev = i
		}
	}
	return out
}

// IncentiveCurve walks the deployment order and samples the three
// §VI-A1 incentive series (Figure 5 for one run; Figures 6b/6c for a
// fixed strategy). Series: "DP" (=SP), "CDP" (=CSP), "DP+CDP" (=SP+CSP).
func IncentiveCurve(r *Ratios, order []topology.ASN, samples int) ([]Point, error) {
	acc := NewAccumulator(r)
	marks := samplePoints(len(order), samples)
	var out []Point
	mi := 0
	for k, asn := range order {
		if err := acc.Deploy(asn); err != nil {
			return nil, err
		}
		if mi < len(marks) && k+1 == marks[mi] {
			out = append(out, Point{
				N:     k + 1,
				Ratio: float64(k+1) / float64(len(order)),
				Y: map[string]float64{
					"DP":     acc.IncDP(),
					"CDP":    acc.IncCDP(),
					"DP+CDP": acc.IncBoth(),
				},
			})
			mi++
		}
	}
	return out, nil
}

// MeanIncentiveCurve averages IncentiveCurve over `runs` random
// deployment orders (the paper runs 50, §VI-A2) — this is Figure 5.
func MeanIncentiveCurve(r *Ratios, runs, samples int, seed int64) ([]Point, error) {
	var mean []Point
	for run := 0; run < runs; run++ {
		pts, err := IncentiveCurve(r, r.randomOrder(seed+int64(run)), samples)
		if err != nil {
			return nil, err
		}
		if mean == nil {
			mean = make([]Point, len(pts))
			for i, p := range pts {
				mean[i] = Point{N: p.N, Ratio: p.Ratio, Y: map[string]float64{}}
			}
		}
		if len(pts) != len(mean) {
			return nil, fmt.Errorf("eval: sample grid changed between runs")
		}
		for i, p := range pts {
			for k, v := range p.Y {
				mean[i].Y[k] += v / float64(runs)
			}
		}
	}
	return mean, nil
}

// EffectivenessCurve samples the §VI-B global-spoofing reduction along
// a deployment order (Figure 7).
func EffectivenessCurve(r *Ratios, order []topology.ASN, samples int) ([]Point, error) {
	acc := NewAccumulator(r)
	marks := samplePoints(len(order), samples)
	var out []Point
	mi := 0
	for k, asn := range order {
		if err := acc.Deploy(asn); err != nil {
			return nil, err
		}
		if mi < len(marks) && k+1 == marks[mi] {
			out = append(out, Point{
				N:     k + 1,
				Ratio: float64(k+1) / float64(len(order)),
				Y:     map[string]float64{"effectiveness": acc.Effectiveness()},
			})
			mi++
		}
	}
	return out, nil
}

// CumulativeRatioCurve samples Figure 6a: the cumulated address-space
// ratio along a deployment order.
func CumulativeRatioCurve(r *Ratios, order []topology.ASN, samples int) []Point {
	cum := r.cumulativeRatio(order)
	marks := samplePoints(len(order), samples)
	out := make([]Point, 0, len(marks))
	for _, m := range marks {
		out = append(out, Point{
			N:     m,
			Ratio: float64(m) / float64(len(order)),
			Y:     map[string]float64{"cumulated": cum[m-1]},
		})
	}
	return out
}

// StrategyCurves evaluates fn under the three §VI-A3 strategies —
// optimal (largest first), random, and the uniform hypothetical — and
// returns the per-strategy series. fn is applied to (ratios, order).
func StrategyCurves(r *Ratios, samples int, seed int64,
	fn func(r *Ratios, order []topology.ASN, samples int) ([]Point, error)) (map[string][]Point, error) {
	out := make(map[string][]Point, 3)
	var err error
	if out["optimal"], err = fn(r, r.OptimalOrder(), samples); err != nil {
		return nil, err
	}
	if out["random"], err = fn(r, r.randomOrder(seed), samples); err != nil {
		return nil, err
	}
	uni := uniform(r.numASes())
	if out["uniform"], err = fn(uni, uni.ASNs, samples); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteTSV dumps points as a tab-separated table with a header, the
// format cmd/discs-eval prints for every figure.
func WriteTSV(w io.Writer, series []string, pts []Point) error {
	if _, err := fmt.Fprint(w, "n\tratio"); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "\t%s", s); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%d\t%.6f", p.N, p.Ratio); err != nil {
			return err
		}
		for _, s := range series {
			if _, err := fmt.Fprintf(w, "\t%.6f", p.Y[s]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
