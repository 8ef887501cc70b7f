package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// -repeat-check answers "can this benchmark tell a regression from its
// own noise": it runs two full sets the way the benchmark driver does,
// one fresh process per run and a different seed per run, and prints
// for every gated metric the two medians, how much worse the second is
// than the first, and each set's quartile spread, all beside the bound.

// exactCounts are the program counters that must repeat exactly from
// one traced run to the next with the same seed.
var exactCounts = []string{
	"core.out_stamped", "core.in_verify_fail", "core.macs_per_pkt",
	"parsim.epochs", "core.ctrl_msgs", "scenario.packets",
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the benchmark driver computes its spreads with.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	if med := median(vals); med != 0 {
		return (q3 - q1) / med
	}
	return 0
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative means better.
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// childRun runs one workload in a fresh process and returns every
// metric it measured.
func childRun(workload string, seed int64, seconds float64, traced bool) (map[string]float64, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(os.Args[0], "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-all-metrics")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line driverLine
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, line.Failed, line.Attempted)
	}
	vals := make(map[string]float64, len(line.Metrics))
	for name, mv := range line.Metrics {
		vals[name] = mv.Value
	}
	return vals, nil
}

// repeatReport runs the two sets and prints the table; it returns false
// if any gated metric fails its bound.
func repeatReport(w io.Writer, only string, seed int64, seconds float64, runs int) bool {
	st := readEnvStamp()
	fmt.Fprintf(w, "repeat check: 2 sets x %d untraced runs (seeds %d..%d) + 1 traced run (seed %d) per workload, %v s each\n",
		runs, seed, seed+int64(runs)-1, seed, seconds)
	fmt.Fprintf(w, "nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s\n", st.NProc, st.GOMAXPROCS, st.GoVersion, st.Kernel, st.Commit)
	ok := true
	for _, wl := range workloads {
		if only != "" && wl.Name != only {
			continue
		}
		var sets [2]map[string][]float64
		var traced [2]map[string]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < runs; i++ {
				vals, err := childRun(wl.Name, seed+int64(i), seconds, false)
				if err != nil {
					fmt.Fprintln(w, "FAIL", err)
					return false
				}
				for name, v := range vals {
					sets[s][name] = append(sets[s][name], v)
				}
			}
			var err error
			if traced[s], err = childRun(wl.Name, seed, seconds, true); err != nil {
				fmt.Fprintln(w, "FAIL", err)
				return false
			}
		}
		fmt.Fprintf(w, "\n%s\n  %-24s %12s %12s %8s %9s %9s %6s\n", wl.Name,
			"metric", "median A", "median B", "B worse", "spread A", "spread B", "bound")
		for _, m := range catalog {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if m.Bound == 0 || len(a) == 0 {
				continue
			}
			gap := worsening(m, median(a), median(b))
			sa, sb := spread(a), spread(b)
			verdict := ""
			// setup_s answers to its medians only: a set-up is too short
			// for its spread to mean much. Only end-to-end metrics gate;
			// a headline is shown against the bound the issue wished for.
			if gap > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				if m.E2E {
					verdict = "  OUT OF BOUND"
					ok = false
				} else {
					verdict = "  (over the issue's bound; per-layer, not gated)"
				}
			}
			fmt.Fprintf(w, "  %-24s %12.5g %12.5g %+7.1f%% %8.1f%% %8.1f%% %6.2f%s\n",
				m.Name, median(a), median(b), 100*gap, 100*sa, 100*sb, m.Bound, verdict)
		}
		for _, name := range exactCounts {
			a, had := traced[0][name]
			if !had {
				continue
			}
			verdict := "identical"
			if b := traced[1][name]; a != b {
				verdict = fmt.Sprintf("DIFFERS: %v", b)
				ok = false
			}
			fmt.Fprintf(w, "  %-24s %12.8g   exact count, traced runs: %s\n", name, a, verdict)
		}
		fmt.Fprintf(w, "  trace.overhead_ratio     %12.4g %12.4g\n", traced[0]["trace.overhead_ratio"], traced[1]["trace.overhead_ratio"])
	}
	return ok
}
