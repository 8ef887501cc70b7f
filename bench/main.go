// Command bench is the repository's one benchmark: six named workloads
// over the DISCS data plane, the live service fleet and the simulator,
// each checked against an oracle, each reporting the end-to-end metrics
// of BENCHMARK.json and, on a traced run, a per-layer ledger. README.md
// in this directory is the glossary and the rules for changing it.
//
//	go run ./bench                                   every workload, untraced then traced
//	go run ./bench -workload router-hostile          one workload
//	go run ./bench -workload sim-paper -trace 1 -trace-out spans.json
//	go run ./bench -repeat-check                     two run sets, medians and spreads beside the bounds
//
// With -workload the last line of standard output is the JSON object
// the benchmark driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload    = flag.String("workload", "", "run one workload (default: all six, untraced then traced)")
		seed        = flag.Int64("seed", 1, "seed for every input generator")
		seconds     = flag.Float64("seconds", 10, "measuring time per run; fixed-size rounds repeat until it has passed")
		trace       = flag.Int("trace", 0, "1 = traced run: record spans around each layer and report the per-layer metrics")
		traceOut    = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON")
		repeatCheck = flag.Bool("repeat-check", false, "run two sets of -runs runs per workload and print each metric's medians, gap and spread beside its bound")
		runs        = flag.Int("runs", 10, "with -repeat-check: runs per set, each with its own seed")
		manifest    = flag.Bool("manifest", false, "print BENCHMARK.json for this catalog and exit")
		baselineOut = flag.String("baseline-out", "", "with no -workload: also write the environment stamp and every number to this file")
		allMetrics  = flag.Bool("all-metrics", false, "with -workload: put every measured metric in the result line, not the driver's selection (-repeat-check reads it)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	switch {
	case *manifest:
		if err := writeManifest(os.Stdout); err != nil {
			fatal(err)
		}
	case *repeatCheck:
		if !repeatReport(os.Stdout, *workload, *seed, *seconds, *runs) {
			os.Exit(1)
		}
	case *workload != "":
		os.Exit(runOne(*workload, *seed, *seconds, *trace != 0, *traceOut, *allMetrics))
	default:
		os.Exit(runAll(*seed, *seconds, *baselineOut))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func printStamp(st envStamp, seed int64) {
	fmt.Printf("environment: nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s, seed %d\n",
		st.NProc, st.GOMAXPROCS, st.GoVersion, st.Kernel, st.Commit, seed)
	fmt.Printf("network: %s\n", st.Network)
	fmt.Printf("fleet-attack-mix offered rate: %.2f Mpps (fixed)\n", attackMixMpps)
}

// execute runs one workload once, traced or not.
func execute(w workloadDef, seed int64, seconds float64, traced bool) (*result, *tracer, error) {
	cfg := runConfig{seed: seed, seconds: seconds, scale: 1, log: os.Stdout}
	if traced {
		cfg.tracer = newTracer()
	}
	res, err := w.Run(cfg)
	return res, cfg.tracer, err
}

// printResult lists, in catalog order, every metric the run measured.
func printResult(w workloadDef, res *result, traced bool) {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	fmt.Printf("%s (%s): %d operations attempted, %d failed, %d of them wrong\n", w.Name, kind, res.attempted, res.failed, res.wrong)
	for _, n := range res.notes {
		fmt.Printf("  ORACLE: %s\n", n)
	}
	for _, m := range catalog {
		v, ok := res.m[m.Name]
		if !ok {
			continue
		}
		gate := ""
		if m.Bound > 0 {
			gate = fmt.Sprintf("  (%s is better, bound %.2f)", m.Better, m.Bound)
		}
		fmt.Printf("  %-30s %14.6g %-6s%s\n", m.Name, v, m.Unit, gate)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the object the benchmark driver reads from the last
// line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverMetrics picks what the driver wants from a run: every
// end-to-end metric from an untraced run, every per-layer metric from a
// traced one. A per-layer metric the workload has no such layer for
// reads 0; an end-to-end metric that is missing or 0 is a harness bug.
// With all set it is every metric the run measured instead.
func driverMetrics(res *result, traced, all bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue)
	for _, m := range catalog {
		v, measured := res.m[m.Name]
		if all {
			if measured {
				out[m.Name] = metricValue{v, m.Unit}
			}
			continue
		}
		if m.E2E == traced {
			continue
		}
		if m.E2E && v == 0 {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{v, m.Unit}
	}
	return out, nil
}

// runDeadline is how long one -workload run may take at most.
const runDeadline = 170 * time.Second

func runOne(name string, seed int64, seconds float64, traced bool, traceOut string, all bool) int {
	w, ok := workloadByName(name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", name, names)
		return 2
	}
	// The driver gives a run 180 s; a run that is still going by then is
	// wedged, and a wedged run must end as a failure, not as a hang.
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "bench: %s did not finish within %v\n", name, runDeadline)
		os.Exit(1)
	})
	defer watchdog.Stop()
	printStamp(readEnvStamp(), seed)
	fmt.Printf("%s: %s\n", w.Name, w.Why)
	correct, err := report(w, seed, seconds, traced, traceOut, all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if err != nil || !correct {
		return 1
	}
	return 0
}

// report runs the workload, prints what it measured and, last, the
// driver's line; it returns whether the run was correct.
func report(w workloadDef, seed int64, seconds float64, traced bool, traceOut string, all bool) (bool, error) {
	res, tr, err := execute(w, seed, seconds, traced)
	if err != nil {
		return false, err
	}
	printResult(w, res, traced)
	if traced && traceOut != "" {
		if err := tr.writeFile(traceOut, w.Name, seed); err != nil {
			return false, err
		}
	}
	metrics, err := driverMetrics(res, traced, all)
	if err != nil {
		return false, err
	}
	line, err := json.Marshal(driverLine{
		Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: metrics,
	})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.correct(), nil
}

// baselineFile is what -baseline-out writes: where the numbers were
// taken and what they were.
type baselineFile struct {
	Env           envStamp                      `json:"environment"`
	Seed          int64                         `json:"seed"`
	Seconds       float64                       `json:"seconds"`
	AttackMixMpps float64                       `json:"fleet_attack_mix_offered_mpps"`
	Why           map[string]string             `json:"why"`
	Untraced      map[string]map[string]float64 `json:"untraced"`
	Traced        map[string]map[string]float64 `json:"traced"`
}

func runAll(seed int64, seconds float64, baselineOut string) int {
	st := readEnvStamp()
	printStamp(st, seed)
	base := baselineFile{
		Env: st, Seed: seed, Seconds: seconds, AttackMixMpps: attackMixMpps,
		Why:      make(map[string]string),
		Untraced: make(map[string]map[string]float64),
		Traced:   make(map[string]map[string]float64),
	}
	code := 0
	for _, w := range workloads {
		fmt.Printf("\n== %s: %s\n", w.Name, w.Why)
		base.Why[w.Name] = w.Why
		for _, traced := range []bool{false, true} {
			res, _, err := execute(w, seed, seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printResult(w, res, traced)
			if !res.correct() {
				code = 1
			}
			if traced {
				base.Traced[w.Name] = res.m
			} else {
				base.Untraced[w.Name] = res.m
			}
		}
		// Both runs are in hand here, so the tracing overhead can be
		// stated as their difference on the workload's own cost metric.
		u, t := base.Untraced[w.Name], base.Traced[w.Name]
		fmt.Printf("  traced/untraced: cpu_us_per_pkt %.3f, total_s %.3f\n",
			t["cpu_us_per_pkt"]/u["cpu_us_per_pkt"], t["total_s"]/u["total_s"])
	}
	if baselineOut != "" {
		b, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(baselineOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	return code
}

// manifestFile mirrors BENCHMARK.json's exact key set.
type manifestFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWhy    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// manifestRunSeconds is BENCHMARK.json's run_seconds: the -seconds the
// driver passes, and the default here.
const manifestRunSeconds = 10

func buildManifest() manifestFile {
	mf := manifestFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: manifestRunSeconds,
	}
	for _, w := range workloads {
		mf.Workloads = append(mf.Workloads, manifestWhy{w.Name, w.Why})
	}
	for _, m := range catalog {
		mm := manifestMetric{Name: m.Name, Unit: m.Unit, Better: m.Better}
		if m.E2E {
			b := m.Bound
			mm.Bound = &b
			mf.EndToEnd = append(mf.EndToEnd, mm)
		} else {
			mf.PerLayer = append(mf.PerLayer, mm)
		}
	}
	return mf
}

func writeManifest(w *os.File) error {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
