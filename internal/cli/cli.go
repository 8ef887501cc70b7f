// Package cli holds the flag and output plumbing shared by the cmd/
// binaries: logger setup, the synthetic-Internet flag block, the
// profiling flags, markdown table rendering, and views over the
// observability export that discs-sim writes (see internal/obs).
package cli

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"discs/internal/obs"
	"discs/internal/topology"
)

// Init configures the standard logger the way every discs binary does:
// no timestamps, the binary's name as prefix.
func Init(name string) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
}

// TopoFlags is the flag block shared by every binary that generates a
// synthetic Internet: -ases, -prefixes, -zipf and -seed.
type TopoFlags struct {
	ASes     int
	Prefixes int
	Zipf     float64
	Seed     int64
}

// RegisterTopoFlags installs the shared topology flags on the default
// flag set, with defaults taken from base.
func RegisterTopoFlags(base topology.GenConfig) *TopoFlags {
	tf := &TopoFlags{}
	flag.IntVar(&tf.ASes, "ases", base.NumASes, "number of ASes in the synthetic Internet")
	flag.IntVar(&tf.Prefixes, "prefixes", base.NumPrefixes, "target number of routable prefixes")
	flag.Float64Var(&tf.Zipf, "zipf", base.ZipfExponent, "Zipf exponent of the AS size distribution")
	flag.Int64Var(&tf.Seed, "seed", base.Seed, "generator seed")
	return tf
}

// Config overlays the parsed flag values onto base, leaving every
// other generator knob (tier-1 count, head/tail shape, SkipLinks)
// as the caller set it.
func (tf *TopoFlags) Config(base topology.GenConfig) topology.GenConfig {
	base.NumASes = tf.ASes
	base.NumPrefixes = tf.Prefixes
	base.ZipfExponent = tf.Zipf
	base.Seed = tf.Seed
	return base
}

// Build generates the synthetic Internet described by the parsed flags
// overlaid on base.
func (tf *TopoFlags) Build(base topology.GenConfig) (*topology.Topology, error) {
	return topology.GenerateInternet(tf.Config(base))
}

// ConfigSet overlays only the topology flags the user explicitly set
// on the command line onto base, leaving everything else — including
// the four flagged knobs at their base values — untouched. Mode flags
// like discs-sim -paper use this: the mode picks its own defaults
// (DefaultGenConfig) and an explicit -ases/-seed still wins.
func (tf *TopoFlags) ConfigSet(base topology.GenConfig) topology.GenConfig {
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "ases":
			base.NumASes = tf.ASes
		case "prefixes":
			base.NumPrefixes = tf.Prefixes
		case "zipf":
			base.ZipfExponent = tf.Zipf
		case "seed":
			base.Seed = tf.Seed
		}
	})
	return base
}

// ProfileFlags is the flag block shared by every binary built on this
// package: -cpuprofile and -memprofile, the pprof files `go tool pprof`
// reads.
type ProfileFlags struct {
	CPU string
	Mem string
}

// RegisterProfileFlags installs the profiling flags on the default
// flag set.
func RegisterProfileFlags() *ProfileFlags {
	pf := &ProfileFlags{}
	flag.StringVar(&pf.CPU, "cpuprofile", "", "write a CPU profile of the whole run to this path")
	flag.StringVar(&pf.Mem, "memprofile", "", "write a heap profile, taken when the run ends, to this path")
	return pf
}

// Start begins the requested profiles and returns the function that
// finishes them; call it after flag.Parse and defer the result. Like
// every other failure in a discs binary, a profile that cannot be
// written is fatal. A run that ends in log.Fatal leaves no profile.
func (pf *ProfileFlags) Start() (stop func()) {
	finish, err := pf.start()
	if err != nil {
		log.Fatal(err)
	}
	return func() {
		if err := finish(); err != nil {
			log.Fatal(err)
		}
	}
}

func (pf *ProfileFlags) start() (finish func() error, err error) {
	var cpu *os.File
	if pf.CPU != "" {
		if cpu, err = os.Create(pf.CPU); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if pf.Mem == "" {
			return nil
		}
		mem, err := os.Create(pf.Mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // so the profile shows what is live, not what is garbage
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := mem.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}

// Table accumulates rows and renders a GitHub-markdown table — the
// output format of discs-report.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table { return &Table{headers: headers} }

// Row appends one row; missing cells render empty.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// Write renders the table.
func (t *Table) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.headers, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "|%s|\n", strings.Join(sep, "|")); err != nil {
		return err
	}
	for _, row := range t.rows {
		cells := make([]string, len(t.headers))
		copy(cells, row)
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
			return err
		}
	}
	return nil
}

// Seconds converts a simulated-time stamp (nanoseconds) to seconds.
func Seconds(ns int64) float64 { return float64(ns) / 1e9 }

// AggregateScopes folds per-AS scoped counters ("as7.ctrl.msgs_sent")
// into fleet-wide totals keyed by the bare metric name ("ctrl.msgs_sent"),
// leaving unscoped names (netsim.*) untouched. Gauges aggregate the
// same way. The result is the fleet view discs-report renders.
func AggregateScopes(s obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{
		AtNanos:  s.AtNanos,
		Counters: make(map[string]uint64, len(s.Counters)),
	}
	for name, v := range s.Counters {
		out.Counters[stripScope(name)] += v
	}
	if len(s.Gauges) > 0 {
		out.Gauges = make(map[string]int64, len(s.Gauges))
		for name, v := range s.Gauges {
			out.Gauges[stripScope(name)] += v
		}
	}
	return out
}

// stripScope removes a leading "as<digits>." scope, if present.
func stripScope(name string) string {
	if !strings.HasPrefix(name, "as") {
		return name
	}
	rest := name[2:]
	dot := strings.IndexByte(rest, '.')
	if dot <= 0 {
		return name
	}
	for _, c := range rest[:dot] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return rest[dot+1:]
}

// WriteSeriesTSV renders the recorded time series as TSV: a t_s column
// followed by one column per requested metric. Each row is the
// per-interval delta (the first row is since the start), with scoped
// counters summed fleet-wide, so the columns read as rates.
func WriteSeriesTSV(w io.Writer, points []obs.Snapshot, cols []string) error {
	if _, err := fmt.Fprintf(w, "t_s\t%s\n", strings.Join(cols, "\t")); err != nil {
		return err
	}
	var prev obs.Snapshot
	for _, p := range points {
		d := p.Delta(prev)
		cells := make([]string, 0, len(cols)+1)
		cells = append(cells, fmt.Sprintf("%.3f", Seconds(p.AtNanos)))
		for _, c := range cols {
			cells = append(cells, fmt.Sprintf("%d", d.Sum(c)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, "\t")); err != nil {
			return err
		}
		prev = p
	}
	return nil
}

// KindCount is one entry of an event-kind tally.
type KindCount struct {
	Kind string
	N    int
}

// EventCounts tallies events by kind, sorted by kind name for
// deterministic output.
func EventCounts(events []obs.Event) []KindCount {
	m := make(map[string]int)
	for _, e := range events {
		m[e.Kind]++
	}
	out := make([]KindCount, 0, len(m))
	for k, n := range m {
		out = append(out, KindCount{Kind: k, N: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}
