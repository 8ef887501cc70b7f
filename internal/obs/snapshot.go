package obs

import (
	"sort"
	"strings"
)

// Snapshot is a point-in-time view of a registry (or a scope of one),
// stamped with the registry clock — simulated time in this
// repository. It is the single stats currency every subsystem's
// Stats() method returns.
type Snapshot struct {
	AtNanos    int64                   `json:"t_ns"`
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Get returns the named counter's value (0 if absent).
func (s Snapshot) Get(name string) uint64 { return s.Counters[name] }

// GetGauge returns the named gauge's value (0 if absent).
func (s Snapshot) GetGauge(name string) int64 { return s.Gauges[name] }

// Sum adds up every counter whose name ends with suffix — the
// fleet-wide aggregation over per-scope metrics (e.g. summing
// "router.out_processed" across every "asN." scope).
func (s Snapshot) Sum(suffix string) uint64 {
	var t uint64
	for name, v := range s.Counters {
		if strings.HasSuffix(name, suffix) {
			t += v
		}
	}
	return t
}

// Delta returns s minus prev, counter-wise (gauges and histograms
// keep s's values; counters absent from prev pass through). Interval
// exporters use it to turn cumulative counters into per-interval
// rates.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{AtNanos: s.AtNanos, Counters: make(map[string]uint64, len(s.Counters)),
		Gauges: s.Gauges, Histograms: s.Histograms}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	return d
}

// Names returns the counter names in sorted order — deterministic
// iteration for reports and tests.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
