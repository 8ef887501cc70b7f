package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"discs/internal/obs"
	"discs/internal/scenario"
	"discs/internal/topology"
)

func TestDefaultSpecParses(t *testing.T) {
	spec, err := scenario.Parse(defaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, ph := range spec.Phases {
		kinds = append(kinds, string(ph.Kind))
	}
	if got, want := strings.Join(kinds, ","), "pulse,invoke,pulse,pulse,legit"; got != want {
		t.Fatalf("default campaign phases %s, want %s", got, want)
	}
}

// smallRun runs the default campaign on a small generated world and
// returns its report and observability export.
func smallRun(t *testing.T, workers int) (string, *obs.Export) {
	t.Helper()
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	var out strings.Builder
	err := run(&out, config{
		gen: topology.GenConfig{NumASes: 120, NumPrefixes: 360, ZipfExponent: 1, Seed: 1, TierOneCount: 5},
		das: 8, workers: workers, metrics: metrics, interval: time.Second, sample: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := obs.ReadExportFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	return strings.ReplaceAll(out.String(), metrics, "<metrics>"), ex
}

// reportedDrops parses the drop report's rows into AS → {egress, ingress}.
func reportedDrops(t *testing.T, report string) map[topology.ASN][2]uint64 {
	t.Helper()
	_, table, ok := strings.Cut(report, "drops by DAS border router over the campaign:\n")
	if !ok {
		t.Fatalf("no drop report in:\n%s", report)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	rows := make(map[topology.ASN][2]uint64)
	for _, line := range strings.Split(table, "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[0], "AS") {
			t.Fatalf("bad drop row %q", line)
		}
		var v [3]uint64
		for i, s := range []string{strings.TrimPrefix(f[0], "AS"), f[1], f[2]} {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				t.Fatalf("bad drop row %q: %v", line, err)
			}
			v[i] = n
		}
		rows[topology.ASN(v[0])] = [2]uint64{v[1], v[2]}
	}
	return rows
}

// TestDefaultRunReportsRouterCounters runs the default campaign at one
// and at two workers: the reports must agree except for the engine
// banner, and every drop-report row must equal that AS's router drop
// counters in the same run's export (the world sends no data traffic
// before the campaign, so the deltas are the totals).
func TestDefaultRunReportsRouterCounters(t *testing.T) {
	var reports []string
	for _, workers := range []int{1, 2} {
		report, ex := smallRun(t, workers)
		rows := reportedDrops(t, report)
		if len(rows) == 0 {
			t.Fatalf("workers=%d: the campaign dropped nothing:\n%s", workers, report)
		}
		want := make(map[topology.ASN][2]uint64)
		for name, v := range ex.Final.Counters {
			var asn topology.ASN
			var ctr string
			if _, err := fmt.Sscanf(name, "as%d.%s", &asn, &ctr); err != nil || v == 0 {
				continue
			}
			d := want[asn]
			switch ctr {
			case "router.out_dropped":
				d[0] = v
			case "router.in_dropped":
				d[1] = v
			default:
				continue
			}
			want[asn] = d
		}
		if fmt.Sprint(rows) != fmt.Sprint(want) {
			t.Errorf("workers=%d: drop report %v, router counters %v", workers, rows, want)
		}
		banner, rest, _ := strings.Cut(report, "\n")
		if !strings.HasPrefix(banner, "parsim engine:") {
			t.Fatalf("first line %q is not the engine banner", banner)
		}
		reports = append(reports, rest)
	}
	if reports[0] != reports[1] {
		t.Fatalf("reports differ across worker counts:\n--- workers=1\n%s\n--- workers=2\n%s", reports[0], reports[1])
	}
}
