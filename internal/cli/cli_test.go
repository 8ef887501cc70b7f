package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"discs/internal/obs"
)

func TestStripScope(t *testing.T) {
	cases := map[string]string{
		"as7.ctrl.msgs_sent":      "ctrl.msgs_sent",
		"as1001.router.in_cached": "router.in_cached",
		"netsim.delivered":        "netsim.delivered",
		"asX.ctrl.msgs_sent":      "asX.ctrl.msgs_sent", // not a numeric scope
		"as.ctrl.msgs_sent":       "as.ctrl.msgs_sent",
		"assorted.thing":          "assorted.thing",
	}
	for in, want := range cases {
		if got := stripScope(in); got != want {
			t.Errorf("stripScope(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAggregateScopes(t *testing.T) {
	s := obs.Snapshot{
		AtNanos: 42,
		Counters: map[string]uint64{
			"as1.router.out_processed": 3,
			"as2.router.out_processed": 4,
			"netsim.delivered":         9,
		},
		Gauges: map[string]int64{
			"as1.ctrl.peers_established": 2,
			"as2.ctrl.peers_established": 1,
		},
	}
	agg := AggregateScopes(s)
	if agg.AtNanos != 42 {
		t.Fatalf("timestamp not carried: %d", agg.AtNanos)
	}
	if got := agg.Get("router.out_processed"); got != 7 {
		t.Fatalf("aggregated counter = %d, want 7", got)
	}
	if got := agg.Get("netsim.delivered"); got != 9 {
		t.Fatalf("unscoped counter = %d, want 9", got)
	}
	if got := agg.GetGauge("ctrl.peers_established"); got != 3 {
		t.Fatalf("aggregated gauge = %d, want 3", got)
	}
}

func TestWriteSeriesTSV(t *testing.T) {
	points := []obs.Snapshot{
		{AtNanos: 1e9, Counters: map[string]uint64{"as1.x.n": 2, "as2.x.n": 1}},
		{AtNanos: 2e9, Counters: map[string]uint64{"as1.x.n": 5, "as2.x.n": 1}},
	}
	var b strings.Builder
	if err := WriteSeriesTSV(&b, points, []string{"x.n"}); err != nil {
		t.Fatal(err)
	}
	want := "t_s\tx.n\n1.000\t3\n2.000\t3\n"
	if b.String() != want {
		t.Fatalf("series:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("A", "B")
	tb.Row("1", "2")
	tb.Row("only") // short row pads
	var b strings.Builder
	if err := tb.Write(&b); err != nil {
		t.Fatal(err)
	}
	want := "| A | B |\n|---|---|\n| 1 | 2 |\n| only |  |\n"
	if b.String() != want {
		t.Fatalf("table:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	pf := &ProfileFlags{CPU: filepath.Join(dir, "cpu.out"), Mem: filepath.Join(dir, "mem.out")}
	finish, err := pf.start()
	if err != nil {
		t.Fatal(err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{pf.CPU, pf.Mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (stat: %v)", path, err)
		}
	}

	// No flag set: nothing to start, nothing to write.
	finish, err = (&ProfileFlags{}).start()
	if err != nil || finish() != nil {
		t.Fatalf("idle profile flags failed: %v", err)
	}

	// An unwritable path is reported when it is hit: the CPU profile at
	// start, the heap profile at the end.
	missing := filepath.Join(dir, "no-such-dir", "p.out")
	if _, err := (&ProfileFlags{CPU: missing}).start(); err == nil {
		t.Error("unwritable -cpuprofile accepted")
	}
	finish, err = (&ProfileFlags{Mem: missing}).start()
	if err != nil {
		t.Fatal(err)
	}
	if finish() == nil {
		t.Error("unwritable -memprofile not reported")
	}
}
