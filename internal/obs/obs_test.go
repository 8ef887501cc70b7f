package obs

import (
	"bytes"
	"net/netip"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.hits")
	if c != r.Counter("x.hits") {
		t.Fatal("Counter is not idempotent by name")
	}
	c.Inc()
	c.Add(41)
	if v := c.Value(); v != 42 {
		t.Fatalf("Value = %d, want 42", v)
	}
	if s := r.Snapshot(); s.Get("x.hits") != 42 {
		t.Fatalf("snapshot = %d, want 42", s.Get("x.hits"))
	}
}

func TestCounterConcurrentSum(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if v := c.Value(); v != workers*per {
		t.Fatalf("Value = %d, want %d", v, workers*per)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if v := g.Value(); v != 4 {
		t.Fatalf("gauge = %d, want 4", v)
	}
	if s := r.Snapshot(); s.GetGauge("depth") != 4 {
		t.Fatalf("snapshot gauge = %d", s.GetGauge("depth"))
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 99, 100, 101, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	want := []uint64{2, 3, 2} // ≤10, ≤100, +Inf
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
}

func TestScopeAndSnapshotPrefix(t *testing.T) {
	r := NewRegistry()
	s1 := r.Scope("as1.")
	s2 := r.Scope("as2.")
	s1.Counter("router.out").Add(3)
	s2.Counter("router.out").Add(4)
	s1.Counter("ctrl.msgs").Add(9)

	snap := r.SnapshotPrefix("as1.", "as1.")
	if snap.Get("router.out") != 3 || snap.Get("ctrl.msgs") != 9 {
		t.Fatalf("scoped snapshot wrong: %v", snap.Counters)
	}
	if _, ok := snap.Counters["as2.router.out"]; ok {
		t.Fatal("scope leaked foreign metrics")
	}
	full := r.Snapshot()
	if got := full.Sum("router.out"); got != 7 {
		t.Fatalf("Sum = %d, want 7", got)
	}
	ctrlOnly := r.SnapshotPrefix("as1.ctrl.", "as1.")
	if ctrlOnly.Get("ctrl.msgs") != 9 || len(ctrlOnly.Counters) != 1 {
		t.Fatalf("prefix snapshot wrong: %v", ctrlOnly.Counters)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	c.Add(5)
	prev := r.Snapshot()
	c.Add(3)
	d := r.Snapshot().Delta(prev)
	if d.Get("n") != 3 {
		t.Fatalf("delta = %d, want 3", d.Get("n"))
	}
}

func TestClockStampsSnapshotsAndEvents(t *testing.T) {
	r := NewRegistry()
	var now int64 = 42e9
	r.SetClock(func() int64 { return now })
	if s := r.Snapshot(); s.AtNanos != 42e9 {
		t.Fatalf("snapshot at %d", s.AtNanos)
	}
	tr := r.Tracer()
	tr.Emit(Event{Kind: EvPeerEstablished, AS: 1, Peer: 2})
	now = 43e9
	tr.Emit(Event{Kind: EvPeerDead, AS: 1, Peer: 2})
	evs := tr.Events()
	if len(evs) != 2 || evs[0].At != 42e9 || evs[1].At != 43e9 {
		t.Fatalf("events %+v", evs)
	}
}

func TestTracerRingWrap(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(4)
	tr := r.Tracer()
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: EvPacketSample, Serial: uint64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Serial != uint64(6+i) {
			t.Fatalf("retained wrong window: %+v", evs)
		}
	}
	if tr.dropped() != 6 || tr.total != 10 {
		t.Fatalf("dropped %d total %d", tr.dropped(), tr.total)
	}
}

func TestExportRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(3)
	r.Gauge("g").Set(-2)
	r.Tracer().Emit(Event{Kind: EvCampaignInvoke, AS: 7, Serial: 9,
		Src: netip.MustParseAddr("10.0.0.1")})
	rec := NewRecorder()
	rec.Record(r.Snapshot())
	r.Counter("a.b").Add(1)
	rec.Record(r.Snapshot())

	exp := NewExport("test", r, rec, 1e9)
	var buf bytes.Buffer
	if err := exp.writeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readExport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Final.Get("a.b") != 4 || len(got.Points) != 2 || len(got.Events) != 1 {
		t.Fatalf("round trip mangled export: %+v", got)
	}
	if got.Points[0].Get("a.b") != 3 || got.Points[1].Get("a.b") != 4 {
		t.Fatalf("points wrong: %+v", got.Points)
	}
	if e := got.Events[0]; e.Kind != EvCampaignInvoke || e.AS != 7 || e.Serial != 9 ||
		e.Src != netip.MustParseAddr("10.0.0.1") {
		t.Fatalf("event mangled: %+v", e)
	}
}

// TestEmitNoAlloc pins the zero-allocation contract of the sampled
// data-plane tracing path: recording a flat Event must not allocate.
func TestEmitNoAlloc(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer()
	src := netip.MustParseAddr("10.1.0.10")
	dst := netip.MustParseAddr("10.3.0.1")
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: EvPacketSample, Verdict: "drop", Src: src, Dst: dst})
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %.1f/op, want 0", allocs)
	}
}

// TestCounterAddNoAlloc pins the hot-path contract for counters.
func TestCounterAddNoAlloc(t *testing.T) {
	c := NewRegistry().Counter("c")
	allocs := testing.AllocsPerRun(1000, func() { c.Add(1) })
	if allocs != 0 {
		t.Fatalf("Add allocates %.1f/op, want 0", allocs)
	}
}

// TestCounterBlock: a block's counters are registry counters like any
// other — by name, in snapshots, through Absorb — and a block Add lands
// in the named counters; a counter registered before its block keeps
// its value and its handle.
func TestCounterBlock(t *testing.T) {
	r := NewRegistry()
	early := r.Counter("as1.b")
	early.Add(5)
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"} // wider than one line
	b := r.Scope("as1.").CounterBlock(names...)
	if again := r.Scope("as1.").CounterBlock(names...); again != b {
		t.Fatal("same names gave a second block")
	}
	if r.Counter("as1.b") != early || b.Counter(1) != early {
		t.Fatal("the early handle is not the block's counter")
	}
	deltas := make([]uint64, len(names))
	for i := range deltas {
		deltas[i] = uint64(i)
	}
	b.Add(deltas)
	b.Add(deltas[:3])
	early.Inc()
	r.Absorb(Snapshot{Counters: map[string]uint64{"as1.i": 100}})
	snap := r.Snapshot()
	for i, name := range names {
		want := uint64(i)
		if i < 3 {
			want *= 2
		}
		switch name {
		case "b":
			want += 5 + 1
		case "i":
			want += 100
		}
		if got := snap.Counters["as1."+name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
		if got := b.Counter(i).Value(); got != want {
			t.Errorf("Counter(%d).Value() = %d, want %d", i, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a name of another block joined a second block")
		}
	}()
	r.counterBlock("as1.a", "z")
}
