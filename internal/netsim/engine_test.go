package netsim

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"discs/internal/obs"
)

// buildPair wires two nodes in different shards with a 1ms link.
func buildPair(t *testing.T, workers int) (*Simulator, *Engine, *Node, *Node, *Link) {
	t.Helper()
	s := New()
	a, err := s.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AddNode("b")
	if err != nil {
		t.Fatal(err)
	}
	a.SetShard(0)
	b.SetShard(1)
	l, err := s.Connect(a, b, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Relane(Options{Shards: 4, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return s, e, a, b, l
}

func TestCrossShardPingPong(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, _, a, b, _ := buildPair(t, workers)
			const rounds = 50
			got := 0
			var lastAt Time
			bounce := func(self, peer *Node) HandlerFunc {
				return func(from *Node, l *Link, msg Message) {
					got++
					lastAt = self.Now()
					if got < rounds {
						self.SendTo(peer, Bytes{1})
					}
				}
			}
			a.SetHandler(bounce(a, b))
			b.SetHandler(bounce(b, a))
			a.SendTo(b, Bytes{1})
			if _, err := s.RunAll(); err != nil {
				t.Fatal(err)
			}
			if got != rounds {
				t.Fatalf("bounced %d, want %d", got, rounds)
			}
			if want := Time(rounds) * time.Millisecond; lastAt != want {
				t.Fatalf("last delivery at %v, want %v", lastAt, want)
			}
			if v := s.Stats().Get(MetricDelivered); v != rounds {
				t.Fatalf("delivered metric %d, want %d", v, rounds)
			}
		})
	}
}

// runScenario drives a mixed workload — cross-shard chatter, same-shard
// timers, duplicate timestamps, background cascades, fault injection,
// a link flap, a driver grace timer — and returns the final snapshot
// (parsim namespace stripped) and the sorted execution trace.
func runScenario(t *testing.T, workers int) (map[string]uint64, []obs.Event) {
	t.Helper()
	s := New()
	s.Registry().SetTraceCapacity(1 << 16)
	tr := s.Registry().Tracer()
	s.SetExecTrace(tr)

	const n = 12
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := s.AddNode(fmt.Sprintf("n%d", i))
		if err != nil {
			t.Fatal(err)
		}
		nd.SetShard(i % 4)
		nodes[i] = nd
	}
	var links []*Link
	for i := range nodes {
		for j := i + 1; j < n; j += 3 {
			l, err := s.Connect(nodes[i], nodes[j], time.Millisecond*Time(1+(i+j)%3))
			if err != nil {
				t.Fatal(err)
			}
			l.SetFaults(LinkFaults{Loss: 0.05, Dup: 0.05, JitterMax: 300 * time.Microsecond})
			links = append(links, l)
		}
	}
	e, err := s.Relane(Options{Shards: 4, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s.SeedFaults(7)

	received := s.Registry().Counter("test.received")
	for i := range nodes {
		nd := nodes[i]
		nd.SetHandler(HandlerFunc(func(from *Node, l *Link, msg Message) {
			received.Inc()
			if msg.Size() > 1 {
				// Forward a shorter copy to every neighbour: fan-out
				// with duplicate timestamps across lanes.
				for _, nl := range nd.Links() {
					nl.Send(nd, Bytes(make([]byte, msg.Size()-1)))
				}
			}
		}))
		// Same-shard timer ladder with duplicate timestamps.
		for k := 0; k < 3; k++ {
			nd.After(2*time.Millisecond, func() { received.Inc() })
		}
		// Background cascade: a housekeeping tick that sends.
		nd.AfterBackground(5*time.Millisecond, func() {
			for _, nl := range nd.Links() {
				nl.Send(nd, Bytes{9})
			}
		})
	}
	if err := s.ScheduleFlap(links[0], 3*time.Millisecond, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		nodes[i].SendTo(nodes[(i+1)%n], Bytes(make([]byte, 4)))
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now() + 20*time.Millisecond)
	s.After(time.Millisecond, func() { received.Inc() })
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}

	snap := map[string]uint64{}
	for name, v := range s.Registry().Snapshot().Counters {
		if len(name) >= 7 && name[:7] == "parsim." {
			continue
		}
		snap[name] = v
	}
	evs := append([]obs.Event(nil), tr.Events()...)
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.AS != b.AS {
			return a.AS < b.AS
		}
		return a.Serial < b.Serial
	})
	return snap, evs
}

// TestDeterminismAcrossWorkers is the core guarantee: 1-worker and
// 4-worker runs of the same faulted scenario are bit-identical.
func TestDeterminismAcrossWorkers(t *testing.T) {
	snap1, ev1 := runScenario(t, 1)
	snap4, ev4 := runScenario(t, 4)
	if len(ev1) == 0 {
		t.Fatal("no trace events recorded")
	}
	if len(ev1) != len(ev4) {
		t.Fatalf("trace lengths differ: %d vs %d", len(ev1), len(ev4))
	}
	for i := range ev1 {
		if ev1[i] != ev4[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, ev1[i], ev4[i])
		}
	}
	if len(snap1) != len(snap4) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(snap1), len(snap4))
	}
	for k, v := range snap1 {
		if snap4[k] != v {
			t.Fatalf("counter %s differs: %d vs %d", k, v, snap4[k])
		}
	}
}

func TestTimerStopAndTicker(t *testing.T) {
	s, _, a, _, _ := buildPair(t, 2)
	fired := false
	tm := a.After(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	ticks := 0
	tk := s.EveryBackground(time.Millisecond, func() { ticks++ })
	s.Run(3500 * time.Microsecond)
	tk.Stop()
	if s.QueueLen() != 0 {
		t.Fatalf("stopped ticker left %d events queued", s.QueueLen())
	}
	s.Run(10 * time.Millisecond)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
}

func TestRunAllIgnoresBackground(t *testing.T) {
	s, _, a, b, _ := buildPair(t, 2)
	bg := 0
	a.AfterBackground(time.Millisecond, func() { bg++ })
	fg := false
	b.After(100*time.Microsecond, func() { fg = true })
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !fg {
		t.Fatal("foreground event did not run")
	}
	if bg != 0 {
		t.Fatal("background event beyond the last foreground event ran under RunAll")
	}
	s.Run(2 * time.Millisecond)
	if bg != 1 {
		t.Fatalf("background event did not run under Run: %d", bg)
	}
}

// TestMergedFallback: a zero-delay cross-shard link forces merged
// execution with identical semantics.
func TestMergedFallback(t *testing.T) {
	s := New()
	a, _ := s.AddNode("a")
	b, _ := s.AddNode("b")
	a.SetShard(0)
	b.SetShard(1)
	if _, err := s.Connect(a, b, 0); err != nil {
		t.Fatal(err)
	}
	e, err := s.Relane(Options{Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !e.Merged() {
		t.Fatal("zero-delay cross-shard link should force merged mode")
	}
	got := 0
	b.SetHandler(HandlerFunc(func(from *Node, l *Link, msg Message) { got++ }))
	for i := 0; i < 5; i++ {
		a.SendTo(b, Bytes{1})
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("delivered %d, want 5", got)
	}
}

// TestStepMergedOrder: Step single-steps the same merged order Run
// would execute.
func TestStepMergedOrder(t *testing.T) {
	s, _, a, b, _ := buildPair(t, 2)
	var order []string
	a.After(2*time.Millisecond, func() { order = append(order, "a2") })
	b.After(time.Millisecond, func() { order = append(order, "b1") })
	s.Schedule(time.Millisecond, func() { order = append(order, "g1") })
	for s.Step() {
	}
	want := []string{"g1", "b1", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestShardLimit: New refuses more shards than an event key can name,
// and at the limit the last lane still orders after the global lane and
// the first shard.
func TestShardLimit(t *testing.T) {
	s := New()
	if e, err := s.Relane(Options{Shards: MaxShards + 1, Workers: 1}); err == nil {
		e.Close()
		t.Fatalf("New accepted %d shards", MaxShards+1)
	}
	first, _ := s.AddNode("first")
	last, _ := s.AddNode("last")
	first.SetShard(0)
	last.SetShard(MaxShards - 1)
	e, err := s.Relane(Options{Shards: MaxShards, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var order []string
	last.After(time.Millisecond, func() { order = append(order, "last") })
	first.After(time.Millisecond, func() { order = append(order, "first") })
	s.Schedule(time.Millisecond, func() { order = append(order, "global") })
	for s.Step() {
	}
	if fmt.Sprint(order) != "[global first last]" {
		t.Fatalf("order %v, want [global first last]", order)
	}
}

func TestDriverClockAdvances(t *testing.T) {
	s, _, a, b, _ := buildPair(t, 2)
	b.SetHandler(HandlerFunc(func(from *Node, l *Link, msg Message) {}))
	a.SendTo(b, Bytes{1})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != time.Millisecond {
		t.Fatalf("driver clock %v, want 1ms", s.Now())
	}
	s.Run(5 * time.Millisecond)
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("driver clock %v, want 5ms after Run", s.Now())
	}
	if got := a.Now(); got != 5*time.Millisecond {
		t.Fatalf("node clock %v, want 5ms after Run", got)
	}
}
