// Event-path performance and determinism regression tests: the queue's
// slot tables must keep the schedule→execute and send→deliver cycles
// allocation-free at steady state, a stopped ticker must leave no
// residue in the queue, and a one-shard run must be a reproducible
// total order (the oracle the worker-count differential tests build on).
package netsim

import (
	"fmt"
	"testing"
	"time"

	"discs/internal/obs"
)

// TestEventPathZeroAlloc pins the timer path: after warm-up, scheduling
// and executing an event reuses a timer slot and the heap's backing
// array — zero allocations per cycle.
func TestEventPathZeroAlloc(t *testing.T) {
	s := New()
	fn := func() {}
	// Warm the pool and the heap slice.
	for i := 0; i < 64; i++ {
		if _, err := s.Schedule(s.Now()+1, fn); err != nil {
			t.Fatal(err)
		}
	}
	for s.step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.Schedule(s.Now()+1, fn); err != nil {
			t.Fatal(err)
		}
		s.step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+execute allocates %.1f/op at steady state, want 0", allocs)
	}
}

// TestTimerStopRecycleZeroAlloc covers the arm→stop cycle (retry
// timers re-arm constantly): lazily-cancelled events must be recycled
// through the pool, not leaked to the allocator.
func TestTimerStopRecycleZeroAlloc(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		tm, err := s.Schedule(s.Now()+1, fn)
		if err != nil {
			t.Fatal(err)
		}
		tm.Stop()
	}
	for s.step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm, _ := s.Schedule(s.Now()+1, fn)
		tm.Stop()
		tm, _ = s.Schedule(s.Now()+1, fn)
		_ = tm
		s.step() // pops the dead event, executes the live one
		s.step()
	})
	if allocs != 0 {
		t.Fatalf("arm+stop+execute allocates %.1f/op at steady state, want 0", allocs)
	}
}

// counter is a ValueHandler that counts what it receives.
type counter struct{ msgs, vals int }

func (c *counter) Receive(*Node, *Link, Message)    { c.msgs++ }
func (c *counter) ReceiveValue(*Node, *Link, Value) { c.vals++ }
func (c *counter) ImportValue(_ *Node, v Value) Value {
	v[0]++
	return v
}

// TestLinkSendZeroAlloc: a link delivery is a typed event, not a
// closure, so Link.Send and Link.SendValue through to the receiver's
// handler allocate nothing at steady state on a one-shard engine
// (cross-lane deliveries are pinned by TestDeliveryZeroAlloc).
func TestLinkSendZeroAlloc(t *testing.T) {
	s := New()
	a, _ := s.AddNode("a")
	b, _ := s.AddNode("b")
	l, err := s.Connect(a, b, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := &counter{}
	b.SetHandler(c)
	var msg Message = bytesMsg{1, 2, 3} // boxed once, as a protocol holds its messages
	cycle := func() {
		if !l.Send(a, msg) || !l.SendValue(a, Value{1}, 40) {
			t.Fatal("send refused")
		}
		s.RunAll()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("send+deliver allocates %.1f/op at steady state, want 0", allocs)
	}
	if c.msgs != c.vals || c.msgs < 1000 {
		t.Fatalf("delivered %d messages and %d values", c.msgs, c.vals)
	}
}

// BenchmarkEventPath reports the steady-state cost of one
// schedule→execute cycle (run with -benchmem to see 0 allocs/op).
func BenchmarkEventPath(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.Schedule(s.Now()+1, fn)
	}
	for s.step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(s.Now()+1, fn)
		s.step()
	}
}

// TestTickerStopQueueDepthEager: stopping a ticker must remove its
// pending event from the heap immediately — visible as MetricQueueDepth
// dropping to zero at the Stop call, not at the event's would-be fire
// time.
func TestTickerStopQueueDepthEager(t *testing.T) {
	s := New()
	ticks := 0
	tk := s.EveryBackground(time.Millisecond, func() { ticks++ })
	s.Run(2500 * time.Microsecond)
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2", ticks)
	}
	if got := s.Stats().GetGauge(metricQueueDepth); got != 1 {
		t.Fatalf("queue depth before Stop = %d, want 1 (the armed tick)", got)
	}
	tk.stop()
	if got := s.queueLen(); got != 0 {
		t.Fatalf("queueLen after Stop = %d, want 0", got)
	}
	if got := s.Stats().GetGauge(metricQueueDepth); got != 0 {
		t.Fatalf("queue depth after Stop = %d, want 0 (eager cancel)", got)
	}
}

// buildDeterminismRun drives one one-shard simulation mixing everything
// that could perturb ordering — duplicate timestamps across nodes,
// background cascades, fault-injected links (loss, dup, jitter), a
// link flap — and returns the execution trace.
func buildDeterminismRun(t *testing.T) []obs.Event {
	t.Helper()
	s := New()
	s.Registry().SetTraceCapacity(1 << 15)
	tr := s.Registry().Tracer()
	s.setExecTrace(tr)

	const n = 8
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := s.AddNode(fmt.Sprintf("n%d", i))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	var links []*Link
	for i := range nodes {
		for j := i + 1; j < n; j += 2 {
			l, err := s.Connect(nodes[i], nodes[j], time.Millisecond*Time(1+(i+j)%3))
			if err != nil {
				t.Fatal(err)
			}
			l.SetFaults(LinkFaults{Loss: 0.1, Dup: 0.1, JitterMax: 200 * time.Microsecond})
			links = append(links, l)
		}
	}
	s.SeedFaults(11)
	for i := range nodes {
		nd := nodes[i]
		nd.SetHandler(HandlerFunc(func(from *Node, l *Link, msg Message) {
			if msg.Size() > 1 {
				for _, nl := range nd.Links() {
					nl.Send(nd, bytesMsg(make([]byte, msg.Size()-1)))
				}
			}
		}))
		// Duplicate-timestamp timers on every node.
		for k := 0; k < 2; k++ {
			nd.After(2*time.Millisecond, func() {})
		}
		// Background cascade.
		nd.AfterBackground(4*time.Millisecond, func() {
			for _, nl := range nd.Links() {
				nl.Send(nd, bytesMsg{7})
			}
		})
	}
	if err := s.scheduleFlap(links[0], 3*time.Millisecond, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		nodes[i].SendTo(nodes[(i+1)%n], bytesMsg(make([]byte, 3)))
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now() + 10*time.Millisecond)
	return append([]obs.Event(nil), tr.Events()...)
}

// TestSerialDeterminismTrace is the determinism property test: two
// identical one-shard, one-worker runs execute the exact same event
// sequence. This is the oracle the worker-count differential tests
// (TestDeterminismAcrossWorkers) reuse.
func TestSerialDeterminismTrace(t *testing.T) {
	a := buildDeterminismRun(t)
	b := buildDeterminismRun(t)
	if len(a) == 0 {
		t.Fatal("no trace events recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// bouncer sends every Value it receives back over the link it came on.
type bouncer struct{ self *Node }

func (b *bouncer) Receive(*Node, *Link, Message)          {}
func (b *bouncer) ReceiveValue(_ *Node, l *Link, v Value) { l.SendValue(b.self, v, 40) }
func (b *bouncer) ImportValue(_ *Node, v Value) Value     { return v }

// BenchmarkLaneQueue runs one lane at the depth BGP convergence peaks
// at on the 44,036-AS world (~300k pending events): Value deliveries
// ping-pong with jitter, so every executed event queues one more at a
// random depth. It reports the cost per executed event.
func BenchmarkLaneQueue(b *testing.B) {
	const depth = 300_000
	s := New()
	x, _ := s.AddNode("x")
	y, _ := s.AddNode("y")
	l, err := s.Connect(x, y, time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	l.SetFaults(LinkFaults{JitterMax: time.Millisecond})
	x.SetHandler(&bouncer{self: x})
	y.SetHandler(&bouncer{self: y})
	e, err := s.Relane(Options{Shards: 2, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < depth; i++ {
		l.SendValue(x, Value{uint32(i)}, 40)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		n += s.Run(s.Now() + time.Microsecond)
	}
	b.StopTimer()
	if q := s.queueLen(); q != depth {
		b.Fatalf("queue depth %d, want %d", q, depth)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
}
