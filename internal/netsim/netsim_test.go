package netsim

import (
	"testing"
	"time"

	"discs/internal/obs"
)

func mustNode(t *testing.T, s *Simulator, name string) *Node {
	t.Helper()
	n, err := s.AddNode(name)
	if err != nil {
		t.Fatalf("AddNode(%q): %v", name, err)
	}
	return n
}

func mustLink(t *testing.T, s *Simulator, a, b *Node, d Time) *Link {
	t.Helper()
	l, err := s.Connect(a, b, d)
	if err != nil {
		t.Fatalf("Connect(%q,%q): %v", a.Name, b.Name, err)
	}
	return l
}

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.After(3*time.Millisecond, func() { got = append(got, 3) })
	s.After(1*time.Millisecond, func() { got = append(got, 1) })
	s.After(2*time.Millisecond, func() { got = append(got, 2) })
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Millisecond, func() { got = append(got, i) })
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	s := New()
	s.After(time.Second, func() {})
	s.Run(time.Second)
	if _, err := s.Schedule(time.Millisecond, func() {}); err == nil {
		t.Fatal("scheduling in the past should fail")
	}
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) should panic")
		}
	}()
	s.After(-1, func() {})
}

func TestTimerStop(t *testing.T) {
	s := New()
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop should report true on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestClockAdvance(t *testing.T) {
	s := New()
	var at Time
	s.After(5*time.Millisecond, func() { at = s.Now() })
	s.RunAll()
	if at != 5*time.Millisecond {
		t.Fatalf("event ran at %v, want 5ms", at)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v after drain", s.Now())
	}
}

func TestRunDeadline(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(Time(i)*time.Millisecond, func() { count++ })
	}
	n := s.Run(5 * time.Millisecond)
	if n != 5 || count != 5 {
		t.Fatalf("Run executed %d (count %d), want 5", n, count)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want deadline 5ms", s.Now())
	}
}

func TestDuplicateNodeRejected(t *testing.T) {
	s := New()
	mustNode(t, s, "a")
	if _, err := s.AddNode("a"); err == nil {
		t.Fatal("duplicate node name should fail")
	}
	if _, err := s.AddNode(""); err == nil {
		t.Fatal("empty node name should fail")
	}
}

func TestSelfLinkRejected(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	if _, err := s.Connect(a, a, 0); err == nil {
		t.Fatal("self link should fail")
	}
}

func TestLinkDelivery(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	b := mustNode(t, s, "b")
	l := mustLink(t, s, a, b, 10*time.Millisecond)

	var gotMsg Message
	var gotAt Time
	b.SetHandler(HandlerFunc(func(from *Node, link *Link, msg Message) {
		if from != a || link != l {
			t.Errorf("delivery metadata wrong: from=%v", from.Name)
		}
		gotMsg, gotAt = msg, b.Now()
	}))
	if !l.Send(a, Bytes("hello")) {
		t.Fatal("send rejected")
	}
	s.RunAll()
	if gotMsg == nil || string(gotMsg.(Bytes)) != "hello" {
		t.Fatalf("message = %v", gotMsg)
	}
	if gotAt != 10*time.Millisecond {
		t.Fatalf("arrival at %v, want 10ms", gotAt)
	}
	if s.Stats().Get(MetricDelivered) != 1 {
		t.Fatalf("Delivered = %d", s.Stats().Get(MetricDelivered))
	}
}

func TestLinkBidirectional(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	b := mustNode(t, s, "b")
	l := mustLink(t, s, a, b, time.Millisecond)
	var aGot, bGot bool
	a.SetHandler(HandlerFunc(func(_ *Node, _ *Link, _ Message) { aGot = true }))
	b.SetHandler(HandlerFunc(func(_ *Node, _ *Link, _ Message) { bGot = true }))
	l.Send(a, Bytes("x"))
	l.Send(b, Bytes("y"))
	s.RunAll()
	if !aGot || !bGot {
		t.Fatalf("bidirectional delivery failed: a=%v b=%v", aGot, bGot)
	}
}

func TestLinkDown(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	b := mustNode(t, s, "b")
	l := mustLink(t, s, a, b, time.Millisecond)
	l.SetUp(false)
	if l.Send(a, Bytes("x")) {
		t.Fatal("send over down link should be rejected")
	}
	if s.Stats().Get(metricDropped) != 1 {
		t.Fatalf("Dropped = %d, want 1", s.Stats().Get(metricDropped))
	}
	l.SetUp(true)
	if !l.Send(a, Bytes("x")) {
		t.Fatal("send over restored link should work")
	}
}

func TestSendFromNonEndpoint(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	b := mustNode(t, s, "b")
	c := mustNode(t, s, "c")
	l := mustLink(t, s, a, b, time.Millisecond)
	if l.Send(c, Bytes("x")) {
		t.Fatal("send from non-endpoint should be rejected")
	}
}

func TestBandwidthSerialization(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	b := mustNode(t, s, "b")
	l := mustLink(t, s, a, b, 0)
	l.Bps = 1000 // 1000 bytes/sec -> a 500-byte msg takes 500ms

	var arrivals []Time
	b.SetHandler(HandlerFunc(func(_ *Node, _ *Link, _ Message) {
		arrivals = append(arrivals, b.Now())
	}))
	l.Send(a, Bytes(make([]byte, 500)))
	l.Send(a, Bytes(make([]byte, 500)))
	s.RunAll()
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	if arrivals[0] != 500*time.Millisecond || arrivals[1] != time.Second {
		t.Fatalf("arrivals = %v, want [500ms 1s]", arrivals)
	}
}

func TestBandwidthIndependentDirections(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	b := mustNode(t, s, "b")
	l := mustLink(t, s, a, b, 0)
	l.Bps = 1000
	var times []Time
	h := func(n *Node) Handler {
		return HandlerFunc(func(_ *Node, _ *Link, _ Message) { times = append(times, n.Now()) })
	}
	a.SetHandler(h(a))
	b.SetHandler(h(b))
	l.Send(a, Bytes(make([]byte, 500)))
	l.Send(b, Bytes(make([]byte, 500)))
	s.RunAll()
	// Both directions serialize independently: both arrive at 500ms.
	if len(times) != 2 || times[0] != 500*time.Millisecond || times[1] != 500*time.Millisecond {
		t.Fatalf("times = %v", times)
	}
}

func TestSendTo(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	b := mustNode(t, s, "b")
	c := mustNode(t, s, "c")
	mustLink(t, s, a, b, time.Millisecond)
	got := ""
	b.SetHandler(HandlerFunc(func(_ *Node, _ *Link, m Message) { got = string(m.(Bytes)) }))
	if !a.SendTo(b, Bytes("direct")) {
		t.Fatal("SendTo over existing link failed")
	}
	if a.SendTo(c, Bytes("nope")) {
		t.Fatal("SendTo without a link should fail")
	}
	s.RunAll()
	if got != "direct" {
		t.Fatalf("got %q", got)
	}
}

func TestNeighbor(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	b := mustNode(t, s, "b")
	c := mustNode(t, s, "c")
	l := mustLink(t, s, a, b, 0)
	if l.Neighbor(a) != b || l.Neighbor(b) != a {
		t.Fatal("Neighbor wrong")
	}
	if l.Neighbor(c) != nil {
		t.Fatal("Neighbor of non-endpoint should be nil")
	}
}

func TestNodeLookup(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	if s.Node("a") != a || s.Node("zz") != nil || s.NumNodes() != 1 {
		t.Fatal("node lookup broken")
	}
}

func TestCascadedEvents(t *testing.T) {
	// Events scheduled from within events must run; models protocol
	// timers armed inside message handlers.
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(time.Microsecond, recurse)
		}
	}
	s.After(0, recurse)
	n, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 || depth != 100 {
		t.Fatalf("n=%d depth=%d", n, depth)
	}
}

func TestRelayChainTiming(t *testing.T) {
	// a -> b -> c relay: total delay should add up.
	s := New()
	a := mustNode(t, s, "a")
	b := mustNode(t, s, "b")
	c := mustNode(t, s, "c")
	mustLink(t, s, a, b, 2*time.Millisecond)
	mustLink(t, s, b, c, 3*time.Millisecond)
	var at Time
	b.SetHandler(HandlerFunc(func(_ *Node, _ *Link, m Message) { b.SendTo(c, m) }))
	c.SetHandler(HandlerFunc(func(_ *Node, _ *Link, _ Message) { at = c.Now() }))
	a.SendTo(b, Bytes("relay"))
	s.RunAll()
	if at != 5*time.Millisecond {
		t.Fatalf("relay arrived at %v, want 5ms", at)
	}
}

func TestMaxBacklogTailDrop(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	b := mustNode(t, s, "b")
	l := mustLink(t, s, a, b, 0)
	l.Bps = 1000                          // 1 ms per byte
	l.MaxBacklog = 200 * time.Millisecond // queue depth: 200 bytes

	accepted := 0
	for i := 0; i < 10; i++ {
		if l.Send(a, Bytes(make([]byte, 100))) { // 100 ms serialization each
			accepted++
		}
	}
	// First send starts immediately; sends are accepted while the queue
	// is at most 200 ms deep: sends 1..3 queue at 0/100/200ms backlog,
	// the rest drop.
	if accepted != 3 {
		t.Fatalf("accepted %d sends, want 3", accepted)
	}
	if s.Stats().Get(metricDropped) != 7 {
		t.Fatalf("dropped %d, want 7", s.Stats().Get(metricDropped))
	}
	// Draining restores acceptance.
	s.RunAll()
	if !l.Send(a, Bytes(make([]byte, 100))) {
		t.Fatal("send after drain rejected")
	}
}

func TestMaxBacklogZeroUnbounded(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	b := mustNode(t, s, "b")
	l := mustLink(t, s, a, b, 0)
	l.Bps = 1000
	for i := 0; i < 100; i++ {
		if !l.Send(a, Bytes(make([]byte, 100))) {
			t.Fatal("unbounded link dropped a send")
		}
	}
}

func TestEveryBackgroundTicker(t *testing.T) {
	s := New()
	var ticks []Time
	tk := s.EveryBackground(10*time.Millisecond, func() {
		ticks = append(ticks, s.Now())
	})
	s.Run(35 * time.Millisecond)
	if len(ticks) != 3 || ticks[0] != 10*time.Millisecond || ticks[2] != 30*time.Millisecond {
		t.Fatalf("ticks = %v, want 10/20/30ms", ticks)
	}
	// A ticker alone must not keep RunAll alive.
	if n, err := s.RunAll(); err != nil || n != 0 {
		t.Fatalf("RunAll with only a ticker ran %d events (err %v)", n, err)
	}
	tk.Stop()
	s.Run(100 * time.Millisecond)
	if len(ticks) != 3 {
		t.Fatalf("ticks after Stop = %d, want 3", len(ticks))
	}
}

func TestMoveToRegistryCarriesCounts(t *testing.T) {
	s := New()
	a := mustNode(t, s, "a")
	b := mustNode(t, s, "b")
	l := mustLink(t, s, a, b, time.Millisecond)
	l.Send(a, Bytes("x"))
	s.RunAll()
	before := s.Stats()
	if before.Get(MetricDelivered) != 1 {
		t.Fatalf("delivered = %d, want 1", before.Get(MetricDelivered))
	}

	reg := obs.NewRegistry()
	s.MoveToRegistry(reg)
	if s.Registry() != reg {
		t.Fatal("MoveToRegistry did not adopt the new registry")
	}
	after := s.Stats()
	if after.Get(MetricDelivered) != 1 || after.Get(MetricEvents) != before.Get(MetricEvents) {
		t.Fatalf("counts not carried: %v", after.Counters)
	}
	// New increments land in the adopted registry, and snapshots are
	// stamped with the simulated clock.
	l.Send(a, Bytes("y"))
	s.RunAll()
	st := reg.Snapshot()
	if st.Get(MetricDelivered) != 2 {
		t.Fatalf("delivered after move = %d, want 2", st.Get(MetricDelivered))
	}
	if st.AtNanos != int64(s.Now()) {
		t.Fatalf("snapshot stamped %d, sim now %d", st.AtNanos, int64(s.Now()))
	}
}

// TestNeighbourIndex: LinkTo finds the first link created toward a
// neighbour, whatever order the neighbours were connected in, parallel
// links included; UpLink falls back to the next parallel link that is
// up; the index stays right past a node's reserved size.
func TestNeighbourIndex(t *testing.T) {
	s := New()
	s.Reserve(5, 3)
	n := make([]*Node, 5)
	for i := range n {
		n[i] = mustNode(t, s, string(rune('a'+i)))
	}
	n[0].ReserveLinks(2)
	// Neighbours of a arrive out of id order, and b twice.
	first := map[*Node]*Link{}
	for _, peer := range []*Node{n[3], n[1], n[4], n[1], n[2]} {
		l := mustLink(t, s, n[0], peer, time.Millisecond)
		if first[peer] == nil {
			first[peer] = l
		}
	}
	for peer, l := range first {
		if got := n[0].LinkTo(peer); got != l {
			t.Fatalf("a.LinkTo(%s) = link %d, want %d", peer.Name, got.id, l.id)
		}
		if got := peer.LinkTo(n[0]); got != l {
			t.Fatalf("%s.LinkTo(a) = link %d, want %d", peer.Name, got.id, l.id)
		}
	}
	if n[1].LinkTo(n[2]) != nil || n[0].LinkTo(nil) != nil || n[0].LinkTo(n[0]) != nil {
		t.Fatal("LinkTo found a link that does not exist")
	}
	other := mustNode(t, New(), "b")
	if n[0].LinkTo(other) != nil {
		t.Fatal("LinkTo found a link to another simulator's node")
	}
	if _, err := s.Connect(n[0], other, time.Millisecond); err == nil {
		t.Fatal("Connect accepted a node of another simulator")
	}

	second := n[0].Links()[3]
	first[n[1]].SetUp(false)
	if got := n[0].UpLink(n[1]); got != second {
		t.Fatalf("UpLink with the first a-b link down = %v, want the second", got)
	}
	second.SetUp(false)
	if n[0].UpLink(n[1]) != nil || n[0].SendTo(n[1], Bytes("x")) {
		t.Fatal("UpLink or SendTo used a down link")
	}
	if !n[0].SendTo(n[2], Bytes("x")) {
		t.Fatal("SendTo over an up link failed")
	}
}
