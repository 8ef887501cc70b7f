package netsim

import (
	"bytes"
	"testing"
	"time"
)

// faultPair builds a two-node sim with one link and a receive counter.
func faultPair(t *testing.T, f LinkFaults) (*Simulator, *Node, *Node, *Link, *[]Message) {
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
	l, err := s.Connect(a, b, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	l.SetFaults(f)
	var got []Message
	b.SetHandler(HandlerFunc(func(from *Node, link *Link, msg Message) {
		got = append(got, msg)
	}))
	return s, a, b, l, &got
}

func TestFaultLossDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		s, a, _, l, got := faultPair(t, LinkFaults{Loss: 0.5})
		s.SeedFaults(seed)
		for i := 0; i < 100; i++ {
			if !l.Send(a, bytesMsg{byte(i)}) {
				t.Fatal("lossy send must still be accepted")
			}
		}
		if _, err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
		var idx []int
		for _, m := range *got {
			idx = append(idx, int(m.(bytesMsg)[0]))
		}
		return idx
	}
	first := run(7)
	if len(first) == 0 || len(first) == 100 {
		t.Fatalf("50%% loss delivered %d/100, want a strict subset", len(first))
	}
	second := run(7)
	if len(first) != len(second) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed, different delivery set at %d: %d vs %d", i, first[i], second[i])
		}
	}
	other := run(8)
	same := len(other) == len(first)
	if same {
		for i := range first {
			if first[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical loss pattern (suspicious)")
	}
}

func TestFaultDuplication(t *testing.T) {
	s, a, _, l, got := faultPair(t, LinkFaults{Dup: 1.0})
	s.SeedFaults(1)
	l.Send(a, bytesMsg{42})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 2 {
		t.Fatalf("Dup=1 delivered %d copies, want 2", len(*got))
	}
	if s.Stats().Get(metricDuplicated) != 1 {
		t.Fatalf("Duplicated stat = %d, want 1", s.Stats().Get(metricDuplicated))
	}
}

func TestFaultCorruption(t *testing.T) {
	s, a, _, l, got := faultPair(t, LinkFaults{Corrupt: 1.0})
	s.SeedFaults(3)
	orig := bytesMsg{1, 2, 3, 4}
	sent := append(bytesMsg(nil), orig...)
	l.Send(a, sent)
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("corrupted Corruptible delivered %d times, want 1", len(*got))
	}
	if bytes.Equal([]byte((*got)[0].(bytesMsg)), []byte(orig)) {
		t.Fatal("Corrupt=1 delivered the frame unmodified")
	}
	if !bytes.Equal([]byte(sent), []byte(orig)) {
		t.Fatal("corruption mutated the sender's copy")
	}
	if s.Stats().Get(metricCorrupted) != 1 {
		t.Fatalf("Corrupted stat = %d, want 1", s.Stats().Get(metricCorrupted))
	}

	// A non-Corruptible message is dropped instead.
	s2, a2, _, l2, got2 := faultPair(t, LinkFaults{Corrupt: 1.0})
	s2.SeedFaults(3)
	l2.Send(a2, opaqueMsg{})
	if _, err := s2.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(*got2) != 0 {
		t.Fatal("corrupted non-Corruptible message must be dropped")
	}
}

type opaqueMsg struct{}

func (opaqueMsg) Size() int { return 8 }

func TestFaultJitterBounds(t *testing.T) {
	const jmax = 10 * time.Millisecond
	s, a, _, l, _ := faultPair(t, LinkFaults{JitterMax: jmax})
	s.SeedFaults(5)
	var arrivals []Time
	bn := s.Node("b")
	bn.SetHandler(HandlerFunc(func(from *Node, link *Link, msg Message) {
		arrivals = append(arrivals, bn.Now())
	}))
	for i := 0; i < 50; i++ {
		l.Send(a, bytesMsg{byte(i)})
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 50 {
		t.Fatalf("jitter lost frames: %d/50 delivered", len(arrivals))
	}
	varied := false
	for _, at := range arrivals {
		if at < l.Delay || at > l.Delay+jmax {
			t.Fatalf("arrival %v outside [delay, delay+jitter] = [%v, %v]", at, l.Delay, l.Delay+jmax)
		}
		if at != l.Delay {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter never moved an arrival")
	}
}

func TestCrashDropsDeliveriesAndTimers(t *testing.T) {
	s, a, b, l, got := faultPair(t, LinkFaults{})
	fired := false
	b.After(5*time.Millisecond, func() { fired = true })
	l.Send(a, bytesMsg{1}) // in flight toward b
	b.Crash()
	if l.Send(b, bytesMsg{2}) {
		t.Fatal("send from a crashed node must be rejected")
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Fatal("frame in flight toward a crashed node must be discarded on arrival")
	}
	if s.Stats().Get(MetricCrashDropped) != 1 {
		t.Fatalf("CrashDropped = %d, want 1", s.Stats().Get(MetricCrashDropped))
	}
	if fired {
		t.Fatal("node-scoped timer survived the crash")
	}

	// Restart: sends work again, and timers armed pre-crash stay dead
	// even when the node is back up (epoch guard).
	b.Restart()
	b.After(time.Millisecond, func() { fired = true })
	if !l.Send(a, bytesMsg{3}) {
		t.Fatal("send to a restarted node rejected")
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("restarted node received %d frames, want 1", len(*got))
	}
	if !fired {
		t.Fatal("timer armed after restart did not fire")
	}
}

func TestScheduleFlap(t *testing.T) {
	s, a, _, l, got := faultPair(t, LinkFaults{})
	if err := s.scheduleFlap(l, 10*time.Millisecond, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	send := func(at Time, v byte) {
		s.Schedule(at, func() { l.Send(a, bytesMsg{v}) })
	}
	send(5*time.Millisecond, 1)  // before the flap: delivered
	send(15*time.Millisecond, 2) // during: dropped
	send(35*time.Millisecond, 3) // after heal: delivered
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 2 {
		t.Fatalf("flap: delivered %d frames, want 2", len(*got))
	}
	if (*got)[0].(bytesMsg)[0] != 1 || (*got)[1].(bytesMsg)[0] != 3 {
		t.Fatalf("flap: wrong frames delivered: %v", *got)
	}
}

func TestSchedulePartition(t *testing.T) {
	s := New()
	a, _ := s.AddNode("a")
	b, _ := s.AddNode("b")
	c, _ := s.AddNode("c")
	lab, _ := s.Connect(a, b, time.Millisecond)
	lbc, _ := s.Connect(b, c, time.Millisecond)
	var toB, toC int
	b.SetHandler(HandlerFunc(func(*Node, *Link, Message) { toB++ }))
	c.SetHandler(HandlerFunc(func(*Node, *Link, Message) { toC++ }))
	// Partition {a} away from {b, c}: a-b is cut, b-c survives.
	if err := s.schedulePartition(10*time.Millisecond, 20*time.Millisecond, a); err != nil {
		t.Fatal(err)
	}
	s.Schedule(15*time.Millisecond, func() {
		if lab.Send(a, bytesMsg{1}) {
			t.Error("send across the partition accepted")
		}
		if !lbc.Send(b, bytesMsg{2}) {
			t.Error("send inside the majority side rejected")
		}
	})
	s.Schedule(35*time.Millisecond, func() {
		if !lab.Send(a, bytesMsg{3}) {
			t.Error("send after heal rejected")
		}
	})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if toC != 1 || toB != 1 {
		t.Fatalf("partition deliveries: toB=%d toC=%d, want 1 and 1", toB, toC)
	}
}

// Background events must not keep RunAll alive, but must still run when
// the clock passes them on the way to a foreground event — and work
// scheduled from inside a background callback stays background.
func TestBackgroundEventsDoNotBlockRunAll(t *testing.T) {
	s := New()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		s.AfterBackground(time.Second, tick) // re-arming forever
	}
	s.AfterBackground(time.Second, tick)
	fg := false
	s.After(2500*time.Millisecond, func() { fg = true })
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !fg {
		t.Fatal("foreground event did not run")
	}
	// Ticks at 1s and 2s precede the fg event at 2.5s; the re-armed
	// tick at 3s must remain queued without spinning RunAll.
	if ticks != 2 {
		t.Fatalf("background ticks during RunAll = %d, want 2", ticks)
	}
	if s.Now() != 2500*time.Millisecond {
		t.Fatalf("RunAll advanced clock to %v, want 2.5s (stopped at last fg event)", s.Now())
	}
	// Run picks the queued background work back up.
	s.Run(5 * time.Second)
	if ticks != 5 {
		t.Fatalf("background ticks after Run(5s) = %d, want 5", ticks)
	}
}

// An event scheduled with plain Schedule from inside a background
// callback inherits background-ness, so heartbeat send/deliver cascades
// cannot wedge RunAll.
func TestBackgroundInheritance(t *testing.T) {
	s := New()
	a, _ := s.AddNode("a")
	b, _ := s.AddNode("b")
	l, _ := s.Connect(a, b, time.Millisecond)
	echoes := 0
	b.SetHandler(HandlerFunc(func(from *Node, link *Link, msg Message) {
		echoes++
		link.Send(b, msg) // reply — also background, transitively
	}))
	a.SetHandler(HandlerFunc(func(*Node, *Link, Message) {}))
	var beat func()
	beat = func() {
		l.Send(a, bytesMsg{0}) // delivery event inherits background
		s.AfterBackground(time.Second, beat)
	}
	s.AfterBackground(time.Second, beat)
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if echoes != 0 {
		t.Fatal("pure-background system must settle immediately under RunAll")
	}
	s.Run(3500 * time.Millisecond)
	if echoes != 3 {
		t.Fatalf("echoes after Run(3.5s) = %d, want 3", echoes)
	}
}

func TestCorruptBytesFlipsBits(t *testing.T) {
	for r := uint64(0); r < 200; r++ {
		b := []byte{0, 0, 0, 0}
		CorruptBytes(b, r)
		flipped := 0
		for _, x := range b {
			for ; x != 0; x &= x - 1 {
				flipped++
			}
		}
		if flipped < 1 || flipped > 3 {
			t.Fatalf("r=%d flipped %d bits, want 1..3", r, flipped)
		}
	}
	if got := CorruptBytes(nil, 9); got != nil {
		t.Fatal("CorruptBytes(nil) must be a no-op")
	}
}

func TestDefaultLinkFaultsAppliedToNewLinks(t *testing.T) {
	s := New()
	a, _ := s.AddNode("a")
	b, _ := s.AddNode("b")
	pre, _ := s.Connect(a, b, time.Millisecond)
	s.SetDefaultLinkFaults(LinkFaults{Loss: 0.25})
	post, _ := s.Connect(a, b, time.Millisecond)
	if pre.faults != nil {
		t.Fatal("default faults leaked onto a pre-existing link")
	}
	if f := post.faults; f == nil || f.Loss != 0.25 {
		t.Fatalf("new link faults = %+v, want Loss 0.25", f)
	}
	s.SetDefaultLinkFaults(LinkFaults{})
	clean, _ := s.Connect(a, b, time.Millisecond)
	if clean.faults != nil {
		t.Fatal("clearing default faults did not stick")
	}
}
