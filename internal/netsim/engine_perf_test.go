package netsim

import (
	"fmt"
	"testing"
	"time"
)

// laneBouncer sends every message and value it receives back over the link
// it came on, until budget runs out. It counts imports, the cross-shard
// hook of a Value.
type laneBouncer struct {
	self            *Node
	budget, imports int
}

func (b *laneBouncer) Receive(_ *Node, l *Link, msg Message) {
	if b.budget > 0 {
		b.budget--
		l.Send(b.self, msg)
	}
}

func (b *laneBouncer) ReceiveValue(_ *Node, l *Link, v Value) {
	if b.budget > 0 {
		b.budget--
		l.SendValue(b.self, v, 40)
	}
}

func (b *laneBouncer) ImportValue(_ *Node, v Value) Value {
	b.imports++
	return v
}

// TestDeliveryZeroAlloc: link deliveries under the engine — parked,
// same-lane and cross-lane through the barrier, boxed messages and
// Values — allocate nothing at steady state.
func TestDeliveryZeroAlloc(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := New()
			nodes := make([]*Node, 3)
			hs := make([]*laneBouncer, 3)
			for i := range nodes {
				nodes[i], _ = s.AddNode(fmt.Sprintf("n%d", i))
				hs[i] = &laneBouncer{self: nodes[i]}
				nodes[i].SetHandler(hs[i])
			}
			nodes[1].SetShard(1) // n0-n1 crosses lanes, n0-n2 does not
			cross, err := s.Connect(nodes[0], nodes[1], time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			local, err := s.Connect(nodes[0], nodes[2], time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			e, err := s.Relane(Options{Shards: 2, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var msg Message = Bytes{1}
			cycle := func() {
				for _, h := range hs {
					h.budget = 4
				}
				for _, l := range []*Link{cross, local} {
					l.Send(nodes[0], msg)
					l.SendValue(nodes[0], Value{7}, 40)
				}
				if _, err := s.RunAll(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Fatalf("send+deliver cycle allocates %.1f/op at steady state, want 0", allocs)
			}
			if hs[1].imports == 0 || hs[2].imports != 0 {
				t.Fatalf("imports: cross-shard receiver %d, same-shard receiver %d", hs[1].imports, hs[2].imports)
			}
		})
	}
}

// TestLateDriverSendIsCounted pins a known engine gap: a driver-context
// send from a node whose lane clock lags the receiver's lane arrives
// behind the receiver's clock, the engine refuses the delivery, and the
// message is lost although Send reports true. MetricLateDropped makes the
// loss visible.
func TestLateDriverSendIsCounted(t *testing.T) {
	s, _, a, b, l := buildPair(t, 2)
	got := 0
	b.SetHandler(HandlerFunc(func(*Node, *Link, Message) { got++ }))
	b.After(5*time.Millisecond, func() {})
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if a.Now() != 0 || b.Now() != 5*time.Millisecond {
		t.Fatalf("lane clocks a=%v b=%v, want 0 and 5ms", a.Now(), b.Now())
	}
	// Arrival at 1ms, behind b's clock.
	if !l.Send(a, Bytes{1}) {
		t.Fatal("Send refused")
	}
	if _, err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if got != 0 || st.Get(MetricDelivered) != 0 {
		t.Fatalf("delivered %d (metric %d), want 0", got, st.Get(MetricDelivered))
	}
	if n := st.Get(MetricLateDropped); n != 1 {
		t.Fatalf("%s = %d, want 1", MetricLateDropped, n)
	}
}
