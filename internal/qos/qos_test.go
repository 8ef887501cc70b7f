package qos

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// trace builds a uniform arrival trace for a class.
func trace(class Class, pps float64, dur time.Duration, idBase int) []Packet {
	n := int(pps * dur.Seconds())
	out := make([]Packet, n)
	gap := time.Duration(float64(time.Second) / pps)
	for i := range out {
		out[i] = Packet{Arrival: time.Duration(i) * gap, Class: class, ID: idBase + i}
	}
	return out
}

func merge(traces ...[]Packet) []Packet {
	var out []Packet
	for _, tr := range traces {
		out = append(out, tr...)
	}
	return out
}

func TestQueueUnderloadDeliversAll(t *testing.T) {
	q := Queue{ServicePPS: 1000, BufferPerClass: 64}
	pkts := merge(trace(High, 200, time.Second, 0), trace(Low, 300, time.Second, 10_000))
	out, err := q.Run(pkts)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(out)
	if s.Dropped[High] != 0 || s.Dropped[Low] != 0 {
		t.Fatalf("drops under load 0.5: %+v", s)
	}
	// FIFO departures strictly ordered and spaced ≥ service time.
	for _, o := range out {
		if !o.Dropped && o.Departed < o.Packet.Arrival {
			t.Fatal("departure before arrival")
		}
	}
}

func TestQueueOverloadStrictPriority(t *testing.T) {
	// Attack: low-class flood at 10× capacity; legit high class at 30%
	// of capacity. High goodput must stay ≈1, low takes all the loss.
	q := Queue{ServicePPS: 1000, BufferPerClass: 32}
	pkts := merge(
		trace(High, 300, time.Second, 0),
		trace(Low, 10_000, time.Second, 100_000),
	)
	out, err := q.Run(pkts)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(out)
	if g := s.GoodputRate(High); g < 0.99 {
		t.Fatalf("high goodput = %v under low-class flood", g)
	}
	if g := s.GoodputRate(Low); g > 0.15 {
		t.Fatalf("low goodput = %v, should be starved to ≈0.1", g)
	}
}

// TestQueueNoClassificationBaseline models MEF's situation: the victim
// cannot classify, so attack and legit traffic share one class — and
// legit goodput collapses to ≈ capacity/offered.
func TestQueueNoClassificationBaseline(t *testing.T) {
	q := Queue{ServicePPS: 1000, BufferPerClass: 32}
	pkts := merge(
		trace(Low, 300, time.Second, 0),          // "legit" but unclassifiable
		trace(Low, 10_000, time.Second, 100_000), // attack
	)
	out, err := q.Run(pkts)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(out)
	// Total goodput bounded by capacity/offered ≈ 1000/10300.
	if g := s.GoodputRate(Low); g > 0.2 {
		t.Fatalf("unclassified goodput = %v, want ≈0.1", g)
	}
}

func TestQueueConservation(t *testing.T) {
	q := Queue{ServicePPS: 500, BufferPerClass: 8}
	rng := rand.New(rand.NewSource(1))
	pkts := make([]Packet, 2000)
	for i := range pkts {
		pkts[i] = Packet{
			Arrival: time.Duration(rng.Int63n(int64(time.Second))),
			Class:   Class(rng.Intn(2)),
			ID:      i,
		}
	}
	out, err := q.Run(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(pkts) {
		t.Fatalf("outcomes = %d", len(out))
	}
	s := Summarize(out)
	total := s.Delivered[High] + s.Delivered[Low] + s.Dropped[High] + s.Dropped[Low]
	if total != len(pkts) {
		t.Fatalf("conservation violated: %d != %d", total, len(pkts))
	}
}

func TestQueueServiceRate(t *testing.T) {
	// Served packets cannot exceed capacity × makespan.
	q := Queue{ServicePPS: 100, BufferPerClass: 1000}
	pkts := trace(High, 1000, time.Second, 0) // 10× burst, big buffer
	out, err := q.Run(pkts)
	if err != nil {
		t.Fatal(err)
	}
	var lastDepart time.Duration
	delivered := 0
	for _, o := range out {
		if !o.Dropped {
			delivered++
			if o.Departed > lastDepart {
				lastDepart = o.Departed
			}
		}
	}
	maxServed := int(lastDepart.Seconds()*q.ServicePPS) + 1
	if delivered > maxServed {
		t.Fatalf("delivered %d > capacity bound %d", delivered, maxServed)
	}
}

func TestQueueValidation(t *testing.T) {
	if _, err := (Queue{ServicePPS: 0, BufferPerClass: 1}).Run(nil); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := (Queue{ServicePPS: 1, BufferPerClass: 0}).Run(nil); err == nil {
		t.Fatal("zero buffer accepted")
	}
	if _, err := (Queue{ServicePPS: 1, BufferPerClass: 1}).Run([]Packet{{Class: Class(7)}}); err == nil {
		t.Fatal("bad class accepted")
	}
}

func TestQueueEmptyTrace(t *testing.T) {
	out, err := (Queue{ServicePPS: 1, BufferPerClass: 1}).Run(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty trace: %v %v", out, err)
	}
}

// Property: high-class goodput under a low-class flood is always ≥ the
// goodput it would get without classification, for random loads.
func TestPropertyClassificationNeverHurts(t *testing.T) {
	f := func(seed int64, legitPermil, attackX uint8) bool {
		legitPPS := 50 + float64(legitPermil)            // 50..305
		attackPPS := 1000 + float64(attackX)*50          // 1000..13750
		q := Queue{ServicePPS: 1000, BufferPerClass: 16} // capacity 1000

		legit := trace(High, legitPPS, 500*time.Millisecond, 0)
		att := trace(Low, attackPPS, 500*time.Millisecond, 1_000_000)
		out, err := q.Run(merge(legit, att))
		if err != nil {
			return false
		}
		withClass := Summarize(out).GoodputRate(High)

		// Same trace, no classification: everything Low.
		var flat []Packet
		for _, p := range merge(legit, att) {
			p.Class = Low
			flat = append(flat, p)
		}
		out2, err := q.Run(flat)
		if err != nil {
			return false
		}
		// Goodput of the legit subset without classification.
		legitIDs := map[int]bool{}
		for _, p := range legit {
			legitIDs[p.ID] = true
		}
		deliv, offered := 0, 0
		for _, o := range out2 {
			if legitIDs[o.Packet.ID] {
				offered++
				if !o.Dropped {
					deliv++
				}
			}
		}
		without := float64(deliv) / float64(offered)
		return withClass >= without-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndStrings(t *testing.T) {
	if High.String() != "high" || Low.String() != "low" {
		t.Fatal("class strings")
	}
	s := Stats{}
	if s.GoodputRate(High) != 1 {
		t.Fatal("empty goodput should be 1")
	}
}
