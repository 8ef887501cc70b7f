package attack

import (
	"math"
	"math/rand"
	"net/netip"
	"testing"

	"discs/internal/topology"
)

// weightedTopo builds ASes 1..4 with address-space ratios 8:4:2:2.
func weightedTopo(t *testing.T) *topology.Topology {
	t.Helper()
	tp := topology.New()
	prefixes := map[topology.ASN][]string{
		1: {"10.0.0.0/13"}, // 2^19 * 1 = 8 units
		2: {"11.0.0.0/14"}, // 4 units
		3: {"12.0.0.0/15"}, // 2 units
		4: {"13.0.0.0/15"}, // 2 units
	}
	for asn := topology.ASN(1); asn <= 4; asn++ {
		if _, err := tp.AddAS(asn); err != nil {
			t.Fatal(err)
		}
		for _, p := range prefixes[asn] {
			if err := tp.AddPrefix(asn, netip.MustParsePrefix(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tp
}

func TestSamplerProportions(t *testing.T) {
	tp := weightedTopo(t)
	s := NewSampler(tp)
	rng := rand.New(rand.NewSource(1))
	counts := map[topology.ASN]int{}
	const n = 40_000
	for i := 0; i < n; i++ {
		counts[s.Draw(rng)]++
	}
	want := map[topology.ASN]float64{1: 0.5, 2: 0.25, 3: 0.125, 4: 0.125}
	for asn, w := range want {
		got := float64(counts[asn]) / n
		if math.Abs(got-w) > 0.02 {
			t.Errorf("AS%d frequency = %.3f, want %.3f", asn, got, w)
		}
	}
}

func TestDrawFlowConstraints(t *testing.T) {
	tp := weightedTopo(t)
	s := NewSampler(tp)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		f := s.DrawFlow(DDDoS, rng)
		if f.Agent == f.Victim || f.Innocent == f.Victim || f.Agent == f.Innocent {
			t.Fatalf("flow violates distinctness: %v", f)
		}
	}
	for i := 0; i < 1000; i++ {
		f := s.DrawFlowForVictim(SDDoS, 3, rng)
		if f.Victim != 3 || f.Agent == 3 || f.Innocent == 3 || f.Agent == f.Innocent {
			t.Fatalf("victim-pinned flow wrong: %v", f)
		}
	}
}

func TestRandomAddrInsideAS(t *testing.T) {
	tp := weightedTopo(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		a, ok := randomAddr(tp, 2, rng)
		if !ok {
			t.Fatal("no address")
		}
		if owner, _ := tp.OwnerOf(a); owner != 2 {
			t.Fatalf("address %v owned by AS%d", a, owner)
		}
	}
	if _, ok := randomAddr(tp, 99, rng); ok {
		t.Fatal("unknown AS yielded an address")
	}
}

func TestFlowPacketsDDDoS(t *testing.T) {
	tp := weightedTopo(t)
	rng := rand.New(rand.NewSource(5))
	f := Flow{Kind: DDDoS, Agent: 1, Innocent: 2, Victim: 3}
	pkts, err := f.Packets(tp, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 50 {
		t.Fatalf("%d packets", len(pkts))
	}
	for _, p := range pkts {
		if owner, _ := tp.OwnerOf(p.Src); owner != 2 {
			t.Fatalf("d-DDoS src owned by AS%d, want innocent AS2", owner)
		}
		if owner, _ := tp.OwnerOf(p.Dst); owner != 3 {
			t.Fatalf("d-DDoS dst owned by AS%d, want victim AS3", owner)
		}
	}
}

func TestFlowPacketsSDDoS(t *testing.T) {
	tp := weightedTopo(t)
	rng := rand.New(rand.NewSource(6))
	f := Flow{Kind: SDDoS, Agent: 1, Innocent: 2, Victim: 3}
	pkts, err := f.Packets(tp, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if owner, _ := tp.OwnerOf(p.Src); owner != 3 {
			t.Fatalf("s-DDoS src owned by AS%d, want victim AS3", owner)
		}
		if owner, _ := tp.OwnerOf(p.Dst); owner != 2 {
			t.Fatalf("s-DDoS dst owned by AS%d, want reflector AS2", owner)
		}
	}
}

func TestFlowPacketsErrors(t *testing.T) {
	tp := weightedTopo(t)
	rng := rand.New(rand.NewSource(7))
	if _, err := (Flow{Kind: Kind(9), Agent: 1, Innocent: 2, Victim: 3}).Packets(tp, 1, rng); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := (Flow{Kind: DDDoS, Agent: 1, Innocent: 99, Victim: 3}).Packets(tp, 1, rng); err == nil {
		t.Fatal("unknown AS accepted")
	}
}

func TestKindString(t *testing.T) {
	if DDDoS.String() != "d-DDoS" || SDDoS.String() != "s-DDoS" {
		t.Fatal("Kind strings wrong")
	}
}

func TestResultDropRate(t *testing.T) {
	r := Result{Sent: 10, Dropped: 4}
	if r.DropRate() != 0.4 {
		t.Fatalf("DropRate = %v", r.DropRate())
	}
	if (Result{}).DropRate() != 0 {
		t.Fatal("empty DropRate should be 0")
	}
}
