package qos

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"discs/internal/core"
	"discs/internal/lpm"
	"discs/internal/packet"
	"discs/internal/topology"
)

// TestClassOf maps verdicts.
func TestClassOf(t *testing.T) {
	if ClassOf(core.VerdictPassVerified) != High {
		t.Fatal("verified must be high")
	}
	for _, v := range []core.Verdict{core.VerdictPass, core.VerdictPassStamped, core.VerdictPassAlarm, core.VerdictDrop} {
		if ClassOf(v) != Low {
			t.Fatalf("%v must be low", v)
		}
	}
}

// buildCDP builds the stamping peer and verifying victim used by the
// uplink scenario.
func buildCDP(t testing.TB) (peer, victim *core.BorderRouter) {
	pfx := lpm.New[topology.ASN]()
	pfx.Insert(netip.MustParsePrefix("10.1.0.0/16"), 1)
	pfx.Insert(netip.MustParsePrefix("10.3.0.0/16"), 3)
	key := make([]byte, 16)
	t0 := time.Unix(0, 0).UTC()
	v := netip.MustParsePrefix("10.3.0.0/16")

	pt := core.NewTables(1, pfx)
	pt.In[core.TableOutDst].Install(v, core.OpCDPStamp, t0, time.Hour, 0)
	pt.Keys.SetStampKey(3, key)
	peer, err := core.NewBorderRouterWithOptions(core.RouterOptions{Tables: pt, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	vt := core.NewTables(3, pfx)
	vt.In[core.TableInDst].Install(v, core.OpCDPVerify, t0, time.Hour, 0)
	vt.Keys.SetVerifyKey(1, key)
	victim, err = core.NewBorderRouterWithOptions(core.RouterOptions{Tables: vt, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return peer, victim
}

// TestUplinkScenario is the full §I claim: under a bandwidth-
// overwhelming d-DDoS, a DISCS victim classifies inbound packets by
// CDP verification and protects collaborator goodput with a priority
// queue, while an MEF-style victim (no classification) loses ~99% of
// the same legitimate traffic.
func TestUplinkScenario(t *testing.T) {
	peer, victim := buildCDP(t)
	now := time.Unix(0, 0).UTC().Add(time.Minute)
	rng := rand.New(rand.NewSource(7))

	const legitPPS, attackPPS, capacityPPS = 300, 5000, 1000
	mk := func(src string, stamped bool, id int, at time.Duration) (Packet, bool) {
		p := &packet.IPv4{
			TTL: 64, Protocol: packet.ProtoUDP,
			Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr("10.3.0.1"),
			Payload: []byte{byte(id), byte(id >> 8), byte(id >> 16), byte(rng.Intn(256))},
		}
		if stamped {
			if v := peer.ProcessOutbound(core.V4{P: p}, now); v != core.VerdictPassStamped {
				t.Fatalf("stamping failed: %v", v)
			}
		}
		verdict := victim.ProcessInbound(core.V4{P: p}, now)
		if verdict.Dropped() {
			return Packet{}, false
		}
		return Packet{Arrival: at, Class: ClassOf(verdict), ID: id}, true
	}

	var pkts []Packet
	legitIDs := map[int]bool{}
	id := 0
	legitGap := time.Second / time.Duration(legitPPS)
	for i := 0; i < legitPPS; i++ {
		p, ok := mk("10.1.0.10", true, id, time.Duration(i)*legitGap)
		if !ok {
			t.Fatal("legit packet dropped at verification")
		}
		legitIDs[id] = true
		pkts = append(pkts, p)
		id++
	}
	// Attack from a legacy AS spoofing random sources: unverifiable
	// but not droppable (no key for the spoofed source ASes).
	attackGap := time.Second / time.Duration(attackPPS)
	for i := 0; i < attackPPS; i++ {
		p, ok := mk("198.51.100.7", false, id, time.Duration(i)*attackGap)
		if !ok {
			t.Fatal("unexpected drop of unverifiable packet")
		}
		pkts = append(pkts, p)
		id++
	}

	q := Queue{ServicePPS: capacityPPS, BufferPerClass: 32}
	out, err := q.Run(pkts)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(out)
	if g := s.GoodputRate(High); g < 0.99 {
		t.Fatalf("DISCS victim: collaborator goodput = %v, want ≈1", g)
	}

	// MEF-style: same packets, no classification.
	flat := make([]Packet, len(pkts))
	for i, p := range pkts {
		p.Class = Low
		flat[i] = p
	}
	out2, err := q.Run(flat)
	if err != nil {
		t.Fatal(err)
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
	mefGoodput := float64(deliv) / float64(offered)
	// EXPERIMENTS.md records ≈1 % (0.010).
	if mefGoodput > 0.02 {
		t.Fatalf("MEF-style goodput = %v, recorded ≈0.01; overload scenario not overwhelming", mefGoodput)
	}
	t.Logf("legit goodput: DISCS=%.3f MEF-style=%.3f", s.GoodputRate(High), mefGoodput)
}

// BenchmarkUplinkClassification measures the classify-and-enqueue
// pipeline (verification + queue admission) per packet.
func BenchmarkUplinkClassification(b *testing.B) {
	peer, victim := buildCDP(b)
	now := time.Unix(0, 0).UTC().Add(time.Minute)
	p := &packet.IPv4{
		TTL: 64, Protocol: packet.ProtoUDP,
		Src: netip.MustParseAddr("10.1.0.10"), Dst: netip.MustParseAddr("10.3.0.1"),
		Payload: []byte("qos bench"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := p.Clone()
		peer.ProcessOutbound(core.V4{P: q}, now)
		v := victim.ProcessInbound(core.V4{P: q}, now)
		if ClassOf(v) != High {
			b.Fatal("classification failed")
		}
	}
}
