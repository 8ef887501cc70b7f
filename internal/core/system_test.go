package core

import (
	"net/netip"
	"testing"
	"time"

	"discs/internal/bgp"
	"discs/internal/netsim"
	"discs/internal/obs"
	"discs/internal/topology"
)

func TestSendV4UnroutableDestination(t *testing.T) {
	s := testInternet(t)
	res := s.SendV4(1001, mkV4("172.16.1.10", "203.0.113.9"))
	if res.Delivered {
		t.Fatal("unroutable destination delivered")
	}
	if res.DroppedAt != 1001 {
		t.Fatalf("dropped at %d", res.DroppedAt)
	}
}

func TestSendV4IntraAS(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001)
	// Same-AS traffic never crosses the border: no inbound processing.
	res := s.SendV4(1001, mkV4("172.16.1.10", "172.16.1.20"))
	if !res.Delivered {
		t.Fatalf("intra-AS traffic dropped: %+v", res)
	}
}

func TestSendV4TTLBoundaries(t *testing.T) {
	s := testInternet(t)
	// Path 1001→1004 is 6 ASes; every border beyond the source
	// decrements, so TTL=6 is the minimum that reaches the destination.
	p := mkV4("172.16.1.10", "172.16.4.10")
	p.TTL = 6
	if res := s.SendV4(1001, p); !res.Delivered {
		t.Fatalf("TTL=6 should just reach: %+v", res)
	}
	q := mkV4("172.16.1.10", "172.16.4.10")
	q.TTL = 5
	res := s.SendV4(1001, q)
	if res.Delivered || !res.TTLExpired {
		t.Fatalf("TTL=5 should expire: %+v", res)
	}
	if res.DroppedAt != 1004 {
		t.Fatalf("TTL=5 should die at the last border, got AS%d", res.DroppedAt)
	}
	if res.ICMPReturned == nil {
		t.Fatal("no ICMP time-exceeded returned")
	}
	if res.ICMPReturned.Dst != q.Src {
		t.Fatalf("ICMP went to %v", res.ICMPReturned.Dst)
	}
}

func TestSendV6UnroutableAndHopLimit(t *testing.T) {
	s := testInternet(t)
	if err := s.Net.Topo.AddPrefix(1001, netip.MustParsePrefix("2001:db8:1::/48")); err != nil {
		t.Fatal(err)
	}
	if err := s.Net.Topo.AddPrefix(1004, netip.MustParsePrefix("2001:db8:4::/48")); err != nil {
		t.Fatal(err)
	}
	p := samplePacketV6()
	p.Src = netip.MustParseAddr("2001:db8:1::1")
	p.Dst = netip.MustParseAddr("2001:db8:ffff::1") // unrouted
	if res := s.SendV6(1001, p); res.Delivered {
		t.Fatal("unroutable v6 delivered")
	}
	q := samplePacketV6()
	q.Src = netip.MustParseAddr("2001:db8:1::1")
	q.Dst = netip.MustParseAddr("2001:db8:4::1")
	q.HopLimit = 2
	res := s.SendV6(1001, q)
	if res.Delivered || !res.TTLExpired {
		t.Fatalf("hop limit 2 should expire: %+v", res)
	}
}

// TestControlPlaneScale deploys many DASes on a generated Internet and
// checks that the full peering mesh, key exchange, and a broadcast
// invocation all complete.
func TestControlPlaneScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test in -short mode")
	}
	tp, err := topology.GenerateInternet(topology.GenConfig{
		NumASes: 250, NumPrefixes: 600, ZipfExponent: 1.0, TierOneCount: 5, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := bgp.BuildNetwork(tp, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	s := testSystem(t, net, DefaultConfig())
	const nDAS = 16
	deployers := tp.BySizeDesc()[:nDAS]
	for i, asn := range deployers {
		if _, err := s.Deploy(asn, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	// Full mesh: every DAS peers with every other.
	for _, asn := range deployers {
		c := s.Controllers[asn]
		if got := len(c.Peers()); got != nDAS-1 {
			t.Fatalf("AS%d has %d peers, want %d", asn, got, nDAS-1)
		}
		for _, peer := range c.Peers() {
			if !c.KeysReadyWith(peer) {
				t.Fatalf("AS%d keys not ready with AS%d", asn, peer)
			}
		}
	}
	// Broadcast invocation from the smallest deployer.
	victim := s.Controllers[deployers[nDAS-1]]
	n, err := victim.Invoke(Invocation{
		Prefixes: victim.OwnPrefixes(), Function: DP, Duration: time.Hour,
	})
	if err != nil || n != nDAS-1 {
		t.Fatalf("Invoke → %d peers, %v", n, err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if victim.Stats().Get(MetricCtrlInvokesAccepted) != uint64(nDAS-1) {
		t.Fatalf("accepted %d/%d invocations", victim.Stats().Get(MetricCtrlInvokesAccepted), nDAS-1)
	}
}

// TestSendV4Allocs: a delivered packet through two DISCS borders costs
// one allocation, the hop record it returns; the AS path is walked into
// a stack buffer.
func TestSendV4Allocs(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)
	if _, err := s.Controllers[1004].Invoke(Invocation{
		Prefixes: []netip.Prefix{netip.MustParsePrefix("172.16.4.0/24")},
		Function: CDP, Duration: 24 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	s.Net.Sim.After(DefaultGrace+time.Second, func() {}) // strict verification
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	pkt := samplePacketV4()
	pkt.Src = netip.MustParseAddr("172.16.1.10")
	pkt.Dst = netip.MustParseAddr("172.16.4.10")
	var res DeliveryResult
	allocs := testing.AllocsPerRun(100, func() {
		pkt.TTL = 64
		res = s.SendV4(1001, pkt)
	})
	if !res.Delivered || len(res.Hops) != 2 || res.Hops[1].Verdict != VerdictPassVerified {
		t.Fatalf("SendV4 = %+v, want delivered and verified", res)
	}
	if allocs > 1 {
		t.Errorf("SendV4: %v allocs per delivered packet, want <= 1", allocs)
	}
}

// TestEngineMetricsFollowRegistry: a system given its own registry
// moves the simulator into it, and the engine's counters move along.
// Every event and epoch after the move lands in the system's registry,
// none in the simulator's old one.
func TestEngineMetricsFollowRegistry(t *testing.T) {
	net, err := bgp.BuildNetwork(testTopology(t), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.AssignShards(2)
	eng, err := net.Sim.Relane(netsim.Options{Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	old := net.Sim.Registry()
	cfg := DefaultConfig()
	cfg.Registry = obs.NewRegistry()
	s := testSystem(t, net, cfg)
	before := old.Snapshot()
	deploy(t, s, 1001, 1004)
	after, sys := old.Snapshot(), cfg.Registry.Snapshot()
	for _, name := range []string{netsim.MetricEvents, netsim.MetricEpochs} {
		if after.Get(name) != before.Get(name) {
			t.Errorf("%s grew in the old registry: %d -> %d", name, before.Get(name), after.Get(name))
		}
		if sys.Get(name) <= before.Get(name) {
			t.Errorf("%s = %d in the system registry, want more than the %d carried over", name, sys.Get(name), before.Get(name))
		}
	}
}
