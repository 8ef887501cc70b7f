package core

import (
	"net/netip"
	"testing"
	"time"

	"discs/internal/netsim"
	"discs/internal/obs"
	"discs/internal/topology"
)

// TestSystemUnifiedStats checks the observability contract of the
// redesigned API: one registry spans netsim, every controller and every
// router, with scope-prefixed names and a simulated-time stamp.
func TestSystemUnifiedStats(t *testing.T) {
	s := testInternet(t)
	deploy(t, s, 1001, 1004)

	snap := s.Stats()
	if snap.Get(netsim.MetricDelivered) == 0 {
		t.Fatal("netsim counters missing from the system registry")
	}
	if snap.Get("as1001."+MetricCtrlMsgsSent) == 0 || snap.Get("as1004."+MetricCtrlMsgsSent) == 0 {
		t.Fatalf("controller tallies missing: %v", snap.Names())
	}
	if snap.AtNanos != int64(s.Net.Sim.Now()) {
		t.Fatalf("snapshot stamped %d, sim now %d", snap.AtNanos, int64(s.Net.Sim.Now()))
	}
	if snap.GetGauge("as1001."+metricCtrlPeersEstablished) != 1 {
		t.Fatalf("peers_established gauge = %d, want 1",
			snap.GetGauge("as1001."+metricCtrlPeersEstablished))
	}
	// Con-con channel overhead is metered per controller.
	if snap.Get("as1001."+MetricCtrlBytesSealed) == 0 || snap.Get("as1001."+MetricCtrlBytesOpened) == 0 {
		t.Fatal("secure-channel byte meters not wired")
	}

	// The controller's own Stats() view trims the scope prefix.
	ctrl := s.Controllers[1001].Stats()
	if ctrl.Get(MetricCtrlMsgsSent) != snap.Get("as1001."+MetricCtrlMsgsSent) {
		t.Fatal("controller Stats() disagrees with the system snapshot")
	}

	// Data-plane counters aggregate across routers via Sum — the
	// replacement for the removed DataPlaneStats.
	res := s.SendV4(1001, mkV4("172.16.1.10", "172.16.4.10"))
	if !res.Delivered {
		t.Fatalf("delivery failed: %+v", res)
	}
	snap = s.Stats()
	if got := snap.Sum(MetricRouterOutProcessed); got != 1 {
		t.Fatalf("Sum(out_processed) = %d, want 1", got)
	}
	if got := snap.Sum(MetricRouterInProcessed); got != 1 {
		t.Fatalf("Sum(in_processed) = %d, want 1", got)
	}
	if s.Router(1001).Stats().OutProcessed != snap.Get("as1001."+MetricRouterOutProcessed) {
		t.Fatal("router typed view disagrees with the registry")
	}

	// Control-plane lifecycle left a trace: discovery through key
	// activation for both DASes, stamped in simulated time.
	evs := s.Registry().Tracer().Events()
	want := map[string]bool{
		obs.EvPeerDiscovered: false, obs.EvPeerEstablished: false,
		obs.EvKeyDeploy: false, obs.EvKeyActive: false,
	}
	for _, e := range evs {
		if _, ok := want[e.Kind]; ok {
			want[e.Kind] = true
		}
		if e.At < 0 || e.At > int64(s.Net.Sim.Now()) {
			t.Fatalf("event %q stamped outside simulated time: %d", e.Kind, e.At)
		}
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("no %q event traced (got %d events)", k, len(evs))
		}
	}
}

// TestSystemSampledPacketTracing checks that Config.TraceSampleEvery
// turns on data-plane packet sampling in routers built by Deploy.
func TestSystemSampledPacketTracing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceSampleEvery = 1 // sample every packet
	sTr := testInternetWithConfig(t, cfg)
	deployOn(t, sTr, 1001, 1004)
	res := sTr.SendV4(1001, mkV4("172.16.1.10", "172.16.4.10"))
	if !res.Delivered {
		t.Fatalf("delivery failed: %+v", res)
	}
	var samples int
	for _, e := range sTr.Registry().Tracer().Events() {
		if e.Kind == obs.EvPacketSample {
			samples++
			if e.Verdict == "" {
				t.Fatal("packet sample without a verdict")
			}
		}
	}
	if samples < 2 { // outbound at 1001 + inbound at 1004
		t.Fatalf("sampled %d packet events, want >= 2", samples)
	}
}

// TestObsBudget: instrumentation is free of allocations. The
// stamp+verify round trip through routers publishing into one shared
// registry, sampling every packet into the tracer, allocates nothing,
// and the counters and sampled verdicts land under each router's scope.
func TestObsBudget(t *testing.T) {
	key := make([]byte, 16)
	v := netip.MustParsePrefix("10.3.0.0/16")
	reg := obs.NewRegistry()

	pt := NewTables(1, testPfx2AS(t))
	pt.In[TableOutDst].Install(v, OpDPFilter, t0, time.Hour, 0)
	pt.In[TableOutDst].Install(v, OpCDPStamp, t0, time.Hour, 0)
	pt.Keys.SetStampKey(3, key)
	peer := mustRouterOpts(RouterOptions{
		Tables: pt, Seed: 1, Registry: reg, Scope: "as1.", AS: 1, TraceSampleEvery: 1,
	})
	vt := NewTables(3, testPfx2AS(t))
	vt.In[TableInDst].Install(v, OpCDPVerify, t0, time.Hour, 0)
	vt.Keys.SetVerifyKey(1, key)
	victim := mustRouterOpts(RouterOptions{
		Tables: vt, Seed: 2, Registry: reg, Scope: "as3.", AS: 3, TraceSampleEvery: 1,
	})

	now := t0.Add(time.Minute)
	p := samplePacketV4()
	p.Src = netip.MustParseAddr("10.1.0.10")
	allocs := testing.AllocsPerRun(2000, func() {
		if v := peer.ProcessOutbound(V4{p}, now); v != VerdictPassStamped {
			t.Fatalf("outbound %v", v)
		}
		if v := victim.ProcessInbound(V4{p}, now); v != VerdictPassVerified {
			t.Fatalf("inbound %v", v)
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented stamp+verify allocates %.1f/packet, want 0", allocs)
	}

	snap := reg.Snapshot()
	if snap.Get("as1."+MetricRouterOutStamped) == 0 {
		t.Fatal("outbound counters not registered under the peer scope")
	}
	if snap.Get("as3."+MetricRouterInVerified) == 0 {
		t.Fatal("inbound counters not registered under the victim scope")
	}
	if snap.Sum(MetricRouterMACsComputed) == 0 {
		t.Fatal("crypto counter missing")
	}
	var sampled bool
	for _, e := range reg.Tracer().Events() {
		if e.Kind == obs.EvPacketSample && e.Verdict != "" {
			sampled = true
			break
		}
	}
	if !sampled {
		t.Fatal("no packet.sample event with a verdict in the ring")
	}
}

// testInternetWithConfig is testInternet with a caller-chosen Config.
func testInternetWithConfig(t *testing.T, cfg Config) *System {
	t.Helper()
	s := testInternet(t)
	// Rebuild the system wrapper with the requested config; the BGP
	// network (and its simulator/registry) carries over.
	return testSystem(t, s.Net, cfg)
}

// deployOn deploys and then runs long enough for key activation.
func deployOn(t *testing.T, s *System, asns ...topology.ASN) {
	t.Helper()
	for i, asn := range asns {
		if _, err := s.Deploy(asn, int64(100+i)); err != nil {
			t.Fatalf("Deploy(AS%d): %v", asn, err)
		}
	}
	if err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	// Let heartbeats and key activation finish.
	s.Net.Sim.Run(s.Net.Sim.Now() + 30*time.Second)
}
