package bgp

import (
	"net/netip"
	"testing"
	"time"

	"discs/internal/topology"
)

// multihomedTopo: stub S is a customer of both M1 and M2, which are
// customers of T. A link failure S-M1 must reroute via M2.
//
//	   T (10)
//	  /      \
//	M1(100)  M2(200)
//	  \      /
//	   S (1000)
func multihomedTopo(t *testing.T) *topology.Topology {
	t.Helper()
	tp := topology.New()
	for _, a := range []topology.ASN{10, 100, 200, 1000} {
		if _, err := tp.AddAS(a); err != nil {
			t.Fatal(err)
		}
	}
	links := []struct{ a, b topology.ASN }{
		{100, 10}, {200, 10}, {1000, 100}, {1000, 200},
	}
	for _, l := range links {
		if err := tp.Link(l.a, l.b, topology.CustomerToProvider); err != nil {
			t.Fatal(err)
		}
	}
	for a, p := range map[topology.ASN]string{
		10: "10.0.0.0/16", 100: "10.1.0.0/16", 200: "10.2.0.0/16", 1000: "172.16.0.0/16",
	} {
		if err := tp.AddPrefix(a, netip.MustParsePrefix(p)); err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

func convergedMultihomed(t *testing.T) *Network {
	t.Helper()
	net, err := BuildNetwork(multihomedTopo(t), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestLinkFailureReroutesToBackup(t *testing.T) {
	net := convergedMultihomed(t)
	sPfx := netip.MustParsePrefix("172.16.0.0/16")

	// Before failure: T prefers the lower-ASN customer path (via 100).
	r, ok := net.Speakers[10].LocRib(sPfx)
	if !ok || r.From != 100 {
		t.Fatalf("pre-failure route = %+v", r)
	}

	if !net.FailLink(1000, 100) {
		t.Fatal("FailLink found no link")
	}
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	// After failure: rerouted via M2.
	r, ok = net.Speakers[10].LocRib(sPfx)
	if !ok || r.From != 200 {
		t.Fatalf("post-failure route = %+v, want via 200", r)
	}
	// M1 reaches S only via its provider now (T → M2 → S is a valley
	// from M1's perspective... M1-T-M2-S is up, down, down: valid).
	r, ok = net.Speakers[100].LocRib(sPfx)
	if !ok || r.From != 10 {
		t.Fatalf("M1 route = %+v, want via provider 10", r)
	}
	full := append([]topology.ASN{100}, r.ASPath...)
	// Note: the physical link 1000-100 is down, but the topology object
	// still lists it; validate only the used hops exist in the graph.
	if err := net.Topo.ValidateValleyFree(full); err != nil {
		t.Fatalf("rerouted path invalid: %v", err)
	}
}

func TestLinkFailureIsolatesSingleHomed(t *testing.T) {
	// Remove the backup: fail both of S's uplinks → its prefix must be
	// withdrawn everywhere.
	net := convergedMultihomed(t)
	sPfx := netip.MustParsePrefix("172.16.0.0/16")
	net.FailLink(1000, 100)
	net.FailLink(1000, 200)
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	for _, asn := range []topology.ASN{10, 100, 200} {
		if r, ok := net.Speakers[asn].LocRib(sPfx); ok {
			t.Fatalf("AS%d still routes to isolated stub via %v", asn, r.ASPath)
		}
	}
}

func TestLinkRestoreRecovers(t *testing.T) {
	net := convergedMultihomed(t)
	sPfx := netip.MustParsePrefix("172.16.0.0/16")
	net.FailLink(1000, 100)
	net.Converge()
	if !net.RestoreLink(1000, 100) {
		t.Fatal("RestoreLink found no link")
	}
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	// T prefers via 100 again (lower neighbor ASN tie-break).
	r, ok := net.Speakers[10].LocRib(sPfx)
	if !ok || r.From != 100 {
		t.Fatalf("post-restore route = %+v", r)
	}
	// And S regains full reachability.
	for _, p := range []string{"10.0.0.0/16", "10.1.0.0/16", "10.2.0.0/16"} {
		if _, ok := net.Speakers[1000].LocRib(netip.MustParsePrefix(p)); !ok {
			t.Fatalf("S missing route to %s after restore", p)
		}
	}
}

func TestFailLinkUnknown(t *testing.T) {
	net := convergedMultihomed(t)
	if net.FailLink(10, 1000) {
		t.Fatal("FailLink invented a link")
	}
	if net.FailLink(10, 9999) {
		t.Fatal("FailLink accepted unknown AS")
	}
	if net.RestoreLink(10, 9999) {
		t.Fatal("RestoreLink accepted unknown AS")
	}
}

// TestDISCSAdSurvivesRouteChange: a DISCS-Ad learned before a route
// change stays known (Ads are remembered, not revoked by routing).
func TestDISCSAdSurvivesRouteChange(t *testing.T) {
	net := convergedMultihomed(t)
	ad := DISCSAd{Origin: 1000, Controller: "ctrl.s"}
	if err := net.Speakers[1000].ReOriginate(netip.MustParsePrefix("172.16.0.0/16"), NewDISCSAdAttr(ad)); err != nil {
		t.Fatal(err)
	}
	net.Converge()
	if ads := net.Speakers[10].KnownAds(); len(ads) != 1 {
		t.Fatalf("ads = %v", ads)
	}
	net.FailLink(1000, 100)
	net.Converge()
	if ads := net.Speakers[10].KnownAds(); len(ads) != 1 || ads[0] != ad {
		t.Fatalf("Ad lost after route change: %v", ads)
	}
}
