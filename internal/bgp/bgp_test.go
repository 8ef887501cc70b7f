package bgp

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"discs/internal/netsim"
	"discs/internal/topology"
)

// buildTopo creates a small labelled topology:
//
//	    T1 ──peer── T2          (tier 1)
//	    /  \          \
//	  M1    M2         M3       (mid: customers of tier 1)
//	 /  \     \       /
//	S1   S2    S3   S4          (stubs)
func buildTopo(t *testing.T) *topology.Topology {
	t.Helper()
	tp := topology.New()
	names := map[string]topology.ASN{
		"T1": 10, "T2": 20, "M1": 100, "M2": 200, "M3": 300,
		"S1": 1001, "S2": 1002, "S3": 1003, "S4": 1004,
	}
	for _, asn := range names {
		if _, err := tp.AddAS(asn); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b string, rel topology.Relationship) {
		if err := tp.Link(names[a], names[b], rel); err != nil {
			t.Fatal(err)
		}
	}
	link("T1", "T2", topology.PeerToPeer)
	link("M1", "T1", topology.CustomerToProvider)
	link("M2", "T1", topology.CustomerToProvider)
	link("M3", "T2", topology.CustomerToProvider)
	link("S1", "M1", topology.CustomerToProvider)
	link("S2", "M1", topology.CustomerToProvider)
	link("S3", "M2", topology.CustomerToProvider)
	link("S4", "M3", topology.CustomerToProvider)
	// Prefixes: one per AS, 10.<asn/100>.<asn%100>.0/24 style.
	pfx := map[string]string{
		"T1": "10.0.0.0/16", "T2": "20.0.0.0/16", "M1": "100.0.0.0/16",
		"M2": "100.1.0.0/16", "M3": "100.2.0.0/16",
		"S1": "172.16.1.0/24", "S2": "172.16.2.0/24", "S3": "172.16.3.0/24", "S4": "172.16.4.0/24",
	}
	for name, p := range pfx {
		if err := tp.AddPrefix(names[name], netip.MustParsePrefix(p)); err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

func converged(t *testing.T) *Network {
	t.Helper()
	tp := buildTopo(t)
	net, err := BuildNetwork(tp, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestFullReachability(t *testing.T) {
	net := converged(t)
	// Every speaker must have a route to every prefix.
	for _, asn := range net.Topo.ASNs() {
		sp := net.Speakers[asn]
		for _, other := range net.Topo.ASNs() {
			for _, p := range net.Topo.AS(other).Prefixes {
				r, ok := sp.LocRib(p)
				if other == asn {
					if !ok || !r.Local {
						t.Fatalf("AS%d missing local route %v", asn, p)
					}
					continue
				}
				if !ok {
					t.Fatalf("AS%d has no route to %v (AS%d)", asn, p, other)
				}
				// The path must end at the originator.
				if r.ASPath[len(r.ASPath)-1] != other {
					t.Fatalf("AS%d route to %v ends at AS%d", asn, p, r.ASPath[len(r.ASPath)-1])
				}
			}
		}
	}
}

func TestPathsAreValleyFree(t *testing.T) {
	net := converged(t)
	for _, asn := range net.Topo.ASNs() {
		sp := net.Speakers[asn]
		for _, p := range sp.Routes() {
			r, _ := sp.LocRib(p)
			if r.Local {
				continue
			}
			full := append([]topology.ASN{asn}, r.ASPath...)
			if err := net.Topo.ValidateValleyFree(full); err != nil {
				t.Fatalf("AS%d route to %v: %v (path %v)", asn, p, err, full)
			}
		}
	}
}

func TestCustomerRoutePreferred(t *testing.T) {
	// M1 learns S1's prefix directly from its customer S1. Even though
	// T1 may also offer it, the customer route must win.
	net := converged(t)
	r, ok := net.Speakers[100].LocRib(netip.MustParsePrefix("172.16.1.0/24"))
	if !ok || r.From != 1001 {
		t.Fatalf("M1 route to S1 = %+v, want via customer 1001", r)
	}
	if r.FromRel != topology.ProviderToCustomer {
		t.Fatalf("FromRel = %v", r.FromRel)
	}
}

func TestNoTransitThroughPeersForPeers(t *testing.T) {
	// Gao-Rexford: T1 must not export peer T2's routes to its peer...
	// T1 has only one peer; check instead that a stub's route through a
	// peer link is only reachable downhill: M1's route to M3's prefix
	// goes via T1 then the T1-T2 peer link.
	net := converged(t)
	r, ok := net.Speakers[100].LocRib(netip.MustParsePrefix("100.2.0.0/16"))
	if !ok {
		t.Fatal("M1 has no route to M3")
	}
	want := []topology.ASN{10, 20, 300}
	if len(r.ASPath) != len(want) {
		t.Fatalf("ASPath = %v, want %v", r.ASPath, want)
	}
	for i := range want {
		if r.ASPath[i] != want[i] {
			t.Fatalf("ASPath = %v, want %v", r.ASPath, want)
		}
	}
}

func TestLoopPrevention(t *testing.T) {
	net := converged(t)
	// No route's AS path may contain the speaker's own ASN.
	for _, asn := range net.Topo.ASNs() {
		sp := net.Speakers[asn]
		for _, p := range sp.Routes() {
			r, _ := sp.LocRib(p)
			for _, hop := range r.ASPath {
				if hop == asn {
					t.Fatalf("AS%d has looped path %v for %v", asn, r.ASPath, p)
				}
			}
		}
	}
}

func TestWithdraw(t *testing.T) {
	net := converged(t)
	s1 := net.Speakers[1001]
	p := netip.MustParsePrefix("172.16.1.0/24")
	// Simulate S1 withdrawing: send withdraw to M1 directly.
	ri, _ := s1.rowFor(p)
	row := &s1.rows[ri]
	s1.exportWithdraw(row.pid, row.best, nil)
	row.best = locRoute{slot: slotNone}
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	for _, asn := range net.Topo.ASNs() {
		if asn == 1001 {
			continue
		}
		if r, ok := net.Speakers[asn].LocRib(p); ok {
			t.Fatalf("AS%d still has withdrawn route %v via %v", asn, p, r.ASPath)
		}
	}
}

func TestDISCSAdEncodeDecode(t *testing.T) {
	ad := DISCSAd{Origin: 64500, Controller: "controller.as64500.example"}
	got, err := decodeDISCSAd(ad.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != ad {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := decodeDISCSAd([]byte{1, 2}); err == nil {
		t.Fatal("short Ad should fail")
	}
	attr := NewDISCSAdAttr(ad)
	if attr.Flags&attrFlagOptional == 0 || attr.Flags&attrFlagTransitive == 0 {
		t.Fatal("DISCS-Ad attribute must be optional transitive")
	}
}

func TestDISCSAdPropagatesInternetWide(t *testing.T) {
	net := converged(t)
	// S1 deploys DISCS: its controller re-originates S1's prefix with
	// the Ad attached.
	ad := DISCSAd{Origin: 1001, Controller: "ctrl.s1"}
	if err := net.Speakers[1001].ReOriginate(netip.MustParsePrefix("172.16.1.0/24"), NewDISCSAdAttr(ad)); err != nil {
		t.Fatal(err)
	}
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	// Every other AS (all "legacy") must have seen the Ad: optional
	// transitive attributes are retained and propagated.
	for _, asn := range net.Topo.ASNs() {
		if asn == 1001 {
			continue
		}
		ads := net.Speakers[asn].KnownAds()
		if len(ads) != 1 || ads[0] != ad {
			t.Fatalf("AS%d ads = %+v", asn, ads)
		}
	}
}

func TestAdHandlerFiresOncePerOrigin(t *testing.T) {
	net := converged(t)
	count := 0
	net.Speakers[1004].OnAd(func(ad DISCSAd) { count++ })
	ad := DISCSAd{Origin: 1001, Controller: "ctrl.s1"}
	net.Speakers[1001].ReOriginate(netip.MustParsePrefix("172.16.1.0/24"), NewDISCSAdAttr(ad))
	net.Converge()
	// Re-announce same Ad: no duplicate callback.
	net.Speakers[1001].ReOriginate(netip.MustParsePrefix("172.16.1.0/24"), NewDISCSAdAttr(ad))
	net.Converge()
	if count != 1 {
		t.Fatalf("handler fired %d times, want 1", count)
	}
	// A changed controller name fires again.
	net.Speakers[1001].ReOriginate(netip.MustParsePrefix("172.16.1.0/24"),
		NewDISCSAdAttr(DISCSAd{Origin: 1001, Controller: "ctrl2.s1"}))
	net.Converge()
	if count != 2 {
		t.Fatalf("handler fired %d times after change, want 2", count)
	}
}

func TestMultipleDASesDiscoverEachOther(t *testing.T) {
	net := converged(t)
	deployers := []topology.ASN{1001, 1003, 300}
	prefixes := map[topology.ASN]string{1001: "172.16.1.0/24", 1003: "172.16.3.0/24", 300: "100.2.0.0/16"}
	for _, asn := range deployers {
		ad := DISCSAd{Origin: asn, Controller: "ctrl"}
		if err := net.Speakers[asn].ReOriginate(netip.MustParsePrefix(prefixes[asn]), NewDISCSAdAttr(ad)); err != nil {
			t.Fatal(err)
		}
	}
	net.Converge()
	for _, asn := range deployers {
		ads := net.Speakers[asn].KnownAds()
		// Each deployer sees the other two.
		if len(ads) != 2 {
			t.Fatalf("AS%d sees %d ads: %+v", asn, len(ads), ads)
		}
	}
}

func TestReOriginateUnknownPrefix(t *testing.T) {
	net := converged(t)
	err := net.Speakers[1001].ReOriginate(netip.MustParsePrefix("9.9.9.0/24"))
	if err == nil {
		t.Fatal("ReOriginate of foreign prefix should fail")
	}
}

func TestUpdateSize(t *testing.T) {
	tabs := newTables()
	attrs := tabs.internAttrs([]Attr{{Code: attrCodeDISCSAd, Data: make([]byte, 10)}})
	u := update{From: 1, attrs: attrs, hops: 3}
	if got, want := tabs.size(u), 23+5+2*3+3+10; got != want {
		t.Fatalf("announcement size = %d, want %d", got, want)
	}
	if got := tabs.size(update{From: 1, Withdrawn: true}); got != 23+5 {
		t.Fatalf("withdrawal size = %d, want %d", got, 23+5)
	}
	if got := updateOf(u.value()); got != u {
		t.Fatalf("update %+v reads back as %+v", u, got)
	}
}

// TestUpdatePathZeroAlloc: an UPDATE is a value end to end. Export, the
// link delivery, the copy of its path into another shard's arena at the
// epoch barrier, receive and re-export allocate nothing once the RIBs,
// arenas and queues have seen the traffic — within one shard and across
// two.
func TestUpdatePathZeroAlloc(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			net, err := BuildNetwork(buildTopo(t), time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			net.AssignShards(shards)
			eng, err := net.Sim.Relane(netsim.Options{Shards: shards, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			cross := 0
			for _, sp := range net.Speakers {
				for _, n := range sp.nbrs {
					if n.link.Neighbor(sp.node).Shard() != sp.node.Shard() {
						cross++
					}
				}
			}
			if (cross > 0) != (shards > 1) {
				t.Fatalf("%d cross-shard sessions over %d shards", cross, shards)
			}
			net.OriginateAll()
			if err := net.Converge(); err != nil {
				t.Fatal(err)
			}
			// Flip the attributes of T1's route between two interned sets:
			// every speaker takes the change and exports it again.
			origin := net.Speakers[10]
			ri, _ := origin.rowFor(netip.MustParsePrefix("10.0.0.0/16"))
			attrs := [2]uint32{0, net.tabs.internAttrs([]Attr{{Flags: attrFlagOptional | attrFlagTransitive, Code: 99, Data: []byte{1}}})}
			flips := 0
			flip := func() {
				flips++
				row := &origin.rows[ri]
				row.best.attrs = attrs[flips%2]
				origin.export(row.pid, row.best)
				if err := net.Converge(); err != nil {
					t.Fatal(err)
				}
			}
			recv := func() (n uint64) {
				for _, sp := range net.Speakers {
					n += sp.UpdatesRecv
				}
				return n
			}
			flip()
			flip()
			before := recv()
			if allocs := testing.AllocsPerRun(50, flip); allocs != 0 {
				t.Fatalf("an UPDATE wave allocates %.1f/op at steady state, want 0", allocs)
			}
			if per := (recv() - before) / 51; per < uint64(len(net.Speakers)-1) {
				t.Fatalf("%d UPDATEs received per flip, want one per speaker but the origin", per)
			}
		})
	}
}

func TestConvergenceMessageCountBounded(t *testing.T) {
	net := converged(t)
	var total uint64
	for _, sp := range net.Speakers {
		total += sp.UpdatesSent
	}
	// 9 ASes × 9 prefixes with policy filtering: should be well under
	// a full O(N^2·E) blowup.
	if total == 0 || total > 2000 {
		t.Fatalf("total updates = %d", total)
	}
}

func TestBestPathStability(t *testing.T) {
	// Converging twice from scratch yields identical Loc-RIBs
	// (determinism of the whole stack).
	a := converged(t)
	b := converged(t)
	for _, asn := range a.Topo.ASNs() {
		ra, rb := a.Speakers[asn], b.Speakers[asn]
		pa, pb := ra.Routes(), rb.Routes()
		if len(pa) != len(pb) {
			t.Fatalf("AS%d: %d vs %d routes", asn, len(pa), len(pb))
		}
		for i := range pa {
			x, _ := ra.LocRib(pa[i])
			y, _ := rb.LocRib(pb[i])
			if x.From != y.From || len(x.ASPath) != len(y.ASPath) {
				t.Fatalf("AS%d route %v differs between runs", asn, pa[i])
			}
		}
	}
}
