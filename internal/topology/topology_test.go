package topology

import (
	"math"
	"net/netip"
	"slices"
	"testing"
)

func mustAS(t *testing.T, tp *Topology, asn ASN) *AS {
	t.Helper()
	a, err := tp.AddAS(asn)
	if err != nil {
		t.Fatalf("AddAS(%d): %v", asn, err)
	}
	return a
}

func mustLink(t *testing.T, tp *Topology, a, b ASN, rel Relationship) {
	t.Helper()
	if err := tp.Link(a, b, rel); err != nil {
		t.Fatalf("Link(%d,%d,%v): %v", a, b, rel, err)
	}
}

func mustPrefix(t *testing.T, tp *Topology, asn ASN, s string) {
	t.Helper()
	if err := tp.AddPrefix(asn, netip.MustParsePrefix(s)); err != nil {
		t.Fatalf("AddPrefix(%d,%s): %v", asn, s, err)
	}
}

func TestAddASValidation(t *testing.T) {
	tp := New()
	mustAS(t, tp, 1)
	if _, err := tp.AddAS(1); err == nil {
		t.Error("duplicate AS should fail")
	}
	if _, err := tp.AddAS(0); err == nil {
		t.Error("AS 0 should be rejected")
	}
	if tp.NumASes() != 1 {
		t.Errorf("NumASes = %d", tp.NumASes())
	}
}

// The dense index is the insertion position, whatever the ASNs: small
// and consecutive, spread over the 32-bit range, or colliding in the
// index's hash.
func TestIndexIsInsertionOrder(t *testing.T) {
	tp := New()
	var asns []ASN
	for i := 0; i < 3000; i++ {
		asn := ASN(i + 1)
		switch i % 3 {
		case 1:
			asn = ASN(math.MaxUint32 - i)
		case 2:
			asn = ASN(i) << 20 // many share their low bits
		}
		mustAS(t, tp, asn)
		asns = append(asns, asn)
	}
	for i, asn := range asns {
		if got, ok := tp.Index(asn); !ok || got != i {
			t.Fatalf("Index(%d) = %d %v, want %d", asn, got, ok, i)
		}
		if tp.AS(asn).ASN != asn || tp.ASNs()[i] != asn {
			t.Fatalf("AS %d not at index %d", asn, i)
		}
	}
	for _, asn := range []ASN{0, 3001, 7 << 20, math.MaxUint32 - 2} {
		if i, ok := tp.Index(asn); ok {
			t.Fatalf("Index(%d) = %d, want absent", asn, i)
		}
		if tp.AS(asn) != nil {
			t.Fatalf("AS(%d) found", asn)
		}
	}
	if tp.NumASes() != len(asns) {
		t.Fatalf("NumASes = %d, want %d", tp.NumASes(), len(asns))
	}
}

func TestLinkRelationships(t *testing.T) {
	tp := New()
	mustAS(t, tp, 1)
	mustAS(t, tp, 2)
	mustAS(t, tp, 3)
	mustLink(t, tp, 1, 2, CustomerToProvider)
	mustLink(t, tp, 1, 3, PeerToPeer)

	a1, a2, a3 := tp.AS(1), tp.AS(2), tp.AS(3)
	if len(a1.Providers) != 1 || a1.Providers[0] != 2 {
		t.Errorf("AS1 providers = %v", a1.Providers)
	}
	if len(a2.Customers) != 1 || a2.Customers[0] != 1 {
		t.Errorf("AS2 customers = %v", a2.Customers)
	}
	if len(a1.Peers) != 1 || len(a3.Peers) != 1 {
		t.Error("peer link not symmetric")
	}
	if !tp.connected(1, 2) || !tp.connected(2, 1) || tp.connected(2, 3) {
		t.Error("Connected wrong")
	}
	if err := tp.Link(1, 1, PeerToPeer); err == nil {
		t.Error("self link should fail")
	}
	if err := tp.Link(1, 99, PeerToPeer); err == nil {
		t.Error("unknown AS should fail")
	}
}

// TestLinkAllMatchesLink: linkAll leaves every neighbour list as the
// same links added one by one with Link would, also when a second batch
// lands on lists the first one sized exactly, and appending to a list
// later never writes into another AS's list.
func TestLinkAllMatchesLink(t *testing.T) {
	batches := [][]link{
		{{1, 2, PeerToPeer}, {3, 1, CustomerToProvider}, {4, 1, CustomerToProvider}, {4, 3, CustomerToProvider}, {2, 5, ProviderToCustomer}},
		{{3, 5, PeerToPeer}, {1, 5, PeerToPeer}, {6, 2, CustomerToProvider}},
	}
	one, all := New(), New()
	for asn := ASN(1); asn <= 6; asn++ {
		mustAS(t, one, asn)
		mustAS(t, all, asn)
	}
	for _, batch := range batches {
		for _, l := range batch {
			if err := one.Link(l.a, l.b, l.rel); err != nil {
				t.Fatal(err)
			}
		}
		all.linkAll(batch)
	}
	for _, asn := range one.ASNs() {
		a, b := one.AS(asn), all.AS(asn)
		for i, pair := range [][2][]ASN{{a.Providers, b.Providers}, {a.Customers, b.Customers}, {a.Peers, b.Peers}} {
			if !slices.Equal(pair[0], pair[1]) {
				t.Fatalf("AS%d list %d: linkAll %v, Link %v", asn, i, pair[1], pair[0])
			}
		}
	}
	if got := all.NumLinks(); got != one.NumLinks() {
		t.Fatalf("linkAll: %d links, Link: %d", got, one.NumLinks())
	}
	// The lists share backing arrays: growing each one must copy it out.
	for _, asn := range all.ASNs() {
		a := all.AS(asn)
		a.Providers = append(a.Providers, 99)
		a.Customers = append(a.Customers, 99)
		a.Peers = append(a.Peers, 99)
	}
	for _, asn := range one.ASNs() {
		a, b := one.AS(asn), all.AS(asn)
		for i, pair := range [][2][]ASN{{a.Providers, b.Providers}, {a.Customers, b.Customers}, {a.Peers, b.Peers}} {
			if want := append(slices.Clone(pair[0]), 99); !slices.Equal(pair[1], want) {
				t.Fatalf("AS%d list %d after appends: %v, want %v", asn, i, pair[1], want)
			}
		}
	}
}

func TestPrefixOwnership(t *testing.T) {
	tp := New()
	mustAS(t, tp, 10)
	mustAS(t, tp, 20)
	mustPrefix(t, tp, 10, "10.0.0.0/8")
	mustPrefix(t, tp, 20, "10.1.0.0/16") // more specific carve-out

	if asn, ok := tp.OwnerOf(netip.MustParseAddr("10.1.2.3")); !ok || asn != 20 {
		t.Errorf("OwnerOf(10.1.2.3) = %d %v, want 20 (longest match)", asn, ok)
	}
	if asn, ok := tp.OwnerOf(netip.MustParseAddr("10.2.0.1")); !ok || asn != 10 {
		t.Errorf("OwnerOf(10.2.0.1) = %d %v", asn, ok)
	}
	if _, ok := tp.OwnerOf(netip.MustParseAddr("192.0.2.1")); ok {
		t.Error("unowned address should miss")
	}
	if asn, ok := tp.OwnerOf(netip.MustParseAddr("10.9.9.9")); !ok || asn != 10 {
		t.Errorf("OwnerOf(10.9.9.9) = %d %v", asn, ok)
	}
	if asn, _ := tp.OwnerOf(netip.MustParseAddr("10.1.0.1")); asn == 10 {
		t.Error("OwnerOf should respect longest match")
	}
}

func TestOwnerOfPrefix(t *testing.T) {
	tp := New()
	mustAS(t, tp, 10)
	mustPrefix(t, tp, 10, "10.0.0.0/8")
	if asn, ok := tp.OwnerOfPrefix(netip.MustParsePrefix("10.5.0.0/16")); !ok || asn != 10 {
		t.Errorf("sub-prefix owner = %d %v", asn, ok)
	}
	// A /4 covering more than the owner's /8 is not owned.
	if _, ok := tp.OwnerOfPrefix(netip.MustParsePrefix("0.0.0.0/4")); ok {
		t.Error("super-prefix should not be owned")
	}
}

func TestRatios(t *testing.T) {
	tp := New()
	mustAS(t, tp, 1)
	mustAS(t, tp, 2)
	mustAS(t, tp, 3)
	mustPrefix(t, tp, 1, "10.0.0.0/8")   // 2^24
	mustPrefix(t, tp, 2, "11.0.0.0/9")   // 2^23
	mustPrefix(t, tp, 2, "11.128.0.0/9") // 2^23 -> AS2 total 2^24

	if tp.total != 1<<25 {
		t.Fatalf("total space = %d", tp.total)
	}
	if r := tp.Ratio(1); math.Abs(r-0.5) > 1e-12 {
		t.Errorf("Ratio(1) = %v", r)
	}
	if r := tp.Ratio(2); math.Abs(r-0.5) > 1e-12 {
		t.Errorf("Ratio(2) = %v", r)
	}
	// Zero-space AS is manipulated to one address (§VI-A2).
	if r := tp.Ratio(3); r <= 0 {
		t.Errorf("Ratio(3) = %v, want tiny positive", r)
	}
}

func TestBySizeDesc(t *testing.T) {
	tp := New()
	mustAS(t, tp, 5)
	mustAS(t, tp, 6)
	mustAS(t, tp, 7)
	mustPrefix(t, tp, 6, "10.0.0.0/8")
	mustPrefix(t, tp, 5, "11.0.0.0/16")
	order := tp.BySizeDesc()
	if order[0] != 6 || order[1] != 5 || order[2] != 7 {
		t.Fatalf("BySizeDesc = %v", order)
	}
}

func TestPathDirectLink(t *testing.T) {
	tp := New()
	mustAS(t, tp, 1)
	mustAS(t, tp, 2)
	mustLink(t, tp, 1, 2, CustomerToProvider)
	p, ok := tp.Path(1, 2)
	if !ok || len(p) != 2 || p[0] != 1 || p[1] != 2 {
		t.Fatalf("Path = %v %v", p, ok)
	}
	p, ok = tp.Path(2, 1)
	if !ok || len(p) != 2 {
		t.Fatalf("reverse Path = %v %v", p, ok)
	}
	if p, ok := tp.Path(1, 1); !ok || len(p) != 1 {
		t.Fatalf("self Path = %v %v", p, ok)
	}
}

func TestPathThroughProvider(t *testing.T) {
	// 1 and 3 are customers of 2: path 1-2-3 (up then down).
	tp := New()
	for i := ASN(1); i <= 3; i++ {
		mustAS(t, tp, i)
	}
	mustLink(t, tp, 1, 2, CustomerToProvider)
	mustLink(t, tp, 3, 2, CustomerToProvider)
	p, ok := tp.Path(1, 3)
	if !ok || len(p) != 3 || p[1] != 2 {
		t.Fatalf("Path = %v %v", p, ok)
	}
	if err := tp.ValidateValleyFree(p); err != nil {
		t.Fatal(err)
	}
}

func TestPathValleyForbidden(t *testing.T) {
	// 2 is a customer of both 1 and 3. Path from 1 to 3 via 2 would be
	// down-then-up (a valley): must not exist.
	tp := New()
	for i := ASN(1); i <= 3; i++ {
		mustAS(t, tp, i)
	}
	mustLink(t, tp, 2, 1, CustomerToProvider)
	mustLink(t, tp, 2, 3, CustomerToProvider)
	if p, ok := tp.Path(1, 3); ok {
		t.Fatalf("valley path %v should not exist", p)
	}
	if err := tp.ValidateValleyFree([]ASN{1, 2, 3}); err == nil {
		t.Fatal("ValidateValleyFree should reject a valley")
	}
}

func TestPathSinglePeerHop(t *testing.T) {
	// 1 -peer- 2 -peer- 3: two peer hops are not valley-free.
	tp := New()
	for i := ASN(1); i <= 3; i++ {
		mustAS(t, tp, i)
	}
	mustLink(t, tp, 1, 2, PeerToPeer)
	mustLink(t, tp, 2, 3, PeerToPeer)
	if p, ok := tp.Path(1, 3); ok {
		t.Fatalf("double-peer path %v should not exist", p)
	}
	if err := tp.ValidateValleyFree([]ASN{1, 2, 3}); err == nil {
		t.Fatal("double peer hop should be invalid")
	}
}

func TestPathUpPeerDown(t *testing.T) {
	// Classic shape: 1 -> provider 2 -peer- 3 -> customer 4.
	tp := New()
	for i := ASN(1); i <= 4; i++ {
		mustAS(t, tp, i)
	}
	mustLink(t, tp, 1, 2, CustomerToProvider)
	mustLink(t, tp, 2, 3, PeerToPeer)
	mustLink(t, tp, 4, 3, CustomerToProvider)
	p, ok := tp.Path(1, 4)
	if !ok || len(p) != 4 {
		t.Fatalf("Path = %v %v", p, ok)
	}
	if err := tp.ValidateValleyFree(p); err != nil {
		t.Fatal(err)
	}
}

func TestPathNoUphillAfterPeer(t *testing.T) {
	// 1 -peer- 2, 2 customer of 3: 1->2->3 would be peer-then-up.
	tp := New()
	for i := ASN(1); i <= 3; i++ {
		mustAS(t, tp, i)
	}
	mustLink(t, tp, 1, 2, PeerToPeer)
	mustLink(t, tp, 2, 3, CustomerToProvider)
	if p, ok := tp.Path(1, 3); ok {
		t.Fatalf("peer-then-up path %v should not exist", p)
	}
}

func TestNextHop(t *testing.T) {
	tp := New()
	for i := ASN(1); i <= 3; i++ {
		mustAS(t, tp, i)
	}
	mustLink(t, tp, 1, 2, CustomerToProvider)
	mustLink(t, tp, 3, 2, CustomerToProvider)
	nh, ok := tp.NextHop(1, 3)
	if !ok || nh != 2 {
		t.Fatalf("NextHop = %d %v", nh, ok)
	}
	if _, ok := tp.NextHop(1, 1); ok {
		t.Fatal("NextHop to self should fail")
	}
}

func TestPathUnknownAS(t *testing.T) {
	tp := New()
	mustAS(t, tp, 1)
	if _, ok := tp.Path(1, 99); ok {
		t.Fatal("path to unknown AS should fail")
	}
}
