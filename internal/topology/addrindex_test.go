package topology

import (
	"net/netip"
	"strings"
	"testing"
)

// TestAddrIndexEnumerates walks a small index end to end: At(x) must
// visit every address of every IPv4 prefix, in list order, exactly once.
func TestAddrIndexEnumerates(t *testing.T) {
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/30"),
		netip.MustParsePrefix("2001:db8::/32"), // skipped
		netip.MustParsePrefix("192.0.2.9/32"),
		netip.MustParsePrefix("172.16.255.0/24"),
	}
	ix := NewAddrIndex(prefixes...)
	if ix.Total() != 4+1+256 {
		t.Fatalf("Total = %d, want 261", ix.Total())
	}
	x := uint64(0)
	for _, p := range prefixes {
		if !p.Addr().Is4() {
			continue
		}
		for a := p.Addr(); p.Contains(a); a = a.Next() {
			if got := ix.At(x); got != a {
				t.Fatalf("At(%d) = %v, want %v", x, got, a)
			}
			x++
		}
	}
	if x != ix.Total() {
		t.Fatalf("enumerated %d addresses, Total %d", x, ix.Total())
	}
}

func TestAddrIndexDefaultRoute(t *testing.T) {
	ix := NewAddrIndex(netip.MustParsePrefix("0.0.0.0/0"), netip.MustParsePrefix("10.0.0.0/8"))
	if ix.Total() != 1<<32+1<<24 {
		t.Fatalf("Total = %d", ix.Total())
	}
	for x, want := range map[uint64]string{
		0: "0.0.0.0", 1<<32 - 1: "255.255.255.255", 1 << 32: "10.0.0.0", 1<<32 + 1<<24 - 1: "10.255.255.255",
	} {
		if got := ix.At(x); got != netip.MustParseAddr(want) {
			t.Errorf("At(%d) = %v, want %s", x, got, want)
		}
	}
}

// TestV4IndexInvalidation: every path that adds a prefix to an AS
// drops its cached index, and ASes without IPv4 space have none.
func TestV4IndexInvalidation(t *testing.T) {
	tp := New()
	for _, asn := range []ASN{1, 2} {
		if _, err := tp.AddAS(asn); err != nil {
			t.Fatal(err)
		}
	}
	if tp.V4Index(1) != nil || tp.V4Index(99) != nil {
		t.Fatal("index for an AS without prefixes or an unknown AS")
	}
	if err := tp.AddPrefix(1, netip.MustParsePrefix("2001:db8::/32")); err != nil {
		t.Fatal(err)
	}
	if tp.V4Index(1) != nil {
		t.Fatal("index for an IPv6-only AS")
	}
	if err := tp.AddPrefix(1, netip.MustParsePrefix("10.0.0.0/24")); err != nil {
		t.Fatal(err)
	}
	first := tp.V4Index(1)
	if first == nil || first.Total() != 256 {
		t.Fatalf("index after first IPv4 prefix: %+v", first)
	}
	if tp.V4Index(1) != first {
		t.Fatal("index rebuilt although the prefix list did not change")
	}
	if err := tp.AddPrefix(1, netip.MustParsePrefix("10.0.1.0/24")); err != nil {
		t.Fatal(err)
	}
	if got := tp.V4Index(1).Total(); got != 512 {
		t.Fatalf("Total after AddPrefix = %d, want 512: stale index", got)
	}

	// prefix2as load: AS 7 gets its prefixes on separate lines.
	loaded, err := LoadPrefix2AS(strings.NewReader("10.0.0.0\t24\t7\n10.0.1.0\t24\t7_8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.V4Index(7).Total(); got != 512 {
		t.Fatalf("loaded AS7 Total = %d, want 512", got)
	}
	if got := loaded.V4Index(8).Total(); got != 256 {
		t.Fatalf("loaded AS8 Total = %d, want 256", got)
	}
}
