package topology

import (
	"math/rand"
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

// TestAddrIndexMatchesLinearWalk holds the bucketed search to a walk
// of the prefix list on random lists mixing /1 to /32 prefixes: at
// every run's first and last address, at the bucket edges and at random
// draws.
func TestAddrIndexMatchesLinearWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var prefixes []netip.Prefix
		for n := 1 + rng.Intn(80); len(prefixes) < n; {
			var b [4]byte
			rng.Read(b[:])
			prefixes = append(prefixes, netip.PrefixFrom(netip.AddrFrom4(b), 1+rng.Intn(32)).Masked())
		}
		ix := NewAddrIndex(prefixes...)
		walk := func(x uint64) netip.Addr {
			for _, p := range prefixes {
				size := uint64(1) << (32 - p.Bits())
				if x < size {
					v := p.Addr().As4()
					u := uint32(v[0])<<24 | uint32(v[1])<<16 | uint32(v[2])<<8 | uint32(v[3]) + uint32(x)
					return netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
				}
				x -= size
			}
			t.Fatalf("x beyond the indexed space")
			return netip.Addr{}
		}
		var probes []uint64
		for i, r := range ix.runs {
			probes = append(probes, r.end-1)
			if i > 0 {
				probes = append(probes, ix.runs[i-1].end)
			}
		}
		for b := range ix.first {
			probes = append(probes, uint64(b)<<ix.shift)
		}
		for i := 0; i < 200; i++ {
			probes = append(probes, rng.Uint64()%ix.Total())
		}
		for _, x := range probes {
			if got, want := ix.At(x), walk(x); got != want {
				t.Fatalf("trial %d: At(%d) = %v, walk %v", trial, x, got, want)
			}
		}
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
	loaded, err := loadPrefix2AS(strings.NewReader("10.0.0.0\t24\t7\n10.0.1.0\t24\t7_8\n"))
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
