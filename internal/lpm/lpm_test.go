package lpm

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func pfx(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func addr(t testing.TB, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatalf("ParseAddr(%q): %v", s, err)
	}
	return a
}

func TestInsertLookupV4(t *testing.T) {
	tb := New[int]()
	tb.Insert(pfx(t, "10.0.0.0/8"), 1)
	tb.Insert(pfx(t, "10.1.0.0/16"), 2)
	tb.Insert(pfx(t, "10.1.2.0/24"), 3)

	cases := []struct {
		a    string
		want int
		pfx  string
	}{
		{"10.1.2.3", 3, "10.1.2.0/24"},
		{"10.1.3.3", 2, "10.1.0.0/16"},
		{"10.2.0.1", 1, "10.0.0.0/8"},
	}
	for _, c := range cases {
		v, p, ok := tb.Lookup(addr(t, c.a))
		if !ok || v != c.want || p.String() != c.pfx {
			t.Errorf("Lookup(%s) = %d %v %v, want %d %s", c.a, v, p, ok, c.want, c.pfx)
		}
	}
	if _, _, ok := tb.Lookup(addr(t, "11.0.0.1")); ok {
		t.Error("Lookup(11.0.0.1) should miss")
	}
}

func TestInsertLookupV6(t *testing.T) {
	tb := New[string]()
	tb.Insert(pfx(t, "2001:db8::/32"), "doc")
	tb.Insert(pfx(t, "2001:db8:1::/48"), "sub")
	v, _, ok := tb.Lookup(addr(t, "2001:db8:1::5"))
	if !ok || v != "sub" {
		t.Fatalf("got %q %v", v, ok)
	}
	v, _, ok = tb.Lookup(addr(t, "2001:db8:2::5"))
	if !ok || v != "doc" {
		t.Fatalf("got %q %v", v, ok)
	}
	if _, _, ok := tb.Lookup(addr(t, "2001:db9::1")); ok {
		t.Error("should miss")
	}
}

func TestV4AndV6Separate(t *testing.T) {
	tb := New[int]()
	tb.Insert(pfx(t, "0.0.0.0/0"), 4)
	tb.Insert(pfx(t, "::/0"), 6)
	if v, _, _ := tb.Lookup(addr(t, "1.2.3.4")); v != 4 {
		t.Errorf("v4 default = %d", v)
	}
	if v, _, _ := tb.Lookup(addr(t, "::1")); v != 6 {
		t.Errorf("v6 default = %d", v)
	}
}

func TestFourInSixNormalized(t *testing.T) {
	tb := New[int]()
	tb.Insert(pfx(t, "10.0.0.0/8"), 1)
	// Lookup with a 4-in-6 address must hit the v4 entry.
	a := netip.AddrFrom16(addr(t, "::ffff:10.1.2.3").As16())
	if !a.Is4In6() {
		t.Fatal("test setup: not 4-in-6")
	}
	v, _, ok := tb.Lookup(a)
	if !ok || v != 1 {
		t.Fatalf("4-in-6 lookup = %d %v", v, ok)
	}
}

func TestHostBitsMasked(t *testing.T) {
	tb := New[int]()
	tb.Insert(pfx(t, "10.1.2.3/8"), 7) // host bits set; must mask to 10.0.0.0/8
	v, p, ok := tb.Lookup(addr(t, "10.200.0.1"))
	if !ok || v != 7 || p.String() != "10.0.0.0/8" {
		t.Fatalf("got %d %v %v", v, p, ok)
	}
}

func TestInsertReplace(t *testing.T) {
	tb := New[int]()
	p := pfx(t, "192.168.0.0/16")
	tb.Insert(p, 1)
	tb.Insert(p, 2)
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	if v, _, _ := tb.Lookup(addr(t, "192.168.0.1")); v != 2 {
		t.Fatalf("Lookup = %d, want 2", v)
	}
}

func TestDefaultRouteAndFullLength(t *testing.T) {
	tb := New[int]()
	tb.Insert(pfx(t, "0.0.0.0/0"), 1)
	tb.Insert(pfx(t, "1.2.3.4/32"), 2)
	if v, _, _ := tb.Lookup(addr(t, "1.2.3.4")); v != 2 {
		t.Fatal("/32 should win over default")
	}
	if v, _, _ := tb.Lookup(addr(t, "1.2.3.5")); v != 1 {
		t.Fatal("default should match everything else")
	}
	tb.Insert(pfx(t, "::/0"), 3)
	tb.Insert(pfx(t, "2001:db8::1/128"), 4)
	if v, _, _ := tb.Lookup(addr(t, "2001:db8::1")); v != 4 {
		t.Fatal("/128 should win")
	}
}

func TestInvalidInputs(t *testing.T) {
	tb := New[int]()
	if err := tb.Insert(netip.Prefix{}, 1); err == nil {
		t.Fatal("Insert of zero prefix should error")
	}
	if _, _, ok := tb.Lookup(netip.Addr{}); ok {
		t.Fatal("Lookup of zero addr should miss")
	}
}

func TestWalkAndPrefixes(t *testing.T) {
	tb := New[int]()
	want := map[string]int{
		"10.0.0.0/8":      1,
		"10.1.0.0/16":     2,
		"192.168.1.0/24":  3,
		"2001:db8::/32":   4,
		"2001:db8:5::/48": 5,
		"0.0.0.0/0":       6,
	}
	for s, v := range want {
		tb.Insert(pfx(t, s), v)
	}
	got := map[string]int{}
	tb.Walk(func(p netip.Prefix, v int) bool {
		got[p.String()] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Walk visited %d entries, want %d: %v", len(got), len(want), got)
	}
	for s, v := range want {
		if got[s] != v {
			t.Errorf("Walk[%s] = %d, want %d", s, got[s], v)
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	tb := New[int]()
	tb.Insert(pfx(t, "10.0.0.0/8"), 1)
	tb.Insert(pfx(t, "11.0.0.0/8"), 2)
	tb.Insert(pfx(t, "2001:db8::/32"), 3)
	n := 0
	tb.Walk(func(netip.Prefix, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestAgainstLinearScan cross-checks trie LPM against a brute-force
// linear scan on random prefixes and addresses.
func TestAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tb := New[int]()
	type entry struct {
		p netip.Prefix
		v int
	}
	var entries []entry
	for i := 0; i < 500; i++ {
		var a [4]byte
		rng.Read(a[:])
		bits := rng.Intn(33)
		p := netip.PrefixFrom(netip.AddrFrom4(a), bits).Masked()
		v := i
		// Linear model replaces on duplicate prefix, as Insert does.
		dup := false
		for j := range entries {
			if entries[j].p == p {
				entries[j].v, dup = v, true
				break
			}
		}
		if !dup {
			entries = append(entries, entry{p, v})
		}
		tb.Insert(p, v)
	}
	if tb.Len() != len(entries) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(entries))
	}
	for i := 0; i < 2000; i++ {
		var a4 [4]byte
		rng.Read(a4[:])
		a := netip.AddrFrom4(a4)
		bestLen, bestVal, found := -1, 0, false
		for _, e := range entries {
			if e.p.Contains(a) && e.p.Bits() > bestLen {
				bestLen, bestVal, found = e.p.Bits(), e.v, true
			}
		}
		v, p, ok := tb.Lookup(a)
		if ok != found {
			t.Fatalf("Lookup(%v) ok=%v, want %v", a, ok, found)
		}
		if found && (v != bestVal || p.Bits() != bestLen) {
			t.Fatalf("Lookup(%v) = %d /%d, want %d /%d", a, v, p.Bits(), bestVal, bestLen)
		}
	}
}

// TestAgainstLinearScanV6 cross-checks the IPv6 trie against a
// brute-force scan.
func TestAgainstLinearScanV6(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tb := New[int]()
	type entry struct {
		p netip.Prefix
		v int
	}
	var entries []entry
	for i := 0; i < 300; i++ {
		var a [16]byte
		rng.Read(a[:2]) // cluster prefixes so matches actually occur
		a[0] = 0x20
		bits := rng.Intn(65)
		p := netip.PrefixFrom(netip.AddrFrom16(a), bits).Masked()
		dup := false
		for j := range entries {
			if entries[j].p == p {
				entries[j].v, dup = i, true
				break
			}
		}
		if !dup {
			entries = append(entries, entry{p, i})
		}
		tb.Insert(p, i)
	}
	for i := 0; i < 1000; i++ {
		var a16 [16]byte
		rng.Read(a16[:3])
		a16[0] = 0x20
		a := netip.AddrFrom16(a16)
		bestLen, bestVal, found := -1, 0, false
		for _, e := range entries {
			if e.p.Contains(a) && e.p.Bits() > bestLen {
				bestLen, bestVal, found = e.p.Bits(), e.v, true
			}
		}
		v, p, ok := tb.Lookup(a)
		if ok != found {
			t.Fatalf("Lookup(%v) ok=%v, want %v", a, ok, found)
		}
		if found && (v != bestVal || p.Bits() != bestLen) {
			t.Fatalf("Lookup(%v) = %d /%d, want %d /%d", a, v, p.Bits(), bestVal, bestLen)
		}
	}
}

// Property: any address within an inserted prefix matches at least that
// prefix length.
func TestPropertyContainment(t *testing.T) {
	f := func(a4 [4]byte, bits uint8) bool {
		b := int(bits % 33)
		p := netip.PrefixFrom(netip.AddrFrom4(a4), b).Masked()
		tb := New[bool]()
		tb.Insert(p, true)
		// The base address of the prefix must match.
		v, got, ok := tb.Lookup(p.Addr())
		return ok && v && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupV4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tb := New[int]()
	for i := 0; i < 100_000; i++ {
		var a [4]byte
		rng.Read(a[:])
		tb.Insert(netip.PrefixFrom(netip.AddrFrom4(a), 8+rng.Intn(17)), i)
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		var a [4]byte
		rng.Read(a[:])
		addrs[i] = netip.AddrFrom4(a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(addrs[i%len(addrs)])
	}
}
