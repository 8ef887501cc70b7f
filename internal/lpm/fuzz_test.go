package lpm

import (
	"net/netip"
	"testing"
)

// refTable is the linear-scan model FuzzLPM holds Table to: canonical
// prefixes and their values, replaced in place on a repeated insert.
type refTable struct {
	p []netip.Prefix
	v []uint16
}

func (r *refTable) find(p netip.Prefix) int {
	for i := range r.p {
		if r.p[i] == p {
			return i
		}
	}
	return -1
}

func (r *refTable) insert(p netip.Prefix, v uint16) {
	if i := r.find(p); i >= 0 {
		r.v[i] = v
		return
	}
	r.p, r.v = append(r.p, p), append(r.v, v)
}

// lookup is the longest prefix containing a, by scanning every entry.
func (r *refTable) lookup(a netip.Addr) (uint16, netip.Prefix, bool) {
	a = a.Unmap()
	best := -1
	for i, p := range r.p {
		if p.Contains(a) && (best < 0 || p.Bits() > r.p[best].Bits()) {
			best = i
		}
	}
	if best < 0 {
		return 0, netip.Prefix{}, false
	}
	return r.v[best], r.p[best], true
}

// fuzzOp decodes one 6-byte insert. Byte 0 picks the action and the
// family (IPv4, IPv6 or 4-in-6), byte 1 the prefix length (a value
// above 0xf0 gives /0), bytes 2–5 the address. The actions insert a
// fresh prefix (actions 0 and 2), or one derived from a prefix seen
// before (byte 5 picks it): the same base address at the new length
// (action 1), which nests the two, or the seen prefix itself (action
// 3), which replaces its value. Fresh IPv4 addresses stay inside
// 8.0.0.0/6 and IPv6 ones inside 2001:db8::/32, so that prefixes
// overlap.
func fuzzOp(op []byte, seen []netip.Prefix) netip.Prefix {
	act, fam := op[0]%4, op[0]/4%3
	bits := int(op[1])
	if op[1] > 0xf0 {
		bits = 0
	}
	var a netip.Addr
	switch {
	case act == 3 && len(seen) > 0:
		return seen[int(op[5])%len(seen)]
	case act == 1 && len(seen) > 0:
		a = seen[int(op[5])%len(seen)].Addr()
	case fam == 1:
		var a16 [16]byte
		a16[0], a16[1], a16[2], a16[3] = 0x20, 0x01, 0x0d, 0xb8
		copy(a16[4:8], op[2:6])
		a = netip.AddrFrom16(a16)
	default:
		a = netip.AddrFrom4([4]byte{8 | op[2]&3, op[3], op[4], op[5]})
	}
	if a.Is6() {
		return netip.PrefixFrom(a, bits%129)
	}
	bits %= 33
	if fam == 2 {
		return netip.PrefixFrom(netip.AddrFrom16(a.As16()), 96+bits)
	}
	return netip.PrefixFrom(a, bits)
}

// probes returns addresses around p: its first and last address, the
// address just past it, and the 4-in-6 forms of IPv4 ones.
func probes(p netip.Prefix) []netip.Addr {
	first := p.Masked().Addr()
	last := first
	for i := p.Bits(); i < first.BitLen(); i++ {
		last = setBit(last, i)
	}
	out := []netip.Addr{first, last}
	if next := last.Next(); next.IsValid() {
		out = append(out, next)
	}
	for _, a := range out {
		if a.Is4() {
			out = append(out, netip.AddrFrom16(a.As16()))
		}
	}
	return out
}

// setBit returns a with bit i (0 = most significant) set.
func setBit(a netip.Addr, i int) netip.Addr {
	b := a.As16()
	off := 0
	if a.Is4() {
		off = 12
	}
	b[off+i/8] |= 0x80 >> (i % 8)
	if a.Is4() {
		return netip.AddrFrom4([4]byte(b[12:]))
	}
	return netip.AddrFrom16(b)
}

func checkLookup(t *testing.T, tb *Table[uint16], ref *refTable, a netip.Addr) {
	t.Helper()
	wv, wp, wok := ref.lookup(a)
	if v, ok := tb.LookupVal(a); ok != wok || v != wv {
		t.Fatalf("LookupVal(%v) = %d %v, want %d %v", a, v, ok, wv, wok)
	}
	if v, p, ok := tb.Lookup(a); ok != wok || v != wv || p != wp {
		t.Fatalf("Lookup(%v) = %d %v %v, want %d %v %v", a, v, p, ok, wv, wp, wok)
	}
}

// FuzzLPM runs random IPv4, IPv6 and 4-in-6 inserts and replaces
// against a linear-scan reference. After every insert it compares
// LookupVal, Lookup's matched prefix and Len around the inserted
// prefix; at the end it probes every prefix seen again, so a
// first-level entry left stale by a later insert shows.
func FuzzLPM(f *testing.F) {
	f.Add([]byte{
		0, 0xff, 0, 0, 0, 0, // 8.0.0.0/0
		0, 8, 2, 0, 0, 0, // 10.0.0.0/8
		0, 16, 2, 1, 0, 0, // 10.1.0.0/16
		0, 24, 2, 1, 2, 0, // 10.1.2.0/24
		2, 8, 2, 0, 0, 0, // replace 10.0.0.0/8
		2, 0xff, 0, 0, 0, 0, // replace /0
	})
	f.Add([]byte{
		0, 4, 3, 0, 0, 0, // 0.0.0.0/4
		0, 12, 3, 0x30, 0, 0, // 11.48.0.0/12
		8, 20, 3, 0x31, 0x80, 0, // 4-in-6 11.49.128.0/20
		1, 32, 0, 0, 0, 2, // 11.49.128.0/32, nested in the /20
		1, 13, 0, 0, 0, 1, // 11.48.0.0/13, nested in the /12
		0, 12, 3, 0x30, 0, 0, // replace 11.48.0.0/12
		3, 0, 0, 0, 0, 2, // replace the /20
		3, 0, 0, 0, 0, 0, // replace the /4
	})
	f.Add([]byte{
		4, 32, 0, 0, 0, 0, // 2001:db8::/32
		4, 48, 0, 1, 0, 0, // 2001:db8:1::/48
		4, 0xff, 0, 0, 0, 0, // ::/0
		6, 32, 0, 0, 0, 0, // replace 2001:db8::/32
		5, 128, 0, 0, 0, 1, // a /128 nested in the /48
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := New[uint16]()
		var ref refTable
		var seen []netip.Prefix
		for i := 0; i+6 <= len(data) && i < 6*128; i += 6 {
			p := fuzzOp(data[i:i+6], seen)
			cp, err := Canon(p)
			if err != nil {
				t.Fatalf("Canon(%v): %v", p, err)
			}
			v := uint16(i)
			if err := tb.Insert(p, v); err != nil {
				t.Fatalf("Insert(%v): %v", p, err)
			}
			ref.insert(cp, v)
			if tb.Len() != len(ref.p) {
				t.Fatalf("Len = %d, want %d", tb.Len(), len(ref.p))
			}
			for _, a := range probes(cp) {
				checkLookup(t, tb, &ref, a)
			}
			seen = append(seen, cp)
		}
		for _, p := range seen {
			for _, a := range probes(p) {
				checkLookup(t, tb, &ref, a)
			}
		}
	})
}
