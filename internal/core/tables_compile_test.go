package core

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"discs/internal/lpm"
)

// checkCompiledLookup installs pfxs in a FuncTable — prefix i carries
// one op, every third prefix a second one, each with its own window and
// grace — and holds the compiled snapshot to the lpm trie it replaced:
// for every query address, lookup equals lpm.Table[[]opWin].LookupVal,
// and activeOps agrees with the matched windows at each one's start,
// graceHead, graceTail and end, and the instant before each.
func checkCompiledLookup(t testing.TB, pfxs []netip.Prefix, queries []netip.Addr) {
	t.Helper()
	ft := newFuncTable()
	want := map[netip.Prefix]map[Op]window{}
	install := func(p netip.Prefix, op Op, start time.Time, d, grace time.Duration) {
		if ft.Install(p, op, start, d, grace) != nil {
			return // refused by lpm.Canon, as lpm.Insert refuses it
		}
		c, _ := lpm.Canon(p)
		if want[c] == nil {
			want[c] = map[Op]window{}
		}
		want[c][op] = window{start: start, end: start.Add(d), grace: grace}
	}
	for i, p := range pfxs {
		start := t0.Add(time.Duration(i) * time.Second)
		install(p, Op(1)<<(i%6), start, time.Duration(10+i)*time.Minute, time.Duration(i%3)*30*time.Second)
		if i%3 == 0 {
			install(p, Op(1)<<((i+3)%6), start.Add(time.Minute), 5*time.Minute, time.Minute)
		}
	}
	ref := lpm.New[[]opWin]()
	for p, ws := range want {
		var ows []opWin
		for op, w := range ws {
			s, e := w.start.UnixNano(), w.end.UnixNano()
			ows = append(ows, opWin{op: op, start: s, end: e, graceHead: s + int64(w.grace), graceTail: e - int64(w.grace)})
		}
		sort.Slice(ows, func(i, j int) bool { return ows[i].op < ows[j].op })
		if err := ref.Insert(p, ows); err != nil {
			t.Fatalf("reference refuses %v: %v", p, err)
		}
	}
	snap := ft.snap.Load()
	for _, a := range queries {
		wins, _ := ref.LookupVal(a)
		if got := snap.lookup(a); !reflect.DeepEqual(got, wins) {
			t.Fatalf("prefixes %v: lookup(%v) = %+v, lpm %+v", pfxs, a, got, wins)
		}
		for _, w := range wins {
			for _, now := range []int64{w.start - 1, w.start, w.graceHead - 1, w.graceHead, w.graceTail - 1, w.graceTail, w.end - 1, w.end} {
				var active, grace OpSet
				for _, x := range wins {
					if now >= x.start && now < x.end {
						active = active.Add(x.op)
						if now < x.graceHead || now >= x.graceTail {
							grace = grace.Add(x.op)
						}
					}
				}
				if a2, g2 := snap.activeOps(a, now); a2 != active || g2 != grace {
					t.Fatalf("prefixes %v: activeOps(%v, %d) = %v/%v, lpm windows give %v/%v", pfxs, a, now, a2, g2, active, grace)
				}
			}
		}
	}
}

// lastAddr returns the last address of p.
func lastAddr(p netip.Prefix) netip.Addr {
	p = p.Masked()
	b := p.Addr().AsSlice()
	for i := p.Bits(); i < len(b)*8; i++ {
		b[i/8] |= 0x80 >> (i % 8)
	}
	a, _ := netip.AddrFromSlice(b)
	return a
}

// edgeQueries returns the addresses at and just outside each prefix's
// ends, in 4-in-6 form too for IPv4 ones, and the invalid address.
func edgeQueries(pfxs []netip.Prefix) []netip.Addr {
	qs := []netip.Addr{{}}
	for _, p := range pfxs {
		first, last := p.Masked().Addr(), lastAddr(p)
		for _, a := range []netip.Addr{first, last, first.Prev(), last.Next()} {
			if !a.IsValid() {
				continue
			}
			qs = append(qs, a)
			if a.Is4() {
				qs = append(qs, netip.AddrFrom16(a.As16()))
			} else if a.Is4In6() {
				qs = append(qs, a.Unmap())
			}
		}
	}
	return qs
}

// The compiled snapshot answers every lookup the lpm trie did, over
// random nested IPv4 and IPv6 prefix sets that include /0, host routes
// and 4-in-6 prefixes.
func TestCompiledLookupMatchesLPM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randAddr := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for set := 0; set < 300; set++ {
		var bases4, bases6 [][]byte
		for i := 0; i < 4; i++ {
			bases4, bases6 = append(bases4, randAddr(4)), append(bases6, randAddr(16))
		}
		var pfxs []netip.Prefix
		for i := rng.Intn(40); i >= 0; i-- {
			var p netip.Prefix
			switch rng.Intn(6) {
			case 0, 1: // nested IPv4 around a few bases, host routes and /0 included
				a, _ := netip.AddrFromSlice(bases4[rng.Intn(len(bases4))])
				p = netip.PrefixFrom(a, []int{0, 8, 12, 16, 17, 24, 31, 32}[rng.Intn(8)])
			case 2, 3:
				a, _ := netip.AddrFromSlice(bases6[rng.Intn(len(bases6))])
				p = netip.PrefixFrom(a, []int{0, 16, 32, 48, 63, 64, 65, 96, 127, 128}[rng.Intn(10)])
			case 4: // 4-in-6, stored as IPv4
				a4, _ := netip.AddrFromSlice(bases4[rng.Intn(len(bases4))])
				p = netip.PrefixFrom(netip.AddrFrom16(a4.As16()), 96+rng.Intn(33))
			default:
				a, _ := netip.AddrFromSlice(randAddr([]int{4, 16}[rng.Intn(2)]))
				p = netip.PrefixFrom(a, rng.Intn(a.BitLen()+1))
			}
			pfxs = append(pfxs, p)
		}
		qs := edgeQueries(pfxs)
		for i := 0; i < 16; i++ {
			a, _ := netip.AddrFromSlice(randAddr([]int{4, 16}[rng.Intn(2)]))
			qs = append(qs, a)
		}
		checkCompiledLookup(t, pfxs, qs)
	}
}

// FuzzFuncTableLookup holds the compiled lookup to the lpm trie over
// prefix sets read from the input: each record is a kind byte (bit 0:
// IPv6, bit 1: IPv4 written 4-in-6), a length byte and the address.
func FuzzFuncTableLookup(f *testing.F) {
	f.Add([]byte{0, 8, 10, 0, 0, 0, 0, 16, 10, 3, 0, 0, 0, 32, 10, 3, 0, 1})
	f.Add([]byte{1, 0, 0x20, 1, 0xd, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 104, 192, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pfxs []netip.Prefix
		for len(data) >= 2 && len(pfxs) < 64 {
			kind, bits := data[0], int(data[1])
			n := 4
			if kind&1 != 0 {
				n = 16
			}
			if len(data) < 2+n {
				break
			}
			a, _ := netip.AddrFromSlice(data[2 : 2+n])
			data = data[2+n:]
			if kind&3 == 2 {
				a, bits = netip.AddrFrom16(a.As16()), bits+96
			}
			if p := netip.PrefixFrom(a, bits%(a.BitLen()+1)); p.IsValid() {
				pfxs = append(pfxs, p)
			}
		}
		checkCompiledLookup(t, pfxs, edgeQueries(pfxs))
	})
}
