// Package lpm provides a longest-prefix-match table over IPv4 and IPv6
// prefixes, built on multibit tries.
//
// DISCS keeps one such table per world: Pfx2AS, the address-to-AS
// mapping every border router reads for each packet (§V-A of the
// paper). It is built by inserts while the world is set up and is only
// read afterwards, so the package offers insert, longest-prefix lookup
// by address and a walk, and no delete.
//
// The trie uses a 4-bit stride with controlled prefix expansion: each
// node covers one address nibble, prefixes whose length is not a
// multiple of four are expanded into the 2^(4-r) slots they cover, and
// an IPv6 lookup inspects at most 32 nodes instead of one per bit.
// IPv4 lookups start at a direct-indexed first level: 2^16 entries, one
// per /16, each holding the longest prefix of length ≤ 16 that covers
// it and which trie node at depth 4 lies below it. An IPv4 lookup is
// one load plus at most four nibble steps. Insert keeps the first level
// current; it is allocated on a table's first IPv4 insert and costs
// 2^16 × (size of V + 4) bytes, 512 KB for an ASN-valued table. The
// expansion bookkeeping (the exact entry list per node, the first
// level) makes an insert a little dearer, which is the right trade for
// a table that is written once and looked up for every packet.
package lpm

import (
	"fmt"
	"net/netip"
)

// stride is the number of address bits consumed per trie level.
const stride = 4

// fanout is the number of child slots per node (2^stride).
const fanout = 1 << stride

// dirBits is the number of leading IPv4 address bits the direct first
// level indexes; its entries name trie nodes dirBits/stride deep.
const dirBits = 16

// Table is a longest-prefix-match table mapping prefixes to values of
// type V. IPv4 and IPv6 prefixes live in separate tries inside the same
// table. IPv4-mapped IPv6 addresses are treated as IPv4.
//
// Table is not safe for concurrent mutation; concurrent readers are
// safe as long as there is no writer. The zero value is unusable; use
// New.
type Table[V any] struct {
	v4, v6 *node[V]
	// def4/def6 hold the zero-length prefixes (0.0.0.0/0, ::/0), which
	// have no nibble to expand into.
	def4, def6       V
	defSet4, defSet6 bool
	n                int
	// dir is the direct IPv4 first level, nil until the first IPv4
	// insert; entry i covers the addresses whose top 16 bits are i.
	// Entries name their depth-4 trie node by its position in sub
	// rather than by pointer, and pack it with the prefix length: for
	// a pointer-free V such as an ASN the level is then 8 bytes an
	// entry and holds no pointer, so the garbage collector neither
	// scans it nor loses much of a small heap's headroom to it. sub[0]
	// is nil and stands for "no node".
	dir []dirEntry[V]
	sub []*node[V]
}

// dirEntry is one /16 of the direct IPv4 first level: val is the
// longest prefix of length ≤ 16 covering it, and meta holds that
// prefix's length plus one in its low 5 bits (0: no such prefix) and,
// above them, the position in Table.sub of the trie node at depth 4
// that holds the entry's longer prefixes (0: none). The zero entry
// covers nothing.
type dirEntry[V any] struct {
	val  V
	meta uint32
}

const dirLenBits = 5

// bits returns the length of the entry's best prefix, -1 for none.
func (e *dirEntry[V]) bits() int { return int(e.meta&(1<<dirLenBits-1)) - 1 }

// set makes the prefix of length bits (-1: none) with value v the
// entry's best match.
func (e *dirEntry[V]) set(v V, bits int) {
	e.val = v
	e.meta = e.meta&^(1<<dirLenBits-1) | uint32(bits+1)
}

// entry is one exact prefix terminating in a node: a prefix of length
// 4·depth+r (r in 1..4) whose last r bits are the top bits of suffix.
type entry[V any] struct {
	suffix uint8 // the prefix's bits within this node's nibble, left-aligned, low bits zero
	r      uint8 // number of meaningful suffix bits, 1..4
	val    V
}

// node covers one 4-bit stride of the address space. vals/rlen are the
// expanded view consulted by lookups: slot s holds the longest prefix
// terminating in this node that covers s (rlen is its length relative
// to the node, 0 = none). exact lists the prefixes that terminate in
// the node, which Insert consults to replace a value and Walk to list
// them.
type node[V any] struct {
	child [fanout]*node[V]
	vals  [fanout]V
	rlen  [fanout]uint8
	exact []entry[V]
}

// New creates an empty table.
func New[V any]() *Table[V] {
	return &Table[V]{v4: &node[V]{}, v6: &node[V]{}}
}

// Len returns the number of prefixes in the table.
func (t *Table[V]) Len() int { return t.n }

// Canon normalizes a prefix the way this package stores it: unwraps
// 4-in-6 addresses and masks host bits. It returns an error for invalid
// prefixes. Callers that keep prefix-keyed side tables next to an lpm
// Table (e.g. the DISCS function tables) use it so their keys compare
// equal to the Table's.
func Canon(p netip.Prefix) (netip.Prefix, error) {
	if !p.IsValid() {
		return netip.Prefix{}, fmt.Errorf("lpm: invalid prefix %v", p)
	}
	a := p.Addr()
	if a.Is4In6() {
		bits := p.Bits() - 96
		if bits < 0 {
			return netip.Prefix{}, fmt.Errorf("lpm: 4-in-6 prefix %v shorter than /96", p)
		}
		p = netip.PrefixFrom(a.Unmap(), bits)
	}
	return p.Masked(), nil
}

func (t *Table[V]) root(a netip.Addr) *node[V] {
	if a.Is4() {
		return t.v4
	}
	return t.v6
}

// addrBytes extracts the address bytes once up front; nibble i of the
// address is then two shifts away.
func addrBytes(a netip.Addr) (buf [16]byte) {
	if a.Is4() {
		b4 := a.As4()
		copy(buf[:4], b4[:])
		return buf
	}
	return a.As16()
}

// nibble returns 4-bit group i (0 = most significant) of buf.
func nibble(buf *[16]byte, i int) uint8 {
	return buf[i>>1] >> (4 - (i&1)<<2) & 0x0f
}

// walkTo descends (creating nodes when create is set) to the node a
// prefix of length bits terminates in, returning the node, the suffix
// nibble index, and the per-node remainder r in 1..4. bits must be > 0.
func (t *Table[V]) walkTo(a netip.Addr, bits int, create bool) (n *node[V], nib uint8, r uint8) {
	buf := addrBytes(a)
	depth := (bits - 1) / stride
	n = t.root(a)
	for i := 0; i < depth; i++ {
		b := nibble(&buf, i)
		if n.child[b] == nil {
			if !create {
				return nil, 0, 0
			}
			n.child[b] = &node[V]{}
		}
		n = n.child[b]
	}
	return n, nibble(&buf, depth), uint8(bits - depth*stride)
}

// covered returns the slot range [base, base+count) an entry expands
// into.
func covered(suffix, r uint8) (base, count int) {
	return int(suffix), 1 << (stride - r)
}

// Insert adds or replaces the value for an exact prefix.
func (t *Table[V]) Insert(p netip.Prefix, v V) error {
	p, err := Canon(p)
	if err != nil {
		return err
	}
	a := p.Addr()
	if a.Is4() {
		t.insertDir(p, v)
	}
	if p.Bits() == 0 {
		if a.Is4() {
			if !t.defSet4 {
				t.n++
			}
			t.def4, t.defSet4 = v, true
		} else {
			if !t.defSet6 {
				t.n++
			}
			t.def6, t.defSet6 = v, true
		}
		return nil
	}
	n, nib, r := t.walkTo(a, p.Bits(), true)
	suffix := nib & (0xf0 >> r)
	replaced := false
	for i := range n.exact {
		if n.exact[i].suffix == suffix && n.exact[i].r == r {
			n.exact[i].val, replaced = v, true
			break
		}
	}
	if !replaced {
		n.exact = append(n.exact, entry[V]{suffix: suffix, r: r, val: v})
		t.n++
	}
	base, count := covered(suffix, r)
	for s := base; s < base+count; s++ {
		if n.rlen[s] <= r {
			n.vals[s], n.rlen[s] = v, r
		}
	}
	if a.Is4() && p.Bits() > dirBits {
		if e := &t.dir[dirIndex(a)]; e.meta>>dirLenBits == 0 {
			e.meta |= uint32(len(t.sub)) << dirLenBits
			t.sub = append(t.sub, t.v4.descend(a, dirBits/stride))
		}
	}
	return nil
}

// dirIndex is the first-level entry of an IPv4 address: its top 16
// bits.
func dirIndex(a netip.Addr) int {
	b := a.As4()
	return int(b[0])<<8 | int(b[1])
}

// dirSpan returns the first-level entries [base, base+count) an IPv4
// prefix of length ≤ 16 covers.
func dirSpan(p netip.Prefix) (base, count int) {
	return dirIndex(p.Addr()), 1 << (dirBits - p.Bits())
}

// insertDir brings the first level up to date with an IPv4 insert,
// allocating it on the first. A prefix of length ≤ 16 becomes the
// best match of every entry it covers that holds no longer one; the
// node of a longer prefix's entry is recorded once its trie path
// exists (Insert does that).
func (t *Table[V]) insertDir(p netip.Prefix, v V) {
	if t.dir == nil {
		t.dir = make([]dirEntry[V], 1<<dirBits)
		t.sub = []*node[V]{nil}
	}
	if p.Bits() > dirBits {
		return
	}
	base, count := dirSpan(p)
	for i := base; i < base+count; i++ {
		if e := &t.dir[i]; e.bits() <= p.Bits() {
			e.set(v, p.Bits())
		}
	}
}

// descend returns the node depth levels below n on a's path, or nil
// when the path stops short of it.
func (n *node[V]) descend(a netip.Addr, depth int) *node[V] {
	buf := addrBytes(a)
	for i := 0; i < depth && n != nil; i++ {
		n = n.child[nibble(&buf, i)]
	}
	return n
}

// Lookup performs a longest-prefix match for the address and returns
// the matched value, the matched prefix, and whether anything matched.
func (t *Table[V]) Lookup(a netip.Addr) (V, netip.Prefix, bool) {
	var zero V
	v, bestLen := t.lookupVal(a)
	if bestLen < 0 {
		return zero, netip.Prefix{}, false
	}
	return v, netip.PrefixFrom(a.Unmap(), bestLen).Masked(), true
}

// lookupVal is the allocation-free core of Lookup: it returns the
// longest-match value and prefix length, or length -1 when nothing
// matched. This runs for every packet on the DISCS forwarding path: an
// IPv4 address takes one first-level load and then one node per
// remaining nibble, an IPv6 address one node per nibble, each visit an
// expanded-slot load and a child load, with no per-bit branching.
func (t *Table[V]) lookupVal(a netip.Addr) (V, int) {
	var best V
	bestLen := -1
	if !a.IsValid() {
		return best, -1
	}
	a = a.Unmap()
	if a.Is4() {
		if t.dir == nil {
			return best, -1
		}
		b := a.As4()
		e := &t.dir[int(b[0])<<8|int(b[1])]
		best, bestLen = e.val, e.bits()
		n := t.sub[e.meta>>dirLenBits]
		for i := dirBits / stride; i < 8 && n != nil; i++ {
			nib := b[i>>1] >> (4 - (i&1)<<2) & 0x0f
			if r := n.rlen[nib]; r > 0 {
				best, bestLen = n.vals[nib], i*stride+int(r)
			}
			n = n.child[nib]
		}
		return best, bestLen
	}
	if t.defSet6 {
		best, bestLen = t.def6, 0
	}
	buf := a.As16()
	n := t.v6
	for i := 0; i < 32; i++ {
		nib := buf[i>>1] >> (4 - (i&1)<<2) & 0x0f
		if r := n.rlen[nib]; r > 0 {
			best, bestLen = n.vals[nib], i*stride+int(r)
		}
		n = n.child[nib]
		if n == nil {
			break
		}
	}
	return best, bestLen
}

// LookupVal is Lookup without materializing the matched prefix; the
// fast path for callers that only need the value.
func (t *Table[V]) LookupVal(a netip.Addr) (V, bool) {
	v, bestLen := t.lookupVal(a)
	return v, bestLen >= 0
}

// Walk visits every (prefix, value) pair in the table in unspecified
// order. Returning false from fn stops the walk.
func (t *Table[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	mk := func(addr [16]byte, bits int, v6 bool) netip.Prefix {
		if v6 {
			return netip.PrefixFrom(netip.AddrFrom16(addr), bits)
		}
		var a4 [4]byte
		copy(a4[:], addr[:4])
		return netip.PrefixFrom(netip.AddrFrom4(a4), bits)
	}
	var rec func(n *node[V], addr [16]byte, depth int, v6 bool) bool
	rec = func(n *node[V], addr [16]byte, depth int, v6 bool) bool {
		for i := range n.exact {
			e := &n.exact[i]
			a := addr
			a[depth>>1] |= e.suffix << (4 - (depth&1)<<2)
			if !fn(mk(a, depth*stride+int(e.r), v6), e.val) {
				return false
			}
		}
		for b := 0; b < fanout; b++ {
			c := n.child[b]
			if c == nil {
				continue
			}
			a := addr
			a[depth>>1] |= uint8(b) << (4 - (depth&1)<<2)
			if !rec(c, a, depth+1, v6) {
				return false
			}
		}
		return true
	}
	var a [16]byte
	if t.defSet4 && !fn(mk(a, 0, false), t.def4) {
		return
	}
	if !rec(t.v4, a, 0, false) {
		return
	}
	if t.defSet6 && !fn(mk(a, 0, true), t.def6) {
		return
	}
	rec(t.v6, a, 0, true)
}
