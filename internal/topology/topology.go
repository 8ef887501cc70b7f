// Package topology models the AS-level Internet: autonomous systems,
// their business relationships (customer/provider/peer), their address
// space (prefixes and prefix-to-AS mapping), and valley-free inter-AS
// routing.
//
// The DISCS evaluation (§VI of the paper) runs against the real CAIDA
// Routeviews prefix-to-AS snapshot of 2012-10-11 (44 036 ASes, ~442k
// routable IPv4 prefixes). That dataset is proprietary-by-availability
// here, so this package also provides a synthetic generator
// (GenerateInternet) producing an Internet of the same scale with a
// heavy-tailed (Zipf) address-space distribution — the only property
// the paper's incentive/effectiveness math depends on is the per-AS
// routable-address ratio r_j.
package topology

import (
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"discs/internal/lpm"
	"discs/internal/slab"
)

// ASN is an autonomous system number.
type ASN uint32

// Relationship describes the business relationship of a link from the
// perspective of the first AS.
type Relationship int

const (
	// CustomerToProvider: the first AS buys transit from the second.
	CustomerToProvider Relationship = iota
	// ProviderToCustomer: the first AS sells transit to the second.
	ProviderToCustomer
	// PeerToPeer: settlement-free peering.
	PeerToPeer
)

func (r Relationship) String() string {
	switch r {
	case CustomerToProvider:
		return "c2p"
	case ProviderToCustomer:
		return "p2c"
	case PeerToPeer:
		return "p2p"
	}
	return fmt.Sprintf("Relationship(%d)", int(r))
}

// AS is one autonomous system.
type AS struct {
	ASN       ASN
	Prefixes  []netip.Prefix
	AddrSpace uint64 // number of routable addresses (sum over Prefixes)

	Providers []ASN
	Customers []ASN
	Peers     []ASN

	// v4 caches the IPv4 address index of Prefixes (addrindex.go): nil
	// until the first draw and again after appendPrefix. Atomic so that
	// concurrent draws on a finished topology stay read-only-safe.
	v4 atomic.Pointer[AddrIndex]
}

// Degree returns the total number of neighbors.
func (a *AS) Degree() int { return len(a.Providers) + len(a.Customers) + len(a.Peers) }

// Topology is an AS-level Internet.
type Topology struct {
	// An AS's dense index is its position in insertion order; index
	// maps ASNs to it, and list and order hold the AS and its number at
	// it. Indices are stable for the life of the topology.
	index  ASNIndex
	list   []*AS
	order  []ASN
	pfx2as *lpm.Table[ASN]
	total  uint64 // global routable address space

	// ASes and their prefix and neighbour lists are carved from slabs:
	// a list whose length is known before it is filled (generation,
	// restore, linkAll) is sized once.
	ases     slab.Slab[AS]
	prefixes slab.Slab[netip.Prefix]
	asns     slab.Slab[ASN]

	// Routing state (see routing.go): a frozen dense index plus a
	// bounded cache of per-destination shortest-path trees, dropped
	// whenever the graph changes.
	routeMu  sync.RWMutex
	routes   atomic.Pointer[routeCache]
	routeCap int // 0 = derive from topology size
	rm       routeMetrics
}

// New creates an empty topology.
func New() *Topology {
	return &Topology{pfx2as: lpm.New[ASN]()}
}

// AddAS registers a new AS.
func (t *Topology) AddAS(asn ASN) (*AS, error) {
	if asn == 0 {
		return nil, errors.New("topology: ASN 0 is reserved")
	}
	if t.AS(asn) != nil {
		return nil, fmt.Errorf("topology: duplicate AS%d", asn)
	}
	return t.add(asn), nil
}

// add creates AS asn at the next dense index; asn must be new and
// nonzero.
func (t *Topology) add(asn ASN) *AS {
	a := t.ases.New()
	a.ASN = asn
	t.index.Put(asn, int32(len(t.list)))
	t.list = append(t.list, a)
	t.order = append(t.order, asn)
	return a
}

// reserve sizes the AS tables for n more ASes.
func (t *Topology) reserve(n int) {
	t.ases.Reserve(n)
	t.index.reserve(t.index.numEntries() + n)
	t.list = slices.Grow(t.list, n)
	t.order = slices.Grow(t.order, n)
}

// AS returns the AS with the given number, or nil.
func (t *Topology) AS(asn ASN) *AS {
	if i, ok := t.index.Get(asn); ok {
		return t.list[i]
	}
	return nil
}

// Index returns the dense index of an AS: its position in ASNs. An
// AS's index never changes, so callers may keep per-AS state in slices
// indexed by it.
func (t *Topology) Index(asn ASN) (int, bool) {
	i, ok := t.index.Get(asn)
	return int(i), ok
}

// NumASes returns the number of ASes.
func (t *Topology) NumASes() int { return len(t.list) }

// ASNIndex maps ASNs to int32 values — a topology's dense indices, a
// key table's slots — in an open-addressed table with linear probing,
// kept at most half full. ASN 0, which no AS may have, marks an empty
// slot. It replaces a Go map on the per-packet path: a lookup is a
// multiply, a shift and, for the generated topologies' consecutive
// ASNs, one slot load. The zero value is an empty index; entries are
// never removed.
type ASNIndex struct {
	slots []asnSlot // len a power of two
	shift uint8     // 32 - log2(len(slots))
	n     int
}

type asnSlot struct {
	asn ASN
	i   int32
}

// slot is the home slot of asn (Fibonacci hashing).
func (x *ASNIndex) slot(asn ASN) uint32 {
	return uint32(asn) * 0x9e3779b1 >> x.shift
}

// Get returns asn's value, and false when asn is not in the index.
func (x *ASNIndex) Get(asn ASN) (int32, bool) {
	if asn == 0 || len(x.slots) == 0 {
		return -1, false
	}
	mask := uint32(len(x.slots) - 1)
	for h := x.slot(asn); ; h = (h + 1) & mask {
		s := &x.slots[h]
		if s.asn == asn {
			return s.i, true
		}
		if s.asn == 0 {
			return -1, false
		}
	}
}

// Put adds asn, which must be absent, with value i.
func (x *ASNIndex) Put(asn ASN, i int32) {
	if 2*(x.n+1) > len(x.slots) {
		x.reserve(x.n + 1)
	}
	mask := uint32(len(x.slots) - 1)
	h := x.slot(asn)
	for x.slots[h].asn != 0 {
		h = (h + 1) & mask
	}
	x.slots[h] = asnSlot{asn, i}
	x.n++
}

// reserve resizes the table, if needed, so that it holds n entries
// without growing.
func (x *ASNIndex) reserve(n int) {
	size := max(16, len(x.slots))
	for 2*n > size {
		size *= 2
	}
	if size == len(x.slots) {
		return
	}
	old := x.slots
	x.slots = make([]asnSlot, size)
	x.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	x.n = 0
	for _, s := range old {
		if s.asn != 0 {
			x.Put(s.asn, s.i)
		}
	}
}

// Clone returns a copy of the index that shares nothing with it: one
// slot-array copy, with no rehashing.
func (x *ASNIndex) Clone() ASNIndex {
	c := *x
	c.slots = slices.Clone(x.slots)
	return c
}

// numEntries returns the number of ASNs in the index.
func (x *ASNIndex) numEntries() int { return x.n }

// ASNs returns all AS numbers in insertion order. The returned slice
// must not be modified.
func (t *Topology) ASNs() []ASN { return t.order }

// Link records a relationship between two ASes. rel is from a's
// perspective: Link(a, b, CustomerToProvider) makes b a provider of a.
func (t *Topology) Link(a, b ASN, rel Relationship) error {
	asA, asB := t.AS(a), t.AS(b)
	if asA == nil || asB == nil {
		return fmt.Errorf("topology: link %d-%d references unknown AS", a, b)
	}
	if a == b {
		return fmt.Errorf("topology: self link on AS%d", a)
	}
	if t.connected(a, b) {
		// A second link between the same pair would double-count
		// Degree() and create duplicate BGP sessions in BuildNetwork.
		return fmt.Errorf("topology: duplicate link %d-%d", a, b)
	}
	if rel != CustomerToProvider && rel != ProviderToCustomer && rel != PeerToPeer {
		return fmt.Errorf("topology: unknown relationship %d", rel)
	}
	appendLink(asA, asB, rel)
	// The graph changed: cached routing trees are stale.
	t.invalidateRoutes()
	return nil
}

// link is one relationship for linkAll, rel from a's perspective.
type link struct {
	a, b ASN
	rel  Relationship
}

// appendLink adds the relationship rel between a and b to both
// neighbour lists.
func appendLink(a, b *AS, rel Relationship) {
	switch rel {
	case CustomerToProvider:
		a.Providers = append(a.Providers, b.ASN)
		b.Customers = append(b.Customers, a.ASN)
	case ProviderToCustomer:
		a.Customers = append(a.Customers, b.ASN)
		b.Providers = append(b.Providers, a.ASN)
	default:
		a.Peers = append(a.Peers, b.ASN)
		b.Peers = append(b.Peers, a.ASN)
	}
}

// linkAll adds links as Link would, in order, after sizing every
// neighbour list once for all of them. The links must be ones Link
// accepts: between known, distinct, not yet linked ASes, with a known
// relationship, and no pair twice.
func (t *Topology) linkAll(links []link) {
	// The number of providers, customers and peers each AS gains.
	gain := make([][3]int32, len(t.list))
	for _, l := range links {
		ia, _ := t.index.Get(l.a)
		ib, _ := t.index.Get(l.b)
		switch l.rel {
		case CustomerToProvider:
			gain[ia][0]++
			gain[ib][1]++
		case ProviderToCustomer:
			gain[ia][1]++
			gain[ib][0]++
		default:
			gain[ia][2]++
			gain[ib][2]++
		}
	}
	need := 0
	for i, a := range t.list {
		for j, list := range [3][]ASN{a.Providers, a.Customers, a.Peers} {
			if k := int(gain[i][j]); cap(list)-len(list) < k {
				need += len(list) + k
			}
		}
	}
	t.asns.Reserve(need)
	for i, a := range t.list {
		a.Providers = t.growASNs(a.Providers, gain[i][0])
		a.Customers = t.growASNs(a.Customers, gain[i][1])
		a.Peers = t.growASNs(a.Peers, gain[i][2])
	}
	for _, l := range links {
		appendLink(t.AS(l.a), t.AS(l.b), l.rel)
	}
	t.invalidateRoutes()
}

// growASNs returns list with room for k more ASNs, moved to a piece of
// the ASN slab if it had none.
func (t *Topology) growASNs(list []ASN, k int32) []ASN {
	if cap(list)-len(list) >= int(k) {
		return list
	}
	return append(t.asns.Take(len(list) + int(k))[:0], list...)
}

// connected reports whether a and b share a link. It scans the
// adjacency lists of the lower-degree endpoint, so probing a tier-1's
// neighborhood from a stub costs the stub's degree, not the tier-1's.
func (t *Topology) connected(a, b ASN) bool {
	asA, asB := t.AS(a), t.AS(b)
	if asA == nil || asB == nil {
		return false
	}
	if asB.Degree() < asA.Degree() {
		asA, b = asB, a
	}
	for _, n := range asA.Providers {
		if n == b {
			return true
		}
	}
	for _, n := range asA.Customers {
		if n == b {
			return true
		}
	}
	for _, n := range asA.Peers {
		if n == b {
			return true
		}
	}
	return false
}

// NumLinks returns the number of (undirected) links. Every transit
// link appears in exactly one Providers list and every peering in two
// Peers lists, so the count is exact given Link's duplicate guard.
func (t *Topology) NumLinks() int {
	transit, peer := 0, 0
	for _, a := range t.list {
		transit += len(a.Providers)
		peer += len(a.Peers)
	}
	return transit + peer/2
}

// AddPrefix assigns a prefix to an AS and updates the prefix-to-AS
// table and address-space accounting. Prefixes must be disjoint across
// ASes for the accounting to be exact; overlapping announcements
// replace the longest-match owner the way a routing table would.
func (t *Topology) AddPrefix(asn ASN, p netip.Prefix) error {
	a := t.AS(asn)
	if a == nil {
		return fmt.Errorf("topology: unknown AS%d", asn)
	}
	return t.addPrefix(a, p)
}

// addPrefix is AddPrefix for an AS of the topology.
func (t *Topology) addPrefix(a *AS, p netip.Prefix) error {
	p = p.Masked()
	if err := t.pfx2as.Insert(p, a.ASN); err != nil {
		return err
	}
	a.appendPrefix(p)
	size := prefixSize(p)
	a.AddrSpace += size
	t.total += size
	return nil
}

// prefixSize returns the number of addresses covered by p, with IPv6
// prefixes counted in /64 subnets to keep magnitudes comparable.
func prefixSize(p netip.Prefix) uint64 {
	if p.Addr().Is4() {
		return 1 << (32 - p.Bits())
	}
	bits := p.Bits()
	if bits > 64 {
		bits = 64
	}
	return 1 << (64 - bits)
}

// OwnerOf returns the AS owning the longest matching prefix for addr.
// This doubles as the RPKI ownership oracle used by DISCS controllers
// to validate invocation requests (§IV-E3).
func (t *Topology) OwnerOf(addr netip.Addr) (ASN, bool) {
	return t.pfx2as.LookupVal(addr)
}

// OwnerOfPrefix returns the AS owning the prefix (by longest match on
// its base address) and whether the entire prefix lies inside the
// owner's matched prefix.
func (t *Topology) OwnerOfPrefix(p netip.Prefix) (ASN, bool) {
	asn, matched, ok := t.pfx2as.Lookup(p.Addr())
	if !ok || matched.Bits() > p.Bits() {
		return 0, false
	}
	return asn, true
}

// Ratio returns r_j, the ratio of AS j's routable address space to the
// global routable space. Per §VI-A2, an AS with zero space is treated
// as owning one address to avoid division by zero.
func (t *Topology) Ratio(asn ASN) float64 {
	a := t.AS(asn)
	if a == nil || t.total == 0 {
		return 0
	}
	space := a.AddrSpace
	if space == 0 {
		space = 1
	}
	return float64(space) / float64(t.total)
}

// BySizeDesc returns all ASNs sorted by address space, largest first,
// with ASN as the tie-breaker for determinism. This is the paper's
// optimal deployment order (§VI-A3).
func (t *Topology) BySizeDesc() []ASN {
	out := append([]ASN(nil), t.order...)
	sort.Slice(out, func(i, j int) bool {
		si, sj := t.AS(out[i]).AddrSpace, t.AS(out[j]).AddrSpace
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// Pfx2AS exposes the prefix-to-AS mapping table (read-only use).
func (t *Topology) Pfx2AS() *lpm.Table[ASN] { return t.pfx2as }
