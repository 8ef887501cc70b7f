// RIB layout. Per-route state holds no Go pointers, so the collector
// never scans it: a prefix is a dense network-wide uint32 id, an AS
// path is a hash-consed uint32 handle into a per-shard arena, and an
// attribute set is a uint32 id. A speaker keeps one row per prefix it
// holds, and one degree-wide slab of Adj-RIB-In entries per row, its
// neighbours in ASN order (DESIGN.md §10, "RIB layout").
package bgp

import (
	"encoding/binary"
	"net/netip"

	"discs/internal/topology"
)

// Loc-RIB slot markers: no route, or a locally originated one.
const (
	slotNone  int32 = -1
	slotLocal int32 = -2
)

// ribRoute is one learned route: an AS-path handle and an
// attribute-set id. A learned path always starts with the neighbour
// that sent it, so path 0 (the empty path) marks an empty Adj-RIB-In
// entry.
type ribRoute struct {
	path  uint32
	attrs uint32
}

// locRoute is a Loc-RIB entry: the neighbour slot the best route came
// from (or slotLocal/slotNone) and a copy of that route.
type locRoute struct {
	slot int32
	ribRoute
}

// ribRow is a speaker's state for one prefix: its Loc-RIB entry, and
// the index of its Adj-RIB-In block in the speaker's slab.
type ribRow struct {
	pid   uint32
	block uint32
	best  locRoute
}

// seenAd is one DISCS-Ad a speaker has learned: the latest Ad id per
// origin.
type seenAd struct {
	origin topology.ASN
	id     uint32
}

// pathCell is one hash-consed AS path: head followed by the path whose
// handle is tail. n is the hop count. Cell 0 is the empty path.
type pathCell struct {
	head topology.ASN
	tail uint32
	n    uint32
}

// pathArena hash-conses the AS paths of one shard: equal paths have
// equal handles, and prepending a hop is one lookup. Only the engine
// lane that executes the shard's speakers writes it (or the coordinator
// at the epoch barrier, or the driver while the engine is parked),
// because lanes run concurrently. Cells are never freed: the arena holds
// every distinct path the shard has seen.
type pathArena struct {
	id    uint32 // the arena's index in tables.arenas
	cells []pathCell
	index []uint32 // open addressing over cells: a handle, 0 = free; len is a power of two
}

func newPathArena(id uint32) *pathArena {
	return &pathArena{id: id, cells: make([]pathCell, 1, 64), index: make([]uint32, 128)}
}

func cellHash(head topology.ASN, tail uint32) uint32 {
	return uint32((uint64(head)<<32 | uint64(tail)) * 0x9e3779b97f4a7c15 >> 32)
}

// cons returns the handle of the path head·tail, adding it if new.
func (a *pathArena) cons(head topology.ASN, tail uint32) uint32 {
	mask := uint32(len(a.index) - 1)
	i := cellHash(head, tail) & mask
	for ; a.index[i] != 0; i = (i + 1) & mask {
		if c := &a.cells[a.index[i]]; c.head == head && c.tail == tail {
			return a.index[i]
		}
	}
	h := uint32(len(a.cells))
	a.cells = append(a.cells, pathCell{head: head, tail: tail, n: a.cells[tail].n + 1})
	a.index[i] = h
	if 2*len(a.cells) > len(a.index) {
		a.grow()
	}
	return h
}

func (a *pathArena) grow() {
	a.index = make([]uint32, 2*len(a.index))
	mask := uint32(len(a.index) - 1)
	for h := 1; h < len(a.cells); h++ {
		c := &a.cells[h]
		i := cellHash(c.head, c.tail) & mask
		for a.index[i] != 0 {
			i = (i + 1) & mask
		}
		a.index[i] = uint32(h)
	}
}

// copyPath returns the handle in a of path h of arena src.
func (a *pathArena) copyPath(src *pathArena, h uint32) uint32 {
	if h == 0 {
		return 0
	}
	c := src.cells[h]
	return a.cons(c.head, a.copyPath(src, c.tail))
}

// contains reports whether path h passes through asn.
func (a *pathArena) contains(h uint32, asn topology.ASN) bool {
	for ; h != 0; h = a.cells[h].tail {
		if a.cells[h].head == asn {
			return true
		}
	}
	return false
}

// appendPath appends the hops of path h to dst.
func (a *pathArena) appendPath(dst []topology.ASN, h uint32) []topology.ASN {
	for ; h != 0; h = a.cells[h].tail {
		dst = append(dst, a.cells[h].head)
	}
	return dst
}

// hops returns the length of path h.
func (a *pathArena) hops(h uint32) uint32 { return a.cells[h].n }

// attrSet is one interned attribute list with the DISCS-Ads it carries.
type attrSet struct {
	attrs []Attr
	ads   []uint32 // Ad ids, in attribute order
	size  int      // wire size of the attributes
}

// tables holds what every speaker of a network shares: the prefix,
// attribute-set and DISCS-Ad tables, written only from driver context
// (Originate, ReOriginate, restore) while no event runs, and the
// per-shard path arenas.
type tables struct {
	prefixes []netip.Prefix
	keys     []string // prefixes[i].String(): Routes and SessionDown sort by it
	pids     map[netip.Prefix]uint32

	sets   []attrSet // sets[0] is the empty set
	setIDs map[string]uint32

	ads   []DISCSAd
	adIDs map[DISCSAd]uint32

	arenas []*pathArena // one per shard
}

func newTables() *tables {
	return &tables{
		pids:   make(map[netip.Prefix]uint32),
		sets:   []attrSet{{}},
		setIDs: map[string]uint32{"": 0},
		adIDs:  make(map[DISCSAd]uint32),
		arenas: []*pathArena{newPathArena(0)},
	}
}

// prefixID returns p's id, assigning the next one if p is new.
func (t *tables) prefixID(p netip.Prefix) uint32 {
	if id, ok := t.pids[p]; ok {
		return id
	}
	id := uint32(len(t.prefixes))
	t.prefixes = append(t.prefixes, p)
	t.keys = append(t.keys, p.String())
	t.pids[p] = id
	return id
}

// internAttrs returns the id of the attribute list attrs, copying it
// into the table if it is new.
func (t *tables) internAttrs(attrs []Attr) uint32 {
	var key []byte
	for _, a := range attrs {
		key = append(key, a.Flags, a.Code)
		key = binary.AppendUvarint(key, uint64(len(a.Data)))
		key = append(key, a.Data...)
	}
	if id, ok := t.setIDs[string(key)]; ok {
		return id
	}
	set := attrSet{attrs: make([]Attr, len(attrs))}
	for i, a := range attrs {
		set.attrs[i] = Attr{Flags: a.Flags, Code: a.Code, Data: append([]byte(nil), a.Data...)}
		set.size += 3 + len(a.Data)
		if a.Code != AttrCodeDISCSAd {
			continue
		}
		if ad, err := DecodeDISCSAd(a.Data); err == nil {
			set.ads = append(set.ads, t.adID(ad))
		}
	}
	id := uint32(len(t.sets))
	t.sets = append(t.sets, set)
	t.setIDs[string(key)] = id
	return id
}

// size approximates the wire size of u for netsim bandwidth accounting:
// header, NLRI, two bytes per AS-path hop and the attributes.
func (t *tables) size(u Update) int {
	return 23 + 5 + 2*int(u.hops) + t.sets[u.attrs].size
}

func (t *tables) adID(ad DISCSAd) uint32 {
	if id, ok := t.adIDs[ad]; ok {
		return id
	}
	id := uint32(len(t.ads))
	t.ads = append(t.ads, ad)
	t.adIDs[ad] = id
	return id
}
