// Checkpoint/restore seam. A network's routing state — the prefix and
// attribute-set tables, the per-shard AS-path arenas, and every
// speaker's rows, Adj-RIB-In slab and DISCS-Ad set — is serialized as
// data and injected back directly, with no UPDATE messages replayed:
// the whole point of a post-convergence snapshot is to skip the
// convergence event storm. The slabs are written as they are, handles
// and all; a Loc-RIB entry that is not local is stored as its
// neighbour slot, a reference into its row of the slab.
//
// Restore treats the image as hostile: every prefix id, neighbour slot,
// path handle and attribute-set id is range-checked before use, and
// every count is bounded by the bytes left to read, so a bad image is
// an error, never a panic or an allocation larger than the image.
package bgp

import (
	"errors"
	"fmt"

	"discs/internal/slab"
	"discs/internal/snapcodec"
	"discs/internal/topology"
)

// Loc-RIB entry encoding: 0 none, 1 local, 2+slot a learned route.
const (
	bestNone  = 0
	bestLocal = 1
)

func (t *tables) checkpoint(w *snapcodec.Writer) {
	w.Uvarint(uint64(len(t.prefixes)))
	for _, p := range t.prefixes {
		w.Prefix(p)
	}
	w.Uvarint(uint64(len(t.sets) - 1))
	for _, set := range t.sets[1:] {
		w.Uvarint(uint64(len(set.attrs)))
		for _, a := range set.attrs {
			w.U8(a.Flags)
			w.U8(a.Code)
			w.Bytes(a.Data)
		}
	}
	w.Uvarint(uint64(len(t.arenas)))
	for _, a := range t.arenas {
		w.Uvarint(uint64(len(a.cells) - 1))
		for _, c := range a.cells[1:] {
			w.Uvarint(uint64(c.head))
			w.Uvarint(uint64(c.tail))
		}
	}
}

// restore loads tables written by checkpoint into fresh tables.
func (t *tables) restore(r *snapcodec.Reader) error {
	if len(t.prefixes) != 0 || len(t.sets) != 1 {
		return errors.New("bgp: restore into a network that already holds routes")
	}
	np := r.Count(6)
	for i := 0; i < np; i++ {
		p := r.Prefix()
		if r.Err() != nil {
			return r.Err()
		}
		if p != p.Masked() || t.prefixID(p) != uint32(i) {
			return fmt.Errorf("bgp: restore: prefix %d (%v) is not canonical or repeats", i, p)
		}
	}
	ns := r.Count(1)
	for i := 0; i < ns; i++ {
		na := r.Count(3)
		attrs := make([]Attr, na)
		for j := range attrs {
			attrs[j] = Attr{Flags: r.U8(), Code: r.U8(), Data: r.Bytes()}
		}
		if r.Err() != nil {
			return r.Err()
		}
		if t.internAttrs(attrs) != uint32(i+1) {
			return fmt.Errorf("bgp: restore: attribute set %d repeats", i+1)
		}
	}
	if n := r.Count(1); r.Err() == nil && n != len(t.arenas) {
		return fmt.Errorf("bgp: restore: image has %d path arenas, network has %d shards", n, len(t.arenas))
	}
	for _, a := range t.arenas {
		nc := r.Count(2)
		for i := 1; i <= nc; i++ {
			head, tail := topology.ASN(r.Uvarint()), r.Uvarint()
			if r.Err() != nil {
				return r.Err()
			}
			if tail >= uint64(i) || a.cons(head, uint32(tail)) != uint32(i) {
				return fmt.Errorf("bgp: restore: path cell %d is out of order or repeats", i)
			}
		}
	}
	return r.Err()
}

// checkpoint serializes one speaker's routing state.
func (s *Speaker) checkpoint(w *snapcodec.Writer) {
	w.Uvarint(s.UpdatesSent)
	w.Uvarint(s.UpdatesRecv)
	w.Uvarint(uint64(len(s.rows)))
	for _, row := range s.rows {
		w.Uvarint(uint64(row.pid))
		switch row.best.slot {
		case slotNone:
			w.Uvarint(bestNone)
		case slotLocal:
			w.Uvarint(bestLocal)
			w.Uvarint(uint64(row.best.attrs))
		default:
			w.Uvarint(2 + uint64(row.best.slot))
		}
	}
	for ri := range s.rows {
		for _, rt := range s.adjRow(int32(ri)) {
			w.Uvarint(uint64(rt.path))
			w.Uvarint(uint64(rt.attrs))
		}
	}
	w.Uvarint(uint64(len(s.seen)))
	for _, a := range s.seen {
		w.Uvarint(uint64(a.id))
	}
}

// ribSlabs are the arrays a restore carves the speakers' rows,
// Adj-RIB-In slabs and DISCS-Ad sets from.
type ribSlabs struct {
	rows slab.Slab[ribRow]
	adj  slab.Slab[ribRoute]
	seen slab.Slab[seenAd]
}

// restore injects state written by checkpoint into a fresh speaker.
func (s *Speaker) restore(r *snapcodec.Reader, from *ribSlabs) error {
	if len(s.rows) != 0 || len(s.seen) != 0 {
		return fmt.Errorf("bgp: restore: AS%d appears twice in the image", s.ASN)
	}
	s.UpdatesSent = r.Uvarint()
	s.UpdatesRecv = r.Uvarint()
	d := uint64(len(s.nbrs))
	// A row costs at least its two header bytes plus two per slot.
	nr := r.Count(2 + 2*len(s.nbrs))
	// The rows arrive in prefix-id order, so each is added at the end:
	// size the row list and the slab once.
	s.rows = from.rows.Take(nr)[:0]
	s.adj = from.adj.Take(nr * len(s.nbrs))[:0]
	for i := 0; i < nr; i++ {
		pid, best := r.Uvarint(), r.Uvarint()
		var attrs uint64
		if best == bestLocal {
			attrs = r.Uvarint()
		}
		if r.Err() != nil {
			return r.Err()
		}
		if pid >= uint64(len(s.tabs.prefixes)) || best >= 2+d || attrs >= uint64(len(s.tabs.sets)) {
			return fmt.Errorf("bgp: restore: AS%d row %d: prefix id, slot or attribute set out of range", s.ASN, i)
		}
		if i > 0 && uint32(pid) <= s.rows[i-1].pid {
			return fmt.Errorf("bgp: restore: AS%d rows out of prefix-id order", s.ASN)
		}
		slot := int32(best) - 2
		switch best {
		case bestNone:
			slot = slotNone
		case bestLocal:
			slot = slotLocal
		}
		ri := s.row(uint32(pid))
		s.rows[ri].best = locRoute{slot: slot, ribRoute: ribRoute{attrs: uint32(attrs)}}
	}
	// Rows were added in prefix-id order, so the slab's blocks are in
	// row order, the order they were written in.
	for i := range s.adj {
		path, attrs := r.Uvarint(), r.Uvarint()
		if r.Err() != nil {
			return r.Err()
		}
		if path >= uint64(len(s.paths.cells)) || attrs >= uint64(len(s.tabs.sets)) {
			return fmt.Errorf("bgp: restore: AS%d Adj-RIB-In entry %d: path handle or attribute set out of range", s.ASN, i)
		}
		s.adj[i] = ribRoute{path: uint32(path), attrs: uint32(attrs)}
	}
	// decide keeps each Loc-RIB entry the best of its row; an image that
	// breaks that would make it pick wrong routes from then on.
	for ri := range s.rows {
		b := &s.rows[ri].best
		if b.slot == slotLocal {
			continue
		}
		adj := s.adjRow(int32(ri))
		if s.bestOf(adj) != b.slot {
			return fmt.Errorf("bgp: restore: AS%d Loc-RIB entry for %v is not the best route of its row",
				s.ASN, s.tabs.prefixes[s.rows[ri].pid])
		}
		if b.slot >= 0 {
			b.ribRoute = adj[b.slot]
		}
	}
	na := r.Count(1)
	s.seen = from.seen.Take(na)[:0]
	for i := 0; i < na; i++ {
		id := r.Uvarint()
		if r.Err() != nil {
			return r.Err()
		}
		if id >= uint64(len(s.tabs.ads)) {
			return fmt.Errorf("bgp: restore: AS%d DISCS-Ad id %d out of range", s.ASN, id)
		}
		a := seenAd{origin: s.tabs.ads[id].Origin, id: uint32(id)}
		if i > 0 && a.origin <= s.seen[i-1].origin {
			return fmt.Errorf("bgp: restore: AS%d DISCS-Ads out of order", s.ASN)
		}
		s.seen = append(s.seen, a)
	}
	return r.Err()
}

// Checkpoint serializes the network's tables and every speaker's
// routing state, in topology order.
func (n *Network) Checkpoint(w *snapcodec.Writer) error {
	n.tabs.checkpoint(w)
	asns := n.Topo.ASNs()
	w.Uvarint(uint64(len(asns)))
	for _, asn := range asns {
		w.Uvarint(uint64(asn))
		n.Speakers[asn].checkpoint(w)
	}
	return nil
}

// RestoreCheckpoint loads state written by Checkpoint into a freshly
// built network over the same (restored) topology and shard count.
func (n *Network) RestoreCheckpoint(r *snapcodec.Reader) error {
	if err := n.tabs.restore(r); err != nil {
		return err
	}
	cnt := r.Count(2)
	if r.Err() != nil {
		return r.Err()
	}
	if cnt != len(n.Speakers) {
		return fmt.Errorf("bgp: restore: image has %d speakers, network has %d", cnt, len(n.Speakers))
	}
	var from ribSlabs
	for i := 0; i < cnt; i++ {
		asn := topology.ASN(r.Uvarint())
		if r.Err() != nil {
			return r.Err()
		}
		sp := n.Speakers[asn]
		if sp == nil {
			return fmt.Errorf("bgp: restore: image speaker AS%d absent from network", asn)
		}
		if err := sp.restore(r, &from); err != nil {
			return err
		}
	}
	return nil
}
