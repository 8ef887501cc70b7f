// Checkpoint/restore seam. The topology serializes its internals
// verbatim rather than replaying construction calls: per-AS neighbor
// lists keep their exact insertion order because adjacency order
// breaks BFS ties in the valley-free routing trees and fixes the link
// creation order in bgp.BuildNetwork — a restored world must reproduce
// both bit-for-bit. The prefix-to-AS table is serialized as its own
// entry list (not re-derived from per-AS prefix lists) so multi-origin
// corner cases survive a round trip. The route-tree cache itself is
// not serialized — only warmth markers, the FIFO-ordered list of
// destination ASNs whose trees were cached, which the restore path
// re-warms with WarmRoutes.
package topology

import (
	"fmt"
	"net/netip"

	"discs/internal/slab"
	"discs/internal/snapcodec"
)

func writeASNs(w *snapcodec.Writer, list []ASN) {
	w.Uvarint(uint64(len(list)))
	for _, a := range list {
		w.Uvarint(uint64(a))
	}
}

// readASNs reads a list written by writeASNs into a piece of from.
func readASNs(r *snapcodec.Reader, from *slab.Slab[ASN]) []ASN {
	out := from.Take(r.Count(1))
	for i := range out {
		out[i] = ASN(r.Uvarint())
	}
	return out
}

// warmedDestinations returns the destination ASNs whose routing trees
// are currently cached, in cache insertion order (the FIFO eviction
// order, so re-warming in this order reproduces the cache exactly).
func (t *Topology) warmedDestinations() []ASN {
	t.routeMu.RLock()
	defer t.routeMu.RUnlock()
	rc := t.routes.Load()
	if rc == nil {
		return nil
	}
	out := make([]ASN, 0, len(rc.fifo))
	for _, root := range rc.fifo {
		out = append(out, rc.ix.asns[root])
	}
	return out
}

// Checkpoint serializes the full topology plus route-cache warmth
// markers.
func (t *Topology) Checkpoint(w *snapcodec.Writer) error {
	w.Uvarint(uint64(len(t.order)))
	for _, asn := range t.order {
		a := t.AS(asn)
		w.Uvarint(uint64(asn))
		w.Uvarint(a.AddrSpace)
		w.Uvarint(uint64(len(a.Prefixes)))
		for _, p := range a.Prefixes {
			w.Prefix(p)
		}
		writeASNs(w, a.Providers)
		writeASNs(w, a.Customers)
		writeASNs(w, a.Peers)
	}
	w.Uvarint(t.total)
	w.Uvarint(uint64(t.pfx2as.Len()))
	t.pfx2as.Walk(func(p netip.Prefix, v ASN) bool {
		w.Prefix(p)
		w.Uvarint(uint64(v))
		return true
	})
	w.Varint(int64(t.routeCap))
	active := t.routes.Load() != nil
	w.Bool(active)
	writeASNs(w, t.warmedDestinations())
	return nil
}

// RestoreTopology rebuilds a topology from a Checkpoint section and
// returns it together with the warmth markers (the caller re-warms
// them once metric publication is wired up, so cache hit/miss counters
// accrue in the right registry).
func RestoreTopology(r *snapcodec.Reader) (*Topology, []ASN, error) {
	t := New()
	n := r.Count(4)
	t.reserve(n)
	for i := 0; i < n; i++ {
		asn := ASN(r.Uvarint())
		if r.Err() != nil {
			return nil, nil, r.Err()
		}
		if asn == 0 || t.AS(asn) != nil {
			return nil, nil, fmt.Errorf("topology: restore: invalid or duplicate AS%d", asn)
		}
		// Every list's length precedes it, so each is read into a
		// piece of the topology's slabs of its exact size.
		a := t.add(asn)
		a.AddrSpace = r.Uvarint()
		np := r.Count(6)
		a.Prefixes = t.prefixes.Take(np)[:0]
		for range np {
			a.appendPrefix(r.Prefix())
		}
		a.Providers = readASNs(r, &t.asns)
		a.Customers = readASNs(r, &t.asns)
		a.Peers = readASNs(r, &t.asns)
		if r.Err() != nil {
			return nil, nil, r.Err()
		}
	}
	t.total = r.Uvarint()
	npfx := r.Count(6)
	for i := 0; i < npfx; i++ {
		p := r.Prefix()
		asn := ASN(r.Uvarint())
		if r.Err() != nil {
			return nil, nil, r.Err()
		}
		if err := t.pfx2as.Insert(p, asn); err != nil {
			return nil, nil, fmt.Errorf("topology: restore: %w", err)
		}
	}
	t.routeCap = int(r.Varint())
	// nil warm ⇔ the route cache did not exist at checkpoint time; an
	// empty non-nil slice means it existed but held no trees. The
	// caller mirrors that: WarmRoutes (which instantiates the cache)
	// only when warm is non-nil.
	active := r.Bool()
	var warm []ASN
	if nw := r.Count(1); nw > 0 {
		warm = make([]ASN, nw)
		for i := range warm {
			warm[i] = ASN(r.Uvarint())
		}
	}
	if active && warm == nil {
		warm = []ASN{}
	} else if !active {
		warm = nil
	}
	if r.Err() != nil {
		return nil, nil, r.Err()
	}
	// Neighbor lists must be closed over the AS set, or BuildNetwork
	// on the restored topology would dereference a missing AS.
	for _, asn := range t.order {
		a := t.AS(asn)
		for _, lists := range [][]ASN{a.Providers, a.Customers, a.Peers} {
			for _, nb := range lists {
				if t.AS(nb) == nil {
					return nil, nil, fmt.Errorf("topology: restore: AS%d references missing AS%d", asn, nb)
				}
			}
		}
	}
	return t, warm, nil
}
