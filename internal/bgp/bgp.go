// Package bgp implements a simplified BGP-4 on top of the netsim
// simulator: per-AS speakers with eBGP sessions along topology links,
// Adj-RIB-In / Loc-RIB structures, Gao-Rexford export policies, and
// best-path selection.
//
// Its role in this repository is to carry the DISCS-Ad (§IV-B of the
// paper): an optional transitive path attribute announcing a DAS and
// its controller address. Legacy ASes forward the attribute without
// understanding it — exactly the property DISCS relies on for
// Internet-wide, incrementally-deployable discovery.
package bgp

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"discs/internal/netsim"
	"discs/internal/slab"
	"discs/internal/topology"
)

// Path attribute flags (RFC 4271 §4.3).
const (
	attrFlagOptional   = 0x80
	attrFlagTransitive = 0x40
)

// attrCodeDISCSAd is the (to-be-IANA-assigned) path attribute type
// code for the DISCS advertisement.
const attrCodeDISCSAd = 0xF0

// Attr is a BGP path attribute. Unrecognized optional transitive
// attributes are retained and propagated (RFC 4271 §5), which is what
// lets DISCS-Ads cross legacy ASes.
type Attr struct {
	Flags uint8
	Code  uint8
	Data  []byte
}

// DISCSAd is the payload of a DISCS advertisement: the origin DAS and
// the name (or address) of its controller.
type DISCSAd struct {
	Origin     topology.ASN
	Controller string
}

// encode serializes the Ad into attribute data.
func (ad DISCSAd) encode() []byte {
	b := make([]byte, 4+len(ad.Controller))
	binary.BigEndian.PutUint32(b[:4], uint32(ad.Origin))
	copy(b[4:], ad.Controller)
	return b
}

// decodeDISCSAd parses attribute data into a DISCSAd.
func decodeDISCSAd(b []byte) (DISCSAd, error) {
	if len(b) < 4 {
		return DISCSAd{}, fmt.Errorf("bgp: DISCS-Ad too short (%d bytes)", len(b))
	}
	return DISCSAd{
		Origin:     topology.ASN(binary.BigEndian.Uint32(b[:4])),
		Controller: string(b[4:]),
	}, nil
}

// NewDISCSAdAttr wraps an Ad in an optional transitive attribute.
func NewDISCSAdAttr(ad DISCSAd) Attr {
	return Attr{Flags: attrFlagOptional | attrFlagTransitive, Code: attrCodeDISCSAd, Data: ad.encode()}
}

// update is a BGP UPDATE for a single prefix. It is a value that
// travels inside its delivery event (netsim.Value) and holds no pointer:
// the sender, the prefix and attribute-set ids, the AS path after the
// sender as a handle, and the hop count. An export allocates nothing.
type update struct {
	From      topology.ASN // the sending speaker
	Withdrawn bool

	pid   uint32 // the prefix's id in the network's prefix table
	attrs uint32 // the attribute set's id in the network's table
	// path is the handle of the AS path after From in the path arena
	// whose id is arena: the sender's, until the update crosses into a
	// receiver's shard and its path is copied there (ImportValue).
	path  uint32
	arena uint32
	hops  uint32 // AS-path length, From included
}

// value packs u into its netsim delivery payload.
func (u update) value() netsim.Value {
	flags := u.arena << 1
	if u.Withdrawn {
		flags |= 1
	}
	return netsim.Value{uint32(u.From), u.pid, u.attrs, u.path, u.hops, flags}
}

// updateOf unpacks what value packed.
func updateOf(v netsim.Value) update {
	return update{From: topology.ASN(v[0]), Withdrawn: v[5]&1 != 0,
		pid: v[1], attrs: v[2], path: v[3], hops: v[4], arena: v[5] >> 1}
}

// Route is a view of a Loc-RIB entry.
type Route struct {
	Prefix  netip.Prefix
	ASPath  []topology.ASN // first element is the neighbor the route came from
	Attrs   []Attr
	From    topology.ASN          // advertising neighbor; 0 for locally originated
	FromRel topology.Relationship // relationship of the hop to From (our perspective)
	Local   bool
}

// AdHandler receives DISCS-Ads extracted from propagated updates.
type AdHandler func(ad DISCSAd)

// Business preference of a route by the neighbour it came from:
// customer routes earn money, then peer routes, then provider routes.
const (
	prefProvider uint8 = iota
	prefPeer
	prefCustomer
)

// neighbor is one eBGP session. A speaker's neighbours are sorted by
// ASN, and a neighbour's index there is its slot in every Adj-RIB-In
// row.
type neighbor struct {
	asn  topology.ASN
	pref uint8        // prefCustomer, prefPeer or prefProvider
	link *netsim.Link // the session's link, the first between the two nodes
}

// rel is our perspective of the hop to the neighbour.
func (n *neighbor) rel() topology.Relationship {
	switch n.pref {
	case prefCustomer:
		return topology.ProviderToCustomer
	case prefPeer:
		return topology.PeerToPeer
	}
	return topology.CustomerToProvider
}

// Speaker is the BGP process of one AS, attached to one netsim node
// (the AS's border-router abstraction), whose handler it is.
type Speaker struct {
	ASN  topology.ASN
	node *netsim.Node

	tabs  *tables
	paths *pathArena // the arena of the speaker's shard

	nbrs []neighbor
	// Gao-Rexford export lists, as slots in ASN order: routes from
	// customers (and local routes) go to everyone, routes from peers
	// and providers to customers only.
	toAll, toCustomers []int32

	rows []ribRow   // sorted by prefix id
	adj  []ribRoute // Adj-RIB-In slab of degree-wide blocks, one per row

	adHandlers []AdHandler
	seen       []seenAd // sorted by origin

	// Stats.
	UpdatesSent, UpdatesRecv uint64
}

// init makes s the speaker of asn on node, its sessions to be added
// into nbrs (empty, with room for them all).
func (s *Speaker) init(asn topology.ASN, node *netsim.Node, tabs *tables, nbrs []neighbor) {
	*s = Speaker{ASN: asn, node: node, tabs: tabs, paths: tabs.arenas[0], nbrs: nbrs}
	node.SetHandler(handler{s})
}

// handler is a Speaker's netsim.ValueHandler: its node receives only
// UPDATE values.
type handler struct{ s *Speaker }

func (handler) Receive(*netsim.Node, *netsim.Link, netsim.Message) {}

func (h handler) ReceiveValue(from *netsim.Node, _ *netsim.Link, v netsim.Value) {
	h.s.receive(from, updateOf(v))
}

// ImportValue copies the path of an UPDATE from another shard into the
// receiver's arena. It runs at the epoch barrier (or while the engine is
// parked), when no lane writes either arena.
func (h handler) ImportValue(_ *netsim.Node, v netsim.Value) netsim.Value {
	s := h.s
	u := updateOf(v)
	if u.arena == s.paths.id {
		return v
	}
	u.path = s.paths.copyPath(s.tabs.arenas[u.arena], u.path)
	u.arena = s.paths.id
	return u.value()
}

// Node returns the netsim node this speaker runs on.
func (s *Speaker) Node() *netsim.Node { return s.node }

// addNeighbor declares an eBGP session over link to the neighbor
// speaker's node. rel is the relationship of the hop from this AS to
// the neighbor. finishNeighbors must run before the speaker handles any
// route.
func (s *Speaker) addNeighbor(asn topology.ASN, link *netsim.Link, rel topology.Relationship) {
	pref := prefProvider
	switch rel {
	case topology.ProviderToCustomer:
		pref = prefCustomer
	case topology.PeerToPeer:
		pref = prefPeer
	}
	s.nbrs = append(s.nbrs, neighbor{asn: asn, pref: pref, link: link})
}

// finishNeighbors fixes the slot order and the export lists: toAll is
// all[:degree] (all holds 0, 1, 2, ... up to at least the degree), and
// toCustomers a piece of customers.
func (s *Speaker) finishNeighbors(all []int32, customers *slab.Slab[int32]) {
	slices.SortFunc(s.nbrs, func(a, b neighbor) int { return cmp.Compare(a.asn, b.asn) })
	d := len(s.nbrs)
	s.toAll = all[:d:d]
	nc := 0
	for i := range s.nbrs {
		if s.nbrs[i].pref == prefCustomer {
			nc++
		}
	}
	s.toCustomers = customers.Take(nc)[:0]
	for i := range s.nbrs {
		if s.nbrs[i].pref == prefCustomer {
			s.toCustomers = append(s.toCustomers, int32(i))
		}
	}
}

// slotOf returns the slot of neighbour asn, or -1.
func (s *Speaker) slotOf(asn topology.ASN) int32 {
	lo, hi := 0, len(s.nbrs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.nbrs[m].asn < asn {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(s.nbrs) && s.nbrs[lo].asn == asn {
		return int32(lo)
	}
	return -1
}

// find returns the row of prefix id pid, or where to insert it.
func (s *Speaker) find(pid uint32) (int32, bool) {
	lo, hi := 0, len(s.rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.rows[m].pid < pid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int32(lo), lo < len(s.rows) && s.rows[lo].pid == pid
}

// row returns the row of prefix id pid, adding an empty one if needed.
// Adding a row renumbers the rows after it.
func (s *Speaker) row(pid uint32) int32 {
	ri, ok := s.find(pid)
	if !ok {
		block := uint32(len(s.rows))
		s.rows = slices.Insert(s.rows, int(ri), ribRow{pid: pid, block: block, best: locRoute{slot: slotNone}})
		s.adj = append(s.adj, make([]ribRoute, len(s.nbrs))...)
	}
	return ri
}

// rowFor returns the row of prefix p, if the speaker has one.
func (s *Speaker) rowFor(p netip.Prefix) (int32, bool) {
	pid, ok := s.tabs.pids[p.Masked()]
	if !ok {
		return 0, false
	}
	return s.find(pid)
}

// adjRow returns row ri's Adj-RIB-In block, indexed by neighbour slot.
func (s *Speaker) adjRow(ri int32) []ribRoute {
	d := uint32(len(s.nbrs))
	b := s.rows[ri].block
	return s.adj[b*d : (b+1)*d]
}

// OnAd registers a handler invoked once per newly learned DISCS-Ad
// (deduplicated by origin+controller).
func (s *Speaker) OnAd(h AdHandler) { s.adHandlers = append(s.adHandlers, h) }

// Originate installs a locally originated route and announces it to
// neighbors according to export policy. Call it from driver context
// (not from inside a simulator event): it may add to the network's
// prefix and attribute tables.
func (s *Speaker) Originate(p netip.Prefix, attrs ...Attr) {
	pid := s.tabs.prefixID(p.Masked())
	r := locRoute{slot: slotLocal, ribRoute: ribRoute{attrs: s.tabs.internAttrs(attrs)}}
	ri := s.row(pid)
	s.rows[ri].best = r
	s.export(pid, r)
}

// ReOriginate re-announces an already-originated prefix with new
// attributes. The paper's DISCS-Ad bootstrap uses this: the update
// prepends the origin AS so legacy routers accept a changed route
// without reachability impact (§IV-B). Like Originate, it runs in
// driver context.
func (s *Speaker) ReOriginate(p netip.Prefix, attrs ...Attr) error {
	ri, ok := s.rowFor(p)
	if !ok || s.rows[ri].best.slot != slotLocal {
		return fmt.Errorf("bgp: AS%d does not originate %v", s.ASN, p.Masked())
	}
	row := &s.rows[ri]
	row.best.attrs = s.tabs.internAttrs(attrs)
	s.export(row.pid, row.best)
	return nil
}

// LocRib returns the current best route for p.
func (s *Speaker) LocRib(p netip.Prefix) (Route, bool) {
	ri, ok := s.rowFor(p)
	if !ok || s.rows[ri].best.slot == slotNone {
		return Route{}, false
	}
	b := s.rows[ri].best
	r := Route{Prefix: s.tabs.prefixes[s.rows[ri].pid], Attrs: s.tabs.sets[b.attrs].attrs}
	if b.slot == slotLocal {
		r.Local = true
		return r, true
	}
	n := &s.nbrs[b.slot]
	r.From, r.FromRel = n.asn, n.rel()
	r.ASPath = s.paths.appendPath(make([]topology.ASN, 0, s.paths.hops(b.path)), b.path)
	return r, true
}

// sessionDown handles the loss of an eBGP session (link failure or
// neighbor death): every route learned from that neighbor is flushed
// from the Adj-RIB-In and the decision process reruns, issuing
// withdrawals or switching to backup paths as needed. The session
// configuration is retained so sessionUp can restore it.
func (s *Speaker) sessionDown(neighbor topology.ASN) {
	slot := s.slotOf(neighbor)
	if slot < 0 {
		return
	}
	var affected []int32
	for ri := range s.rows {
		if r := &s.adjRow(int32(ri))[slot]; r.path != 0 {
			*r = ribRoute{}
			affected = append(affected, int32(ri))
		}
	}
	s.sortRows(affected)
	for _, ri := range affected {
		s.decide(ri, slot)
	}
}

// sessionUp re-advertises the full Loc-RIB to a restored neighbor (the
// initial-exchange behavior of a fresh BGP session).
func (s *Speaker) sessionUp(neighbor topology.ASN) {
	slot := s.slotOf(neighbor)
	if slot < 0 {
		return
	}
	for _, ri := range s.locRows() {
		row := &s.rows[ri]
		// Export policy still applies.
		if s.exports(row.best, slot) {
			s.send(slot, s.announcement(row.pid, row.best))
		}
	}
}

// Routes returns all Loc-RIB prefixes, sorted by their String form.
func (s *Speaker) Routes() []netip.Prefix {
	rows := s.locRows()
	out := make([]netip.Prefix, len(rows))
	for i, ri := range rows {
		out[i] = s.tabs.prefixes[s.rows[ri].pid]
	}
	return out
}

// locRows returns the rows holding a Loc-RIB entry, in Routes order.
func (s *Speaker) locRows() []int32 {
	var out []int32
	for ri := range s.rows {
		if s.rows[ri].best.slot != slotNone {
			out = append(out, int32(ri))
		}
	}
	s.sortRows(out)
	return out
}

// sortRows orders rows by their prefixes' String form, the order that
// fixes the event sequence of sessionDown's withdrawals.
func (s *Speaker) sortRows(rows []int32) {
	keys := s.tabs.keys
	sort.Slice(rows, func(i, j int) bool { return keys[s.rows[rows[i]].pid] < keys[s.rows[rows[j]].pid] })
}

// toEveryone reports whether Gao-Rexford policy exports route r to all
// neighbours (a local or customer route), not only to customers.
func (s *Speaker) toEveryone(r locRoute) bool {
	return r.slot == slotLocal || s.nbrs[r.slot].pref == prefCustomer
}

// targets returns the neighbours route r may be exported to, the
// neighbour it came from included: skip it.
func (s *Speaker) targets(r locRoute) []int32 {
	if s.toEveryone(r) {
		return s.toAll
	}
	return s.toCustomers
}

// exports reports whether route r is exported to the neighbour in slot.
func (s *Speaker) exports(r locRoute, slot int32) bool {
	return slot != r.slot && (s.toEveryone(r) || s.nbrs[slot].pref == prefCustomer)
}

// announcement builds the UPDATE announcing r with our ASN prepended.
func (s *Speaker) announcement(pid uint32, r locRoute) update {
	return update{From: s.ASN, pid: pid, attrs: r.attrs, path: r.path, arena: s.paths.id, hops: 1 + s.paths.hops(r.path)}
}

// send is node.SendTo without the link lookup while the session's link
// is up.
func (s *Speaker) send(slot int32, u update) {
	l := s.nbrs[slot].link
	if !l.Up() {
		if l = s.node.UpLink(l.Neighbor(s.node)); l == nil {
			return
		}
	}
	if l.SendValue(s.node, u.value(), s.tabs.size(u)) {
		s.UpdatesSent++
	}
}

// export sends the route to all permitted neighbors, in ASN order.
func (s *Speaker) export(pid uint32, r locRoute) {
	u := s.announcement(pid, r)
	for _, t := range s.targets(r) {
		if t != r.slot {
			s.send(t, u)
		}
	}
}

// exportWithdraw notifies the neighbors that received route r that it
// is gone, excluding those keep (the new best route, if any) is
// exported to: they are about to get a replacement announcement.
func (s *Speaker) exportWithdraw(pid uint32, r locRoute, keep *locRoute) {
	u := update{From: s.ASN, Withdrawn: true, pid: pid, arena: s.paths.id}
	for _, t := range s.targets(r) {
		if t != r.slot && (keep == nil || !s.exports(*keep, t)) {
			s.send(t, u)
		}
	}
}

// receive processes an incoming UPDATE, whose path is in our arena.
func (s *Speaker) receive(from *netsim.Node, u update) {
	s.UpdatesRecv++
	slot := s.slotOf(u.From)
	if slot < 0 || s.nbrs[slot].link.Neighbor(s.node) != from {
		return // not a configured session
	}
	// Loop prevention.
	if u.From == s.ASN || s.paths.contains(u.path, s.ASN) {
		return
	}
	// Surface any DISCS-Ads regardless of best-path outcome: the
	// controller learns about DASes from every update carrying the
	// attribute (the Ad is informational, not a routing input).
	s.extractAds(u.attrs)

	if u.Withdrawn {
		if ri, ok := s.find(u.pid); ok {
			s.adjRow(ri)[slot] = ribRoute{}
			s.decide(ri, slot)
		}
		return
	}
	path := s.paths.cons(u.From, u.path)
	ri := s.row(u.pid)
	s.adjRow(ri)[slot] = ribRoute{path: path, attrs: u.attrs}
	s.decide(ri, slot)
}

// better reports whether the route in slot i of adj is preferred over
// the one in slot j: customer > peer > provider, then shorter AS path,
// then lower neighbor ASN. It is a strict total order, so the best
// route does not depend on the order candidates are compared in.
func (s *Speaker) better(adj []ribRoute, i, j int32) bool {
	if a, b := s.nbrs[i].pref, s.nbrs[j].pref; a != b {
		return a > b
	}
	if a, b := s.paths.hops(adj[i].path), s.paths.hops(adj[j].path); a != b {
		return a < b
	}
	return i < j // slots are in ASN order
}

// bestOf returns the slot of the best route in adj, or slotNone.
func (s *Speaker) bestOf(adj []ribRoute) int32 {
	best := slotNone
	for i := range adj {
		if adj[i].path != 0 && (best == slotNone || s.better(adj, int32(i), best)) {
			best = int32(i)
		}
	}
	return best
}

// decide recomputes the best path of row ri after the Adj-RIB-In entry
// in slot changed, and exports on change. Only a change to the current
// best route needs a scan of the row. A changed attribute set on the
// same best path also triggers export so re-originated DISCS-Ads
// propagate.
func (s *Speaker) decide(ri, slot int32) {
	row := &s.rows[ri]
	cur := row.best
	if cur.slot == slotLocal {
		return // local routes always win
	}
	adj := s.adjRow(ri)
	best := cur.slot
	switch {
	case best == slot:
		best = s.bestOf(adj)
	case adj[slot].path != 0 && (best == slotNone || s.better(adj, slot, best)):
		best = slot
	}
	if best == slotNone {
		if cur.slot != slotNone {
			row.best = locRoute{slot: slotNone}
			s.exportWithdraw(row.pid, cur, nil)
		}
		return
	}
	next := locRoute{slot: best, ribRoute: adj[best]}
	if next == cur {
		return
	}
	row.best = next
	// When the best path's provenance changes, the Gao-Rexford export
	// set can shrink (e.g. customer route → provider route is no longer
	// announced to providers/peers): retract from neighbors that held
	// the old announcement but are outside the new export set.
	if cur.slot != slotNone {
		s.exportWithdraw(row.pid, cur, &next)
	}
	s.export(row.pid, next)
}

// extractAds fires handlers for new DISCS-Ads in attribute set id.
func (s *Speaker) extractAds(id uint32) {
	for _, ad := range s.tabs.sets[id].ads {
		if !s.learn(ad) {
			continue
		}
		for _, h := range s.adHandlers {
			h(s.tabs.ads[ad])
		}
	}
}

// learn records Ad id as the latest from its origin and reports
// whether it was new.
func (s *Speaker) learn(id uint32) bool {
	ad := s.tabs.ads[id]
	i := sort.Search(len(s.seen), func(i int) bool { return s.seen[i].origin >= ad.Origin })
	if i < len(s.seen) && s.seen[i].origin == ad.Origin {
		if s.seen[i].id == id {
			return false
		}
		s.seen[i].id = id
		return true
	}
	if ad.Controller == "" {
		return false // an unknown origin reads as the empty controller
	}
	s.seen = slices.Insert(s.seen, i, seenAd{origin: ad.Origin, id: id})
	return true
}

// KnownAds returns the deduplicated DISCS-Ads this speaker has seen,
// sorted by origin ASN.
func (s *Speaker) KnownAds() []DISCSAd {
	out := make([]DISCSAd, len(s.seen))
	for i, a := range s.seen {
		out[i] = s.tabs.ads[a.id]
	}
	return out
}
