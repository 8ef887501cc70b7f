package core

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"discs/internal/cmac"
	"discs/internal/lpm"
	"discs/internal/topology"
)

// window is the activation interval of one operation on one prefix.
// Invocation is always bounded by a duration (§IV-E1); when it expires
// the entry becomes inert and is lazily purged.
type window struct {
	start, end time.Time
	grace      time.Duration // tolerance interval for verify ops
}

// opWin pairs one scheduled operation with its window, the boundaries
// precomputed as Unix nanoseconds: the per-packet activity test is then
// two integer comparisons instead of time.Time arithmetic. Per-prefix
// op sets are tiny (at most the six ops), so a small sorted slice beats
// a map in both lookup cost and snapshot size.
type opWin struct {
	op         Op
	start, end int64
	// graceHead/graceTail bound the strict-enforcement interval: now is
	// in grace when active and (now < graceHead or now >= graceTail).
	graceHead, graceTail int64
}

// funcSnapshot is the immutable lookup state of a FuncTable. Forwarding
// goroutines load it once per packet (or per burst) and read it without
// locks; mutators build a fresh snapshot and publish it atomically.
//
// The table's prefixes are compiled into ranges: per address family,
// the address space is cut into sorted, disjoint ranges, and each range
// carries the op windows of the longest prefix covering it (nil where
// none does). Range i runs from start[i] up to start[i+1]; start[0] is
// the family's first address, so every address falls in exactly one
// range and a lookup is one binary search. A table holds at most 2N+1
// ranges per family for N prefixes.
type funcSnapshot struct {
	v4Start []uint32
	v4Wins  [][]opWin
	v6Start []addr128
	v6Wins  [][]opWin
	n       int
	// minStart/maxEnd bound the union of all windows (Unix nanos),
	// valid when n > 0. They let idleAt answer "can any op be active
	// now?" without any lookup, which is what keeps routers with no
	// live invocations off the table path entirely.
	minStart, maxEnd int64
}

var emptyFuncSnapshot = compileFuncSnapshot(nil)

// idleAt reports that no operation in the snapshot can be active at
// nowN (Unix nanos), so lookups against it are pointless.
func (s *funcSnapshot) idleAt(nowN int64) bool {
	return s.n == 0 || nowN < s.minStart || nowN >= s.maxEnd
}

func (s *funcSnapshot) activeOps(addr netip.Addr, nowN int64) (active, grace OpSet) {
	if s.n == 0 {
		// Empty table: skip even the search. Snapshots where only the
		// *other* table of a direction has entries hit this on every
		// packet.
		return 0, 0
	}
	for _, w := range s.lookup(addr) {
		if nowN >= w.start && nowN < w.end {
			active = active.Add(w.op)
			if nowN < w.graceHead || nowN >= w.graceTail {
				grace = grace.Add(w.op)
			}
		}
	}
	return active, grace
}

// lookup returns the op windows of the longest prefix covering addr,
// nil when none does. An IPv4-mapped IPv6 address resolves as IPv4, as
// it does in lpm, where such prefixes are stored unmapped.
func (s *funcSnapshot) lookup(addr netip.Addr) []opWin {
	if addr.Is4() || addr.Is4In6() {
		b := addr.Unmap().As4()
		x := binary.BigEndian.Uint32(b[:])
		// The last range starting at or below x, by a search without
		// data-dependent branches: each step halves the window and adds
		// the half under a mask that is all ones when the probed start
		// is at or below x. Random addresses made the two-way branch of
		// a classic binary search mispredict about every other step.
		starts := s.v4Start
		base, n := 0, len(starts)
		for n > 1 {
			half := n >> 1
			le := ^((int64(x) - int64(starts[base+half])) >> 63) // -1 iff start <= x
			base += half & int(le)
			n -= half
		}
		return s.v4Wins[base]
	}
	if !addr.IsValid() {
		return nil
	}
	x := addr128From16(addr.As16())
	lo, hi := 0, len(s.v6Start)
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); !x.less(s.v6Start[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return s.v6Wins[lo]
}

// addr128 is a 128-bit address as two big-endian halves, ordered as
// the address bytes are.
type addr128 struct{ hi, lo uint64 }

func addr128From16(b [16]byte) addr128 {
	return addr128{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

func (a addr128) less(b addr128) bool { return a.hi < b.hi || a.hi == b.hi && a.lo < b.lo }

// next returns a+1; the caller ensures a is not the family's last
// address.
func (a addr128) next() addr128 {
	a.lo++
	if a.lo == 0 {
		a.hi++
	}
	return a
}

// prefixRange is one canonical prefix as the closed address interval
// [start, end] of its family, with its op windows.
type prefixRange struct {
	start, end addr128
	bits       int
	wins       []opWin
}

// rangeOf returns p's interval. v4 addresses occupy the low 32 bits.
func rangeOf(p netip.Prefix) (r prefixRange) {
	a := p.Addr()
	host := 128 - p.Bits()
	if a.Is4() {
		b := a.As4()
		r.start.lo = uint64(binary.BigEndian.Uint32(b[:]))
		host = 32 - p.Bits()
	} else {
		r.start = addr128From16(a.As16())
	}
	r.end = r.start
	if host >= 64 {
		r.end.hi |= 1<<(host-64) - 1
		r.end.lo = ^uint64(0)
	} else {
		r.end.lo |= 1<<host - 1
	}
	r.bits = p.Bits()
	return r
}

// compileFamily cuts one family's address space, whose last address is
// last, into the ranges funcSnapshot describes. Prefixes are nested or
// disjoint, so a sweep in start order with a stack of the prefixes
// still open finds each range's longest covering prefix on the stack's
// top.
func compileFamily(pfxs []prefixRange, last addr128) (starts []addr128, wins [][]opWin) {
	slices.SortFunc(pfxs, func(a, b prefixRange) int {
		switch {
		case a.start.less(b.start):
			return -1
		case b.start.less(a.start):
			return 1
		}
		return a.bits - b.bits
	})
	starts, wins = []addr128{{}}, [][]opWin{nil}
	// cut starts a range at at; a range already starting there (a
	// prefix sharing its start with an enclosing one, or ending where
	// an enclosing one ends) is replaced.
	cut := func(at addr128, w []opWin) {
		if n := len(starts) - 1; starts[n] == at {
			wins[n] = w
			return
		}
		starts, wins = append(starts, at), append(wins, w)
	}
	var open []prefixRange
	// closeBefore pops the open prefixes ending before at (all of them
	// when at is nil): past a prefix's end the enclosing one resumes.
	closeBefore := func(at *addr128) {
		for len(open) > 0 {
			top := open[len(open)-1]
			if at != nil && !top.end.less(*at) {
				return
			}
			open = open[:len(open)-1]
			if top.end == last {
				continue
			}
			var w []opWin
			if len(open) > 0 {
				w = open[len(open)-1].wins
			}
			cut(top.end.next(), w)
		}
	}
	for _, p := range pfxs {
		closeBefore(&p.start)
		cut(p.start, p.wins)
		open = append(open, p)
	}
	closeBefore(nil)
	return starts, wins
}

// compileFuncSnapshot builds the snapshot of a table's entries.
func compileFuncSnapshot(entries map[netip.Prefix]map[Op]window) *funcSnapshot {
	s := &funcSnapshot{n: len(entries)}
	var v4, v6 []prefixRange
	first := true
	for p, ws := range entries {
		ows := make([]opWin, 0, len(ws))
		for op, w := range ws {
			startN, endN := w.start.UnixNano(), w.end.UnixNano()
			g := int64(w.grace)
			ows = append(ows, opWin{
				op: op, start: startN, end: endN,
				graceHead: startN + g, graceTail: endN - g,
			})
			if first || startN < s.minStart {
				s.minStart = startN
			}
			if first || endN > s.maxEnd {
				s.maxEnd = endN
			}
			first = false
		}
		slices.SortFunc(ows, func(a, b opWin) int { return int(a.op) - int(b.op) })
		r := rangeOf(p)
		r.wins = ows
		if p.Addr().Is4() {
			v4 = append(v4, r)
		} else {
			v6 = append(v6, r)
		}
	}
	starts, wins := compileFamily(v4, addr128{lo: 1<<32 - 1})
	s.v4Start, s.v4Wins = make([]uint32, len(starts)), wins
	for i, a := range starts {
		s.v4Start[i] = uint32(a.lo)
	}
	s.v6Start, s.v6Wins = compileFamily(v6, addr128{^uint64(0), ^uint64(0)})
	return s
}

// FuncTable is one of the four data-plane function tables (§V-A),
// mapping prefixes (longest match) to scheduled operations. Lookups
// (ActiveOps, the tuple generators) run lock-free against the current
// snapshot from any number of forwarding goroutines; mutations
// (Install, apply and purge, driven by the controller) serialize on mu,
// rebuild the snapshot and publish it. Mutations are rare —
// invocations, expiries — so the rebuild cost is irrelevant next to
// the per-packet savings.
type FuncTable struct {
	mu      sync.Mutex // serializes mutators; readers never take it
	entries map[netip.Prefix]map[Op]window
	snap    atomic.Pointer[funcSnapshot]
}

// newFuncTable creates an empty table.
func newFuncTable() *FuncTable {
	ft := &FuncTable{entries: make(map[netip.Prefix]map[Op]window)}
	ft.snap.Store(emptyFuncSnapshot)
	return ft
}

// rebuildLocked compiles entries into a fresh snapshot and publishes
// it. Caller holds ft.mu; entries' prefixes were canonicalized by
// apply.
func (ft *FuncTable) rebuildLocked() {
	if len(ft.entries) == 0 {
		ft.snap.Store(emptyFuncSnapshot)
		return
	}
	ft.snap.Store(compileFuncSnapshot(ft.entries))
}

// Install schedules op on prefix for [start, start+duration), with the
// given grace tolerance. Re-installing extends/replaces the window —
// this is how a victim re-invokes with a longer duration (§IV-E1).
func (ft *FuncTable) Install(p netip.Prefix, op Op, start time.Time, duration, grace time.Duration) error {
	if duration <= 0 {
		return fmt.Errorf("core: non-positive duration %v", duration)
	}
	return ft.apply([]tableChange{{pfx: p, op: op, win: window{start: start, end: start.Add(duration), grace: grace}}})
}

// tableChange is one install (win) or removal of an op on a prefix.
type tableChange struct {
	pfx    netip.Prefix
	op     Op
	remove bool
	win    window
}

// apply makes the changes in order and publishes one snapshot for all
// of them: a control message that installs or withdraws many (prefix,
// op) pairs costs one rebuild per table, not one per pair. A change
// whose prefix lpm.Canon refuses is skipped on its own, as a lone
// Install would be; the rest still apply, and apply returns
// the first refusal.
func (ft *FuncTable) apply(changes []tableChange) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	var refused error
	changed := false
	for _, ch := range changes {
		pfx, err := lpm.Canon(ch.pfx)
		if err != nil {
			if refused == nil {
				refused = err
			}
			continue
		}
		wins, ok := ft.entries[pfx]
		if ch.remove {
			if _, had := wins[ch.op]; !had {
				continue
			}
			delete(wins, ch.op)
			if len(wins) == 0 {
				delete(ft.entries, pfx)
			}
		} else {
			if !ok {
				wins = make(map[Op]window)
				ft.entries[pfx] = wins
			}
			wins[ch.op] = ch.win
		}
		changed = true
	}
	if changed {
		ft.rebuildLocked()
	}
	return refused
}

// ActiveOps returns the operations active for addr at time now, along
// with a set of ops currently inside their grace interval (the head or
// tail tolerance, during which verification only erases marks, §IV-E1).
func (ft *FuncTable) ActiveOps(addr netip.Addr, now time.Time) (active, grace OpSet) {
	return ft.snap.Load().activeOps(addr, now.UnixNano())
}

// numPrefixes returns the number of prefixes with any scheduled op.
func (ft *FuncTable) numPrefixes() int { return ft.snap.Load().n }

// purge removes every entry whose windows have all expired; returns
// the number of prefixes removed. Controllers run this periodically.
func (ft *FuncTable) purge(now time.Time) int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	removed := 0
	for p, wins := range ft.entries {
		expired := true
		for _, w := range wins {
			if now.Before(w.end) {
				expired = false
				break
			}
		}
		if expired {
			delete(ft.entries, p)
			removed++
		}
	}
	if removed > 0 {
		ft.rebuildLocked()
	}
	return removed
}

// inTuple is the data structure generated for an inbound packet
// (§V-B): whether to verify and which peer's key to verify with.
type inTuple struct {
	Verify bool
	// EraseOnly is set during grace intervals: erase the mark, skip
	// enforcement.
	EraseOnly bool
	// SrcAS is Pfx2AS(s); the verification key is Key-V(SrcAS).
	SrcAS topology.ASN
	// SrcKnown is false when the source address maps to no AS.
	SrcKnown bool
}

// outTuple is the data structure generated for an outbound packet
// (§V-B): whether to drop, whether to stamp, and the resolved stamping
// key Key-S(Pfx2AS(d)). Key is resolved from the same key snapshot that
// decided Stamp, so the stamping router never re-reads the key table —
// previously the decision and the fetch took separate locks, and a
// teardown between them could stamp with a key the decision had not
// seen.
type outTuple struct {
	Drop  bool
	Stamp bool
	DstAS topology.ASN
	// Key is non-nil when Stamp is set because of CSP (which requires a
	// peer key); with CDP alone it may be nil — CDP-stamp scheduled but
	// the destination is not a peer — and the packet passes unstamped.
	Key *cmac.CMAC
}

// Tables bundles the per-router DISCS tables: the Pfx2AS mapping, the
// key tables, and the four function tables.
type Tables struct {
	localAS topology.ASN
	pfx2as  *lpm.Table[topology.ASN]
	Keys    *KeyTable
	In      map[TableKind]*FuncTable

	// Hot-path aliases of the In map, set by NewTables: the forwarding
	// path loads four snapshots per packet and must not pay a map
	// lookup for each.
	inSrc, inDst, outSrc, outDst *FuncTable
}

// NewTables creates empty tables for a router of localAS. pfx2as is
// shared — the controller obtains it from RPKI (§V-A) and installs it.
func NewTables(localAS topology.ASN, pfx2as *lpm.Table[topology.ASN]) *Tables {
	t := &Tables{
		localAS: localAS,
		pfx2as:  pfx2as,
		Keys:    newKeyTable(),
		In: map[TableKind]*FuncTable{
			TableInSrc:  newFuncTable(),
			TableInDst:  newFuncTable(),
			TableOutSrc: newFuncTable(),
			TableOutDst: newFuncTable(),
		},
	}
	t.inSrc = t.In[TableInSrc]
	t.inDst = t.In[TableInDst]
	t.outSrc = t.In[TableOutSrc]
	t.outDst = t.In[TableOutDst]
	return t
}

// outState is one coherent view of everything outbound processing
// needs: both function-table snapshots and the key snapshot. Loading it
// once per packet (or once per burst) replaces the four-plus lock
// acquisitions of the old path.
type outState struct {
	src, dst *funcSnapshot
	keys     *keySnapshot
}

func (t *Tables) loadOut() outState {
	return outState{src: t.outSrc.snap.Load(), dst: t.outDst.snap.Load(), keys: t.Keys.snap.Load()}
}

// inState is the inbound counterpart of outState.
type inState struct {
	src, dst *funcSnapshot
	keys     *keySnapshot
}

func (t *Tables) loadIn() inState {
	return inState{src: t.inSrc.snap.Load(), dst: t.inDst.snap.Load(), keys: t.Keys.snap.Load()}
}

// genInTuple implements the in-tuple generation of §V-B: verify? is
// set iff CSP-verify ∈ In-Src(s) or CDP-verify ∈ In-Dst(d).
func (t *Tables) genInTuple(st *inState, src, dst netip.Addr, nowN int64) inTuple {
	// Idle early return: with no live verify op anywhere, skip the
	// function-table walks and the Pfx2AS lookup.
	if st.src.idleAt(nowN) && st.dst.idleAt(nowN) {
		return inTuple{}
	}
	srcOps, srcGrace := st.src.activeOps(src, nowN)
	dstOps, dstGrace := st.dst.activeOps(dst, nowN)
	verify := srcOps.Has(OpCSPVerify) || dstOps.Has(OpCDPVerify)
	if !verify {
		return inTuple{}
	}
	// §IV-E1: erase-only applies only when every op demanding
	// verification is inside its tolerance interval. One op still in
	// strict enforcement keeps enforcement on, even if another
	// overlapping op is in grace.
	erase := true
	if srcOps.Has(OpCSPVerify) && !srcGrace.Has(OpCSPVerify) {
		erase = false
	}
	if dstOps.Has(OpCDPVerify) && !dstGrace.Has(OpCDPVerify) {
		erase = false
	}
	asn, known := t.pfx2as.LookupVal(src)
	return inTuple{Verify: true, EraseOnly: erase, SrcAS: asn, SrcKnown: known}
}

// tupleMemo caches the stamp-key lookup of tuple generation for the
// burst path. It is only coherent against one key snapshot and is
// cleared by beginBurst.
//
// Pfx2AS lookups are not memoized: in front of lpm's direct-indexed
// IPv4 level a memo measured no faster on router-fastpath, where it
// hits, and slower on many-source traffic, where it misses.
// Function-table op sets are not memoized either: a compiled snapshot
// answers in one short binary search, and a last-address memo in front
// of it measured no faster on router-fastpath nor on router-hostile.
//
// A tupleMemo is single-goroutine state; a burstPipeline embeds one
// per worker.
type tupleMemo struct {
	keyAS  topology.ASN
	keyVal *cmac.CMAC
	keyOK  bool
}

// beginBurst invalidates the memo.
func (m *tupleMemo) beginBurst() {
	m.keyOK = false
}

// stampKey is Key-S(peer) from ks, behind m's one-entry memo when m is
// non-nil.
func (m *tupleMemo) stampKey(ks *keySnapshot, peer topology.ASN) *cmac.CMAC {
	if m == nil {
		return ks.stampKey(peer)
	}
	if !m.keyOK || m.keyAS != peer {
		m.keyOK, m.keyAS, m.keyVal = true, peer, ks.stampKey(peer)
	}
	return m.keyVal
}

// genOutTuple implements the out-tuple generation of §V-B:
//
//	drop?  iff Pfx2AS(s) ≠ LocalAS and (SP ∈ Out-Src(s) or DP ∈ Out-Dst(d))
//	stamp? iff (CSP ∈ Out-Src(s) and Key-S(Pfx2AS(d)) ≠ Null) or CDP ∈ Out-Dst(d)
//
// (The paper's prose for drop? reads "Pfx2AS(s) = LocalAS", but Table I
// defines DP-filter as "if src ∉ local, drop" and SP's condition
// src ∈ v implies a non-local source, so the equality is a typo for ≠.)
// m, when non-nil, memoizes its stamp-key lookup across a burst.
func (t *Tables) genOutTuple(st *outState, m *tupleMemo, src, dst netip.Addr, nowN int64) outTuple {
	// Idle early return: a router with no active out-ops skips both
	// Pfx2AS LPM lookups and all table walks — the common case for the
	// vast majority of DISCS routers the vast majority of the time.
	if st.src.idleAt(nowN) && st.dst.idleAt(nowN) {
		return outTuple{}
	}
	srcOps, _ := st.src.activeOps(src, nowN)
	dstOps, _ := st.dst.activeOps(dst, nowN)
	var tup outTuple
	if srcOps == 0 && dstOps == 0 {
		return tup
	}
	srcAS, srcKnown := t.pfx2as.LookupVal(src)
	local := srcKnown && srcAS == t.localAS
	if !local && (srcOps.Has(OpSPFilter) || dstOps.Has(OpDPFilter)) {
		tup.Drop = true
		return tup
	}
	dstAS, _ := t.pfx2as.LookupVal(dst)
	tup.DstAS = dstAS
	if srcOps.Has(OpCSPStamp) || dstOps.Has(OpCDPStamp) {
		key := m.stampKey(st.keys, dstAS)
		if (srcOps.Has(OpCSPStamp) && key != nil) || dstOps.Has(OpCDPStamp) {
			tup.Stamp, tup.Key = true, key
		}
	}
	return tup
}
