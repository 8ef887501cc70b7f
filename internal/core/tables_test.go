package core

import (
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"discs/internal/cmac"
	"discs/internal/lpm"
	"discs/internal/topology"
)

var t0 = time.Unix(0, 0).UTC()

// inTupleAt and outTupleAt generate a packet's tuples (§V-B) against
// the tables' current snapshots, as the router does.
func inTupleAt(t *Tables, src, dst netip.Addr, now time.Time) inTuple {
	st := t.loadIn()
	return t.genInTuple(&st, src, dst, now.UnixNano())
}

func outTupleAt(t *Tables, src, dst netip.Addr, now time.Time) outTuple {
	st := t.loadOut()
	return t.genOutTuple(&st, nil, src, dst, now.UnixNano())
}

// removeOp withdraws op from prefix p at once.
func removeOp(ft *FuncTable, p netip.Prefix, op Op) {
	ft.apply([]tableChange{{pfx: p, op: op, remove: true}})
}

// keyS is Key-S(peer) in kt's current snapshot, nil when peer is not a
// peer DAS.
func keyS(kt *KeyTable, peer topology.ASN) *cmac.CMAC { return kt.snap.Load().stampKey(peer) }

// numPeers counts the peers kt holds key state for: its non-nil slots
// (a departed peer keeps its index entry).
func numPeers(kt *KeyTable) int {
	n := 0
	for _, pk := range kt.snap.Load().slots {
		if pk != nil {
			n++
		}
	}
	return n
}

// hasKeyV reports whether kt holds a verification key for peer: the
// "src ∈ peer" predicate of CDP-verify (Table I).
func hasKeyV(kt *KeyTable, peer topology.ASN) bool { return kt.snap.Load().verifyKeys(peer) != nil }

// verifyMark checks carrier's mark against peer's keys as the inbound
// path does. known is false when peer has no verification key; macs
// counts the CMACs computed, two when a rekey window tries both keys.
func verifyMark(kt *KeyTable, peer topology.ASN, carrier MarkCarrier) (valid, known bool, macs int) {
	vk := kt.snap.Load().verifyKeys(peer)
	if vk == nil {
		return false, false, 0
	}
	valid, macs = vk.verify(carrier)
	return valid, true, macs
}

func testPfx2AS(t testing.TB) *lpm.Table[topology.ASN] {
	t.Helper()
	tbl := lpm.New[topology.ASN]()
	// AS1: 10.1.0.0/16 (the local AS in these tests)
	// AS2: 10.2.0.0/16 (a peer)
	// AS3: 10.3.0.0/16 (the victim)
	// AS4: 10.4.0.0/16 (a legacy AS)
	for asn, p := range map[topology.ASN]string{
		1: "10.1.0.0/16", 2: "10.2.0.0/16", 3: "10.3.0.0/16", 4: "10.4.0.0/16",
	} {
		if err := tbl.Insert(netip.MustParsePrefix(p), asn); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestFuncTableInstallAndExpiry(t *testing.T) {
	ft := newFuncTable()
	v := netip.MustParsePrefix("10.3.0.0/16")
	if err := ft.Install(v, OpDPFilter, t0, time.Hour, 0); err != nil {
		t.Fatal(err)
	}
	active, _ := ft.ActiveOps(ip("10.3.1.1"), t0.Add(time.Minute))
	if !active.Has(OpDPFilter) {
		t.Fatal("op not active inside window")
	}
	active, _ = ft.ActiveOps(ip("10.3.1.1"), t0.Add(2*time.Hour))
	if active != 0 {
		t.Fatal("op active after expiry")
	}
	active, _ = ft.ActiveOps(ip("10.4.1.1"), t0.Add(time.Minute))
	if active != 0 {
		t.Fatal("op active for non-matching address")
	}
	// Exactly at end: exclusive.
	active, _ = ft.ActiveOps(ip("10.3.1.1"), t0.Add(time.Hour))
	if active != 0 {
		t.Fatal("window end must be exclusive")
	}
}

func TestFuncTableGrace(t *testing.T) {
	ft := newFuncTable()
	v := netip.MustParsePrefix("10.3.0.0/16")
	ft.Install(v, OpCDPVerify, t0, time.Hour, 30*time.Second)
	// Head grace.
	_, grace := ft.ActiveOps(ip("10.3.0.1"), t0.Add(10*time.Second))
	if !grace.Has(OpCDPVerify) {
		t.Fatal("head grace not reported")
	}
	// Middle: no grace.
	_, grace = ft.ActiveOps(ip("10.3.0.1"), t0.Add(30*time.Minute))
	if grace != 0 {
		t.Fatal("grace in the middle of the window")
	}
	// Tail grace.
	_, grace = ft.ActiveOps(ip("10.3.0.1"), t0.Add(time.Hour-10*time.Second))
	if !grace.Has(OpCDPVerify) {
		t.Fatal("tail grace not reported")
	}
}

func TestFuncTableReinvokeExtends(t *testing.T) {
	ft := newFuncTable()
	v := netip.MustParsePrefix("10.3.0.0/16")
	ft.Install(v, OpDPFilter, t0, time.Hour, 0)
	// Re-invoke at 30 min with a longer duration (§IV-E1).
	ft.Install(v, OpDPFilter, t0.Add(30*time.Minute), 24*time.Hour, 0)
	active, _ := ft.ActiveOps(ip("10.3.0.1"), t0.Add(20*time.Hour))
	if !active.Has(OpDPFilter) {
		t.Fatal("re-invocation did not extend the window")
	}
}

func TestFuncTableRemoveAndPurge(t *testing.T) {
	ft := newFuncTable()
	v := netip.MustParsePrefix("10.3.0.0/16")
	ft.Install(v, OpSPFilter, t0, time.Hour, 0)
	ft.Install(v, OpCSPStamp, t0, 2*time.Hour, 0)
	if ft.numPrefixes() != 1 {
		t.Fatalf("Len = %d", ft.numPrefixes())
	}
	removeOp(ft, v, OpSPFilter)
	active, _ := ft.ActiveOps(ip("10.3.0.1"), t0.Add(time.Minute))
	if active.Has(OpSPFilter) || !active.Has(OpCSPStamp) {
		t.Fatalf("after Remove: %v", active)
	}
	// Purge removes fully expired prefixes only.
	if n := ft.purge(t0.Add(90 * time.Minute)); n != 0 {
		t.Fatalf("Purge removed %d, want 0 (CSP window still open)", n)
	}
	if n := ft.purge(t0.Add(3 * time.Hour)); n != 1 {
		t.Fatalf("Purge removed %d, want 1", n)
	}
	if ft.numPrefixes() != 0 {
		t.Fatalf("Len = %d after purge", ft.numPrefixes())
	}
}

// TestFuncTableBatchSkipsRefusedPrefix: one prefix the table cannot
// hold costs only its own change; the rest of the batch still applies.
func TestFuncTableBatchSkipsRefusedPrefix(t *testing.T) {
	ft := newFuncTable()
	a, b := netip.MustParsePrefix("10.3.0.0/16"), netip.MustParsePrefix("10.4.0.0/16")
	bad := netip.MustParsePrefix("::ffff:10.3.0.0/90")
	win := window{start: t0, end: t0.Add(time.Hour)}
	if err := ft.apply([]tableChange{{pfx: a, op: OpDPFilter, win: win}, {pfx: bad, op: OpDPFilter, win: win}, {pfx: b, op: OpDPFilter, win: win}}); err == nil {
		t.Fatal("apply accepted a 4-in-6 prefix shorter than /96")
	}
	if ft.numPrefixes() != 2 {
		t.Fatalf("Len = %d after a batch with one refused install, want 2", ft.numPrefixes())
	}
	if err := ft.apply([]tableChange{{pfx: a, op: OpDPFilter, remove: true}, {pfx: bad, op: OpDPFilter, remove: true}, {pfx: b, op: OpDPFilter, remove: true}}); err == nil {
		t.Fatal("apply accepted a 4-in-6 prefix shorter than /96")
	}
	if ft.numPrefixes() != 0 {
		t.Fatalf("Len = %d after a withdraw batch with one refused prefix, want 0", ft.numPrefixes())
	}
}

func TestFuncTableBadDuration(t *testing.T) {
	ft := newFuncTable()
	if err := ft.Install(netip.MustParsePrefix("10.0.0.0/8"), OpDPFilter, t0, 0, 0); err == nil {
		t.Fatal("zero duration should fail")
	}
}

// TestGenOutTupleDP checks the drop? rule for DP: outbound packets
// targeting the victim are dropped iff their source is not local.
func TestGenOutTupleDP(t *testing.T) {
	tb := NewTables(1, testPfx2AS(t))
	v := netip.MustParsePrefix("10.3.0.0/16")
	tb.In[TableOutDst].Install(v, OpDPFilter, t0, time.Hour, 0)
	now := t0.Add(time.Minute)

	// Spoofed source (another AS's space) targeting the victim: drop.
	tup := outTupleAt(tb, ip("10.2.9.9"), ip("10.3.0.1"), now)
	if !tup.Drop {
		t.Fatal("spoofed packet to victim not dropped")
	}
	// Unroutable source: also not local, drop.
	tup = outTupleAt(tb, ip("99.9.9.9"), ip("10.3.0.1"), now)
	if !tup.Drop {
		t.Fatal("unroutable-source packet to victim not dropped")
	}
	// Genuine local source: pass.
	tup = outTupleAt(tb, ip("10.1.5.5"), ip("10.3.0.1"), now)
	if tup.Drop {
		t.Fatal("genuine local packet dropped (inherent false positive!)")
	}
	// Traffic to a non-victim destination: untouched even if spoofed.
	tup = outTupleAt(tb, ip("10.2.9.9"), ip("10.4.0.1"), now)
	if tup.Drop {
		t.Fatal("DP filtered traffic not targeting the victim")
	}
}

// TestGenOutTupleSP checks SP: outbound packets whose source lies in
// the victim prefix are dropped (reflection prevention).
func TestGenOutTupleSP(t *testing.T) {
	tb := NewTables(1, testPfx2AS(t))
	v := netip.MustParsePrefix("10.3.0.0/16")
	tb.In[TableOutSrc].Install(v, OpSPFilter, t0, time.Hour, 0)
	now := t0.Add(time.Minute)

	tup := outTupleAt(tb, ip("10.3.7.7"), ip("10.4.0.1"), now)
	if !tup.Drop {
		t.Fatal("packet spoofing the victim's source not dropped")
	}
	// Local traffic unaffected.
	tup = outTupleAt(tb, ip("10.1.7.7"), ip("10.4.0.1"), now)
	if tup.Drop {
		t.Fatal("local packet dropped by SP")
	}
}

// TestGenOutTupleCDPStamp checks stamp?: CDP ∈ Out-Dst(d) triggers
// stamping with Key-S(Pfx2AS(d)).
func TestGenOutTupleCDPStamp(t *testing.T) {
	tb := NewTables(1, testPfx2AS(t))
	v := netip.MustParsePrefix("10.3.0.0/16")
	tb.In[TableOutDst].Install(v, OpCDPStamp, t0, time.Hour, 0)
	tb.Keys.SetStampKey(3, make([]byte, 16))
	now := t0.Add(time.Minute)

	tup := outTupleAt(tb, ip("10.1.5.5"), ip("10.3.0.1"), now)
	if !tup.Stamp || tup.DstAS != 3 {
		t.Fatalf("tuple = %+v, want stamp toward AS3", tup)
	}
	tup = outTupleAt(tb, ip("10.1.5.5"), ip("10.4.0.1"), now)
	if tup.Stamp {
		t.Fatal("stamped packet not targeting the victim")
	}
}

// TestGenOutTupleCSPStamp checks the CSP condition: stamp only when
// the destination is a peer (Key-S(Pfx2AS(d)) ≠ Null).
func TestGenOutTupleCSPStamp(t *testing.T) {
	// This table belongs to the victim AS3 itself.
	tb := NewTables(3, testPfx2AS(t))
	v := netip.MustParsePrefix("10.3.0.0/16")
	tb.In[TableOutSrc].Install(v, OpCSPStamp, t0, time.Hour, 0)
	tb.Keys.SetStampKey(2, make([]byte, 16)) // AS2 is a peer
	now := t0.Add(time.Minute)

	// Own traffic to the peer: stamp.
	tup := outTupleAt(tb, ip("10.3.1.1"), ip("10.2.0.1"), now)
	if !tup.Stamp || tup.DstAS != 2 {
		t.Fatalf("tuple = %+v", tup)
	}
	// Own traffic to a legacy AS: no key, no stamp.
	tup = outTupleAt(tb, ip("10.3.1.1"), ip("10.4.0.1"), now)
	if tup.Stamp {
		t.Fatal("CSP stamped toward a non-peer")
	}
}

// TestGenInTuple checks verify?: set iff CSP-verify ∈ In-Src(s) or
// CDP-verify ∈ In-Dst(d), with the key chosen by the source AS.
func TestGenInTuple(t *testing.T) {
	tb := NewTables(3, testPfx2AS(t)) // victim AS3 verifying CDP
	v := netip.MustParsePrefix("10.3.0.0/16")
	tb.In[TableInDst].Install(v, OpCDPVerify, t0, time.Hour, 30*time.Second)
	now := t0.Add(10 * time.Minute)

	tup := inTupleAt(tb, ip("10.2.1.1"), ip("10.3.0.1"), now)
	if !tup.Verify || tup.SrcAS != 2 || !tup.SrcKnown || tup.EraseOnly {
		t.Fatalf("in-tuple = %+v", tup)
	}
	// Traffic to other destinations: not verified.
	tup = inTupleAt(tb, ip("10.2.1.1"), ip("10.1.0.1"), now)
	if tup.Verify {
		t.Fatal("verify set for non-victim destination")
	}
	// Grace interval: erase-only.
	tup = inTupleAt(tb, ip("10.2.1.1"), ip("10.3.0.1"), t0.Add(5*time.Second))
	if !tup.Verify || !tup.EraseOnly {
		t.Fatalf("grace in-tuple = %+v", tup)
	}
	// Unroutable source: SrcKnown false.
	tup = inTupleAt(tb, ip("99.1.1.1"), ip("10.3.0.1"), now)
	if !tup.Verify || tup.SrcKnown {
		t.Fatalf("unroutable-src in-tuple = %+v", tup)
	}
}

func TestGenInTupleCSPVerify(t *testing.T) {
	tb := NewTables(2, testPfx2AS(t)) // peer AS2 verifying CSP for victim AS3
	v := netip.MustParsePrefix("10.3.0.0/16")
	tb.In[TableInSrc].Install(v, OpCSPVerify, t0, time.Hour, 0)
	now := t0.Add(time.Minute)

	tup := inTupleAt(tb, ip("10.3.1.1"), ip("10.2.0.1"), now)
	if !tup.Verify || tup.SrcAS != 3 {
		t.Fatalf("in-tuple = %+v", tup)
	}
	// Inbound traffic from elsewhere: untouched.
	tup = inTupleAt(tb, ip("10.4.1.1"), ip("10.2.0.1"), now)
	if tup.Verify {
		t.Fatal("CSP-verify matched non-victim source")
	}
}

func TestKeyTableRekeyWindow(t *testing.T) {
	kt := newKeyTable()
	k1 := make([]byte, 16)
	k2 := make([]byte, 16)
	k2[0] = 0xff
	if err := kt.SetVerifyKey(2, k1); err != nil {
		t.Fatal(err)
	}
	// Build a packet stamped with k1.
	p := samplePacketV4()
	kt2 := newKeyTable()
	kt2.SetStampKey(9, k1)
	V4{p}.stamp(keyS(kt2, 9))

	if valid, known, _ := verifyMark(kt, 2, V4{p}); !valid || !known {
		t.Fatal("mark with current key rejected")
	}
	// Rekey: k2 becomes current, k1 previous.
	demoted, _ := kt.setVerifyKey(2, k2)
	if valid, _, _ := verifyMark(kt, 2, V4{p}); !valid {
		t.Fatal("mark with previous key rejected during rekey window")
	}
	// End of window.
	kt.dropVerifyKey(2, demoted)
	if valid, _, _ := verifyMark(kt, 2, V4{p}); valid {
		t.Fatal("mark with dropped key still accepted")
	}
	// New-key marks verify.
	kt2.SetStampKey(9, k2)
	V4{p}.stamp(keyS(kt2, 9))
	if valid, _, _ := verifyMark(kt, 2, V4{p}); !valid {
		t.Fatal("mark with new key rejected")
	}
}

func TestKeyTableUnknownPeer(t *testing.T) {
	kt := newKeyTable()
	p := samplePacketV4()
	if _, known, _ := verifyMark(kt, 7, V4{p}); known {
		t.Fatal("unknown peer reported as known")
	}
	if keyS(kt, 7) != nil {
		t.Fatal("unknown peer has a stamp key")
	}
	if hasKeyV(kt, 7) {
		t.Fatal("unknown peer has a verify key")
	}
}

func TestKeyTableRemovePeerAndCount(t *testing.T) {
	kt := newKeyTable()
	kt.SetStampKey(2, make([]byte, 16))
	kt.SetVerifyKey(2, make([]byte, 16))
	kt.SetVerifyKey(3, make([]byte, 16))
	if numPeers(kt) != 2 {
		t.Fatalf("peers = %d", numPeers(kt))
	}
	kt.removePeer(2)
	if numPeers(kt) != 1 || keyS(kt, 2) != nil || hasKeyV(kt, 2) {
		t.Fatal("RemovePeer incomplete")
	}
}

// TestKeyTableIndexMatchesMap drives a key table through random joins,
// key changes and leaves and holds its hashed peer index to a Go map
// of who holds keys: every peer, present or not, resolves as the map
// says, including peers whose ASNs collide in the table.
func TestKeyTableIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kt := newKeyTable()
	want := map[topology.ASN]bool{}
	key := make([]byte, 16)
	for step := 0; step < 3000; step++ {
		// Small ASNs and multiples of a large power of two collide often.
		peer := topology.ASN(1 + rng.Intn(300))
		if rng.Intn(4) == 0 {
			peer = topology.ASN(rng.Intn(64)+1) << 20
		}
		if rng.Intn(3) == 0 {
			kt.removePeer(peer)
			delete(want, peer)
		} else {
			rng.Read(key)
			if err := kt.SetStampKey(peer, key); err != nil {
				t.Fatal(err)
			}
			want[peer] = true
		}
		if numPeers(kt) != len(want) {
			t.Fatalf("step %d: peers = %d, want %d", step, numPeers(kt), len(want))
		}
		for _, p := range []topology.ASN{0, peer, peer + 1, topology.ASN(rng.Intn(300)), topology.ASN(rng.Intn(64)+1) << 20} {
			if got := keyS(kt, p) != nil; got != want[p] {
				t.Fatalf("step %d: AS%d has a stamp key %v, want %v", step, p, got, want[p])
			}
		}
	}
}

func TestKeyTableBadKeyLength(t *testing.T) {
	kt := newKeyTable()
	if err := kt.SetStampKey(2, make([]byte, 8)); err == nil {
		t.Fatal("short stamp key accepted")
	}
	if err := kt.SetVerifyKey(2, make([]byte, 8)); err == nil {
		t.Fatal("short verify key accepted")
	}
}

// TestKeyTableJoinAllocs: a join copies the peer index once rather than
// rehashing it entry by entry, so at every table size it costs at most
// two allocations more than a key change of a known peer (the index's
// slot array, and its rehash when the join doubles it). allocs is
// testing.AllocsPerRun without the warm-up call, so every join counts.
func TestKeyTableJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	allocs := func(f func()) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	kt := newKeyTable()
	key := make([]byte, 16)
	for n := 0; n < 400; n++ {
		// A stray runtime allocation only adds, so take the least of
		// three joins, each of a peer the table has never seen (a
		// rejoin would reuse its index entry).
		join := ^uint64(0)
		for try := 0; try < 3; try++ {
			peer := topology.ASN(3*n + try + 1)
			join = min(join, allocs(func() { kt.SetStampKey(peer, key) }))
		}
		update := allocs(func() { kt.SetStampKey(1, key) })
		if join > update+2 {
			t.Fatalf("a join to %d peers costs %d allocations, a key change %d", 3*n+3, join, update)
		}
	}
}

// TestKeyTableLeaveAllocs: a leave keeps the departed peer's index
// entry and clears its slot, so it rehashes nothing. A join and a leave
// together cost the same at every table size, and at most two
// allocations (the snapshot and its slot slice) more than the join of a
// new peer alone.
func TestKeyTableLeaveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	key := make([]byte, 16)
	first := -1.0
	for _, n := range []int{16, 180, 400} {
		kt := newKeyTable()
		for p := 1; p <= n; p++ {
			if err := kt.SetStampKey(topology.ASN(p), key); err != nil {
				t.Fatal(err)
			}
		}
		peer := topology.ASN(n + 1)
		joinLeave := testing.AllocsPerRun(100, func() {
			kt.SetStampKey(peer, key)
			kt.removePeer(peer)
		})
		fresh := topology.ASN(1 << 20)
		join := testing.AllocsPerRun(100, func() {
			fresh++
			kt.SetStampKey(fresh, key)
		})
		t.Logf("%d peers: a join and a leave cost %.0f allocations, a join alone %.0f", n, joinLeave, join)
		if joinLeave > join+2 {
			t.Errorf("%d peers: a join and a leave cost %.0f allocations, a join alone %.0f", n, joinLeave, join)
		}
		if first < 0 {
			first = joinLeave
		} else if joinLeave != first {
			t.Errorf("a join and a leave cost %.0f allocations at %d peers and %.0f at 16", joinLeave, n, first)
		}
	}
}

// TestKeyTableRejoinUsesNewKeys: a peer that leaves and rejoins with new
// keys reuses its slot, and stamps and verifies with the new keys only.
func TestKeyTableRejoinUsesNewKeys(t *testing.T) {
	kt := newKeyTable()
	k1 := make([]byte, 16)
	k2 := make([]byte, 16)
	k2[0] = 0xff
	for _, peer := range []topology.ASN{2, 3} {
		kt.SetStampKey(peer, k1)
		kt.SetVerifyKey(peer, k1)
	}
	i, _ := kt.snap.Load().index.Get(2)
	kt.removePeer(2)
	if numPeers(kt) != 1 || keyS(kt, 2) != nil || hasKeyV(kt, 2) {
		t.Fatal("leave left key state behind")
	}
	kt.SetStampKey(2, k2)
	kt.SetVerifyKey(2, k2)
	if j, _ := kt.snap.Load().index.Get(2); j != i || numPeers(kt) != 2 {
		t.Fatalf("rejoin took slot %d, want %d (%d peers)", j, i, numPeers(kt))
	}
	p := samplePacketV4()
	V4{p}.stamp(keyS(kt, 2))
	if valid, known, _ := verifyMark(kt, 2, V4{p}); !valid || !known {
		t.Fatal("mark stamped with the rejoined peer's new key rejected")
	}
	old := newKeyTable()
	old.SetStampKey(2, k1)
	V4{p}.stamp(keyS(old, 2))
	if valid, _, _ := verifyMark(kt, 2, V4{p}); valid {
		t.Fatal("mark stamped with the key from before the leave accepted")
	}
}
