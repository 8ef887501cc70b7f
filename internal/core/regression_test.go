package core

import (
	"net/netip"
	"testing"
	"time"

	"discs/internal/cmac"
	"discs/internal/packet"
)

// Regression tests for the per-packet verify/stamp semantics fixed in
// the lock-free data-plane rework. Each test fails against the previous
// implementation.

// §IV-E1: erase-only applies only when *every* operation demanding
// verification is inside its tolerance interval. The old predicate
// erased (and skipped enforcement) as soon as *any* demanding op was in
// grace, so an overlapping CDP invocation in its head tolerance could
// disable a CSP invocation that was in strict enforcement.
func TestEraseOnlyRequiresAllOpsInGrace(t *testing.T) {
	victim := netip.MustParsePrefix("10.3.0.0/16")
	local := netip.MustParsePrefix("10.2.0.0/16")
	src := netip.MustParseAddr("10.3.0.10")
	dst := netip.MustParseAddr("10.2.0.5")

	mk := func(cspGrace, cdpGrace time.Duration) *Tables {
		tb := NewTables(2, testPfx2AS(t))
		tb.In[TableInSrc].Install(victim, OpCSPVerify, t0, time.Hour, cspGrace)
		tb.In[TableInDst].Install(local, OpCDPVerify, t0, time.Hour, cdpGrace)
		return tb
	}
	// 5s into both windows.
	now := t0.Add(5 * time.Second)

	// CSP strict (no grace), CDP inside its 30s head tolerance:
	// enforcement must stay on.
	tup := inTupleAt(mk(0, 30*time.Second), src, dst, now)
	if !tup.Verify {
		t.Fatal("verify not demanded")
	}
	if tup.EraseOnly {
		t.Fatal("EraseOnly set while CSP-verify is in strict enforcement")
	}

	// Mirror image: CDP strict, CSP in grace.
	tup = inTupleAt(mk(30*time.Second, 0), src, dst, now)
	if tup.EraseOnly {
		t.Fatal("EraseOnly set while CDP-verify is in strict enforcement")
	}

	// Both in tolerance: erase-only applies.
	tup = inTupleAt(mk(30*time.Second, 30*time.Second), src, dst, now)
	if !tup.Verify || !tup.EraseOnly {
		t.Fatalf("tuple = %+v, want verify+erase-only", tup)
	}
}

// §VI-C2: a rekey-window verification that tries both keys costs two
// CMAC computations; the old counter always added one.
func TestRekeyWindowCountsBothMACs(t *testing.T) {
	keyA := make([]byte, 16)
	keyA[0] = 1
	keyB := make([]byte, 16)
	keyB[0] = 2
	ca, err := cmac.New(keyA)
	if err != nil {
		t.Fatal(err)
	}

	kt := newKeyTable()
	kt.SetVerifyKey(1, keyA)

	stampA := func() *packet.IPv4 {
		p := samplePacketV4()
		if _, err := (V4{p}).stamp(ca); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Single live key: one computation.
	if valid, known, macs := verifyMark(kt, 1, V4{stampA()}); !valid || !known || macs != 1 {
		t.Fatalf("pre-rekey: valid=%v known=%v macs=%d, want true/true/1", valid, known, macs)
	}

	// Rekey window: current=B, previous=A. A mark stamped with the old
	// key fails against B first, then matches A — two computations.
	demoted, _ := kt.setVerifyKey(1, keyB)
	if valid, known, macs := verifyMark(kt, 1, V4{stampA()}); !valid || !known || macs != 2 {
		t.Fatalf("rekey window: valid=%v known=%v macs=%d, want true/true/2", valid, known, macs)
	}
	// An invalid mark tries (and charges) both keys too.
	if valid, _, macs := verifyMark(kt, 1, V4{samplePacketV4()}); valid || macs != 2 {
		t.Fatalf("rekey window invalid mark: valid=%v macs=%d, want false/2", valid, macs)
	}

	// Window closed: back to one computation, old-key marks now fail.
	kt.dropVerifyKey(1, demoted)
	if valid, _, macs := verifyMark(kt, 1, V4{stampA()}); valid || macs != 1 {
		t.Fatalf("post-rekey: valid=%v macs=%d, want false/1", valid, macs)
	}
}

// Router-level view of the same bug: MACsComputed must reflect the two
// computations a rekey-window verification performs.
func TestRouterStatsDuringRekeyWindow(t *testing.T) {
	peer, victim := peerVictimSetup(t)
	now := t0.Add(time.Minute)

	p := samplePacketV4()
	p.Src = netip.MustParseAddr("10.1.0.10")
	if v := peer.ProcessOutbound(V4{p}, now); v != VerdictPassStamped {
		t.Fatalf("outbound = %v", v)
	}

	// Open a rekey window at the victim: new current key, shared key
	// retained as previous. The in-flight packet carries an old-key mark.
	newKey := make([]byte, 16)
	newKey[9] = 0x77
	victim.Tables.Keys.SetVerifyKey(1, newKey)

	if v := victim.ProcessInbound(V4{p}, now); v != VerdictPassVerified {
		t.Fatalf("inbound = %v", v)
	}
	if s := victim.Stats(); s.MACsComputed != 2 || s.InVerified != 1 {
		t.Fatalf("stats = %+v, want MACsComputed=2 InVerified=1", s)
	}
}

// §VI-C2: an IPv6 stamp that fails after computing its CMAC (duplicate
// DISCS option) still costs one computation; the old router charged
// nothing on the error path.
func TestFailedV6StampCountsMAC(t *testing.T) {
	key := make([]byte, 16)
	c, err := cmac.New(key)
	if err != nil {
		t.Fatal(err)
	}
	p := samplePacketV6()
	if err := p.StampV6(0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if macs, err := (V6{p}).stamp(c); err == nil || macs != 1 {
		t.Fatalf("Stamp on pre-stamped v6: macs=%d err=%v, want 1/duplicate", macs, err)
	}

	// And through the router: the packet passes unstamped, with the
	// wasted computation accounted.
	pfx := testPfx2AS(t)
	pfx.Insert(netip.MustParsePrefix("2001:db8:1::/48"), 1)
	pfx.Insert(netip.MustParsePrefix("2001:db8:3::/48"), 3)
	tables := NewTables(1, pfx)
	tables.In[TableOutDst].Install(netip.MustParsePrefix("2001:db8:3::/48"), OpCDPStamp, t0, time.Hour, 0)
	tables.Keys.SetStampKey(3, key)
	r := testRouter(tables, 1)

	q := samplePacketV6()
	q.Src = netip.MustParseAddr("2001:db8:1::10")
	if err := q.StampV6(0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if v := r.ProcessOutbound(V6{q}, t0.Add(time.Minute)); v != VerdictPass {
		t.Fatalf("verdict = %v, want pass", v)
	}
	if s := r.Stats(); s.MACsComputed != 1 || s.OutStamped != 0 {
		t.Fatalf("stats = %+v, want MACsComputed=1 OutStamped=0", s)
	}
}

// The batch entry points must be observationally identical to the
// per-packet ones: same verdicts, same packet mutations, same counters.
func TestBatchMatchesSerial(t *testing.T) {
	mkPkts := func() []MarkCarrier {
		genuine := samplePacketV4()
		genuine.Src = netip.MustParseAddr("10.1.0.10")
		spoofed := samplePacketV4() // AS2 source, dropped by DP at the peer
		nonTarget := samplePacketV4()
		nonTarget.Src = netip.MustParseAddr("10.1.0.11")
		nonTarget.Dst = netip.MustParseAddr("10.4.0.9") // no ops scheduled
		genuine2 := samplePacketV4()
		genuine2.Src = netip.MustParseAddr("10.1.0.12")
		return []MarkCarrier{V4{genuine}, V4{spoofed}, V4{nonTarget}, V4{genuine2}}
	}

	serialPeer, serialVictim := peerVictimSetup(t)
	batchPeer, batchVictim := peerVictimSetup(t)
	now := t0.Add(time.Minute)

	serialOut := mkPkts()
	batchOut := mkPkts()
	var serialVerdicts []Verdict
	for _, p := range serialOut {
		serialVerdicts = append(serialVerdicts, serialPeer.ProcessOutbound(p, now))
	}
	batchVerdicts := batchPeer.ProcessOutboundBatch(batchOut, now, nil)
	if len(batchVerdicts) != len(serialVerdicts) {
		t.Fatalf("batch returned %d verdicts, want %d", len(batchVerdicts), len(serialVerdicts))
	}
	for i := range serialVerdicts {
		if serialVerdicts[i] != batchVerdicts[i] {
			t.Errorf("outbound pkt %d: serial=%v batch=%v", i, serialVerdicts[i], batchVerdicts[i])
		}
	}
	// Identical stamping: the marks written by both paths must agree.
	for i := range serialOut {
		sm := serialOut[i].(V4).P.Mark()
		bm := batchOut[i].(V4).P.Mark()
		if sm != bm {
			t.Errorf("outbound pkt %d: serial mark %08x, batch mark %08x", i, sm, bm)
		}
	}
	if s, b := serialPeer.Stats(), batchPeer.Stats(); s != b {
		t.Errorf("outbound stats diverge: serial %+v, batch %+v", s, b)
	}

	// Inbound: feed the surviving packets to the victims.
	var serialIn, batchIn []MarkCarrier
	for i := range serialVerdicts {
		if serialVerdicts[i] != VerdictDrop {
			serialIn = append(serialIn, serialOut[i])
			batchIn = append(batchIn, batchOut[i])
		}
	}
	serialVerdicts = serialVerdicts[:0]
	for _, p := range serialIn {
		serialVerdicts = append(serialVerdicts, serialVictim.ProcessInbound(p, now))
	}
	batchVerdicts = batchVictim.ProcessInboundBatch(batchIn, now, nil)
	for i := range serialVerdicts {
		if serialVerdicts[i] != batchVerdicts[i] {
			t.Errorf("inbound pkt %d: serial=%v batch=%v", i, serialVerdicts[i], batchVerdicts[i])
		}
	}
	if s, b := serialVictim.Stats(), batchVictim.Stats(); s != b {
		t.Errorf("inbound stats diverge: serial %+v, batch %+v", s, b)
	}
}
