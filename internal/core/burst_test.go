package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"discs/internal/lpm"
	"discs/internal/packet"
	"discs/internal/topology"
)

func TestNextPow2(t *testing.T) {
	cases := []struct{ n, want uint64 }{
		{0, 1},
		{1, 1},
		{2, 2},
		{3, 4},
		{5, 8},
		{1 << 20, 1 << 20},
		{1<<20 + 1, 1 << 21},
		{1 << 63, 1 << 63},
		// Overflow boundary: anything above the largest power of two
		// clamps instead of looping forever (p would shift to 0).
		{1<<63 + 1, 1 << 63},
		{^uint64(0), 1 << 63},
	}
	for _, tc := range cases {
		if got := nextPow2(tc.n); got != tc.want {
			t.Errorf("nextPow2(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

var (
	burstKey3 = func() []byte { k := make([]byte, 16); k[0] = 3; return k }()
	burstKey4 = func() []byte { k := make([]byte, 16); k[0] = 4; return k }()
	burstKeyN = func() []byte { k := make([]byte, 16); k[0] = 9; return k }()
)

func burstPfx2AS(t *testing.T) *lpm.Table[topology.ASN] {
	t.Helper()
	tbl := testPfx2AS(t)
	for asn, p := range map[topology.ASN]string{
		1: "2001:db8:1::/48", 3: "2001:db8:3::/48",
	} {
		if err := tbl.Insert(netip.MustParsePrefix(p), asn); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// burstSetup builds a two-family scenario rich enough to drive every
// burst-path branch:
//
//	peer (AS1): DP filter + CDP stamp toward 10.3/16 (key AS3), CDP
//	stamp toward 10.4/16 (key AS4 — forces mid-burst key-run splits)
//	and toward 2001:db8:3::/48 (key AS3, v6 family splits).
//	victim (AS3): CDP verify on 10.3/16 and 2001:db8:3::/48 (strict),
//	CDP verify on 10.4/16 with an always-in-grace tolerance
//	(erase-only path, which consumes scrub-RNG draws).
func burstSetup(t *testing.T, mtu int) (peer, victim *BorderRouter) {
	t.Helper()
	v4strict := netip.MustParsePrefix("10.3.0.0/16")
	v4grace := netip.MustParsePrefix("10.4.0.0/16")
	v6strict := netip.MustParsePrefix("2001:db8:3::/48")

	pt := NewTables(1, burstPfx2AS(t))
	pt.In[TableOutDst].Install(v4strict, OpDPFilter, t0, time.Hour, 0)
	pt.In[TableOutDst].Install(v4strict, OpCDPStamp, t0, time.Hour, 0)
	pt.In[TableOutDst].Install(v4grace, OpCDPStamp, t0, time.Hour, 0)
	pt.In[TableOutDst].Install(v6strict, OpCDPStamp, t0, time.Hour, 0)
	pt.Keys.SetStampKey(3, burstKey3)
	pt.Keys.SetStampKey(4, burstKey4)
	peer = mustRouterOpts(RouterOptions{Tables: pt, Seed: 7, ExternalMTU: mtu,
		RouterAddr: netip.MustParseAddr("2001:db8:1::1")})

	vt := NewTables(3, burstPfx2AS(t))
	vt.In[TableInDst].Install(v4strict, OpCDPVerify, t0, time.Hour, 0)
	vt.In[TableInDst].Install(v6strict, OpCDPVerify, t0, time.Hour, 0)
	// Grace tolerance larger than the elapsed time at t0+1m keeps this
	// prefix permanently in its head tolerance: erase-only.
	vt.In[TableInDst].Install(v4grace, OpCDPVerify, t0, time.Hour, 30*time.Minute)
	vt.Keys.SetVerifyKey(1, burstKey3)
	victim = mustRouterOpts(RouterOptions{Tables: vt, Seed: 8})
	return peer, victim
}

// burstPacketMix generates a deterministic pseudo-random traffic mix
// hitting stamping, filtering, grace, MTU, fault and both-family paths.
func burstPacketMix(seed int64, n int) []MarkCarrier {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]MarkCarrier, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0: // genuine v4 toward the strict prefix
			p := samplePacketV4()
			p.Src = netip.MustParseAddr(fmt.Sprintf("10.1.%d.%d", rng.Intn(4), 1+rng.Intn(250)))
			p.Dst = netip.MustParseAddr(fmt.Sprintf("10.3.0.%d", 1+rng.Intn(250)))
			pkts = append(pkts, V4{p})
		case 1: // spoofed v4 (non-local source, DP filter drop)
			p := samplePacketV4()
			p.Src = netip.MustParseAddr(fmt.Sprintf("10.2.0.%d", 1+rng.Intn(250)))
			pkts = append(pkts, V4{p})
		case 2: // v4 toward the graced prefix (stamped with key AS4)
			p := samplePacketV4()
			p.Src = netip.MustParseAddr(fmt.Sprintf("10.1.1.%d", 1+rng.Intn(250)))
			p.Dst = netip.MustParseAddr(fmt.Sprintf("10.4.0.%d", 1+rng.Intn(250)))
			pkts = append(pkts, V4{p})
		case 3: // v4 toward uncovered space: pass untouched both ways
			p := samplePacketV4()
			p.Src = netip.MustParseAddr(fmt.Sprintf("10.1.2.%d", 1+rng.Intn(250)))
			p.Dst = netip.MustParseAddr(fmt.Sprintf("10.9.0.%d", 1+rng.Intn(250)))
			pkts = append(pkts, V4{p})
		case 4: // unknown source AS
			p := samplePacketV4()
			p.Src = netip.MustParseAddr(fmt.Sprintf("192.168.0.%d", 1+rng.Intn(250)))
			p.Dst = netip.MustParseAddr("10.3.0.9")
			pkts = append(pkts, V4{p})
		case 5: // genuine v6
			p := samplePacketV6()
			p.Src = netip.MustParseAddr(fmt.Sprintf("2001:db8:1::%d", 1+rng.Intn(250)))
			p.Dst = netip.MustParseAddr(fmt.Sprintf("2001:db8:3::%d", 1+rng.Intn(250)))
			pkts = append(pkts, V6{p})
		case 6: // v6 already carrying a (bogus) DISCS option: outbound
			// stamp fails after computing its MAC; inbound fails verify.
			p := samplePacketV6()
			p.Src = netip.MustParseAddr(fmt.Sprintf("2001:db8:1::%d", 1+rng.Intn(250)))
			p.Dst = netip.MustParseAddr(fmt.Sprintf("2001:db8:3::%d", 1+rng.Intn(250)))
			if err := p.StampV6(0xdeadbeef); err != nil {
				panic(err)
			}
			pkts = append(pkts, V6{p})
		default: // oversized v6 (too-big drop when an MTU is set)
			p := samplePacketV6()
			p.Src = netip.MustParseAddr(fmt.Sprintf("2001:db8:1::%d", 1+rng.Intn(250)))
			p.Dst = netip.MustParseAddr(fmt.Sprintf("2001:db8:3::%d", 1+rng.Intn(250)))
			p.Payload = make([]byte, 1400)
			pkts = append(pkts, V6{p})
		}
	}
	return pkts
}

func marshalCarrier(t *testing.T, c MarkCarrier) []byte {
	t.Helper()
	var b []byte
	var err error
	switch w := c.(type) {
	case V4:
		b, err = w.P.Marshal()
	case V6:
		b, err = w.P.Marshal()
	default:
		t.Fatalf("unknown carrier %T", c)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// burstRun is what one side of a burst differential observed.
type burstRun struct {
	out, in           []Verdict
	outStats, inStats RouterStats
	icmp              int
	alarms            []AlarmSample
	inBytes           [][]byte
}

// processFn runs pkts through r outbound or inbound and returns the
// verdicts.
type processFn func(r *BorderRouter, pkts []MarkCarrier, outbound bool) []Verdict

// runBurstSide builds a fresh peer/victim pair, sends the seed's
// traffic out of the peer and the survivors into the victim with proc,
// and records everything observable. mutate, when non-nil, runs on the
// victim between the two halves.
func runBurstSide(t *testing.T, seed int64, n, mtu int, mutate func(r *BorderRouter, pkts []MarkCarrier), proc processFn) burstRun {
	t.Helper()
	peer, victim := burstSetup(t, mtu)
	var run burstRun
	victim.OnAlarm = func(a AlarmSample) { run.alarms = append(run.alarms, a) }
	peer.onPacketTooBig = func(*packet.IPv6) { run.icmp++ }

	pkts := burstPacketMix(seed, n)
	run.out = proc(peer, pkts, true)
	run.outStats = peer.Stats()
	if mutate != nil {
		mutate(victim, pkts)
	}
	var in []MarkCarrier
	for i, v := range run.out {
		if !v.Dropped() {
			in = append(in, pkts[i])
		}
	}
	run.in = proc(victim, in, false)
	run.inStats = victim.Stats()
	for _, p := range in {
		run.inBytes = append(run.inBytes, marshalCarrier(t, p))
	}
	return run
}

// runBurstDifferential drives the same traffic through a per-packet
// pair and two batch pairs and requires bit-identical verdicts, packet
// bytes (marks, erasures — which consume the same RNG draws in the same
// order — and v6 options), stats, ICMP callbacks and alarm-sample
// sequences. One batch pair takes the traffic as a single burst through
// the pooled entry points; the other takes it in random bursts of 1–64
// through one dedicated pipeline, so the per-burst stamp-key memo
// resets fall mid-stream. mutate, when
// non-nil, runs between the outbound and inbound halves on every
// victim (rekey windows, mark corruption, alarm mode).
func runBurstDifferential(t *testing.T, seed int64, n, mtu int, mutate func(r *BorderRouter, pkts []MarkCarrier)) {
	t.Helper()
	now := t0.Add(time.Minute)
	perPacket := func(r *BorderRouter, pkts []MarkCarrier, outbound bool) []Verdict {
		vs := make([]Verdict, 0, len(pkts))
		for _, p := range pkts {
			if outbound {
				vs = append(vs, r.ProcessOutbound(p, now))
			} else {
				vs = append(vs, r.ProcessInbound(p, now))
			}
		}
		return vs
	}
	oneBurst := func(r *BorderRouter, pkts []MarkCarrier, outbound bool) []Verdict {
		if outbound {
			return r.ProcessOutboundBatch(pkts, now, nil)
		}
		return r.ProcessInboundBatch(pkts, now, nil)
	}
	sizes := rand.New(rand.NewSource(seed))
	bp := new(burstPipeline)
	randomBursts := func(r *BorderRouter, pkts []MarkCarrier, outbound bool) []Verdict {
		var vs []Verdict
		for len(pkts) > 0 {
			k := min(1+sizes.Intn(64), len(pkts))
			if outbound {
				vs = bp.outbound(r, pkts[:k], now, vs)
			} else {
				vs = bp.inbound(r, pkts[:k], now, vs)
			}
			pkts = pkts[k:]
		}
		return vs
	}

	want := runBurstSide(t, seed, n, mtu, mutate, perPacket)
	for _, side := range []struct {
		name string
		proc processFn
	}{{"batch", oneBurst}, {"split", randomBursts}} {
		got := runBurstSide(t, seed, n, mtu, mutate, side.proc)
		for i := range want.out {
			if want.out[i] != got.out[i] {
				t.Fatalf("outbound pkt %d: serial=%v %s=%v", i, want.out[i], side.name, got.out[i])
			}
		}
		if want.outStats != got.outStats {
			t.Fatalf("outbound stats diverge:\nserial %+v\n%s  %+v", want.outStats, side.name, got.outStats)
		}
		if want.icmp != got.icmp {
			t.Fatalf("ICMP too-big callbacks: serial %d, %s %d", want.icmp, side.name, got.icmp)
		}
		for i := range want.in {
			if want.in[i] != got.in[i] {
				t.Fatalf("inbound pkt %d: serial=%v %s=%v", i, want.in[i], side.name, got.in[i])
			}
		}
		if want.inStats != got.inStats {
			t.Fatalf("inbound stats diverge:\nserial %+v\n%s  %+v", want.inStats, side.name, got.inStats)
		}
		if len(want.alarms) != len(got.alarms) {
			t.Fatalf("alarm samples: serial %d, %s %d", len(want.alarms), side.name, len(got.alarms))
		}
		for i := range want.alarms {
			if want.alarms[i] != got.alarms[i] {
				t.Fatalf("alarm sample %d: serial %+v, %s %+v", i, want.alarms[i], side.name, got.alarms[i])
			}
		}
		for i := range want.inBytes {
			if string(want.inBytes[i]) != string(got.inBytes[i]) {
				t.Fatalf("inbound pkt %d bytes diverge after %s processing", i, side.name)
			}
		}
	}
}

// The burst path must be observationally identical to serial
// processing across families, key splits, grace windows and MTU drops.
func TestBurstMatchesSerialMixed(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runBurstDifferential(t, seed, 256, 0, nil)
		})
	}
}

// Same, with an external MTU forcing too-big drops and ICMP errors.
func TestBurstMatchesSerialMTU(t *testing.T) {
	runBurstDifferential(t, 5, 256, 1280, nil)
}

// Same, in alarm mode: failures pass with alarm samples whose sequence
// (including SrcAS resolution) must match serial exactly.
func TestBurstMatchesSerialAlarmMode(t *testing.T) {
	runBurstDifferential(t, 6, 256, 0, func(r *BorderRouter, pkts []MarkCarrier) {
		r.SetAlarmMode(true)
		// Corrupt some marks so the alarm path actually fires.
		for i, p := range pkts {
			if w, ok := p.(V4); ok && i%3 == 0 {
				w.P.SetMark(w.P.Mark() ^ 0x15555)
			}
		}
	})
}

// Same, inside a rekey window: the victim rotates to a new current key
// while in-flight marks carry the old one, exercising the burst path's
// previous-key retry (two MACs per packet, like serial).
func TestBurstMatchesSerialRekeyWindow(t *testing.T) {
	runBurstDifferential(t, 7, 256, 0, func(r *BorderRouter, pkts []MarkCarrier) {
		r.Tables.Keys.SetVerifyKey(1, burstKeyN)
	})
}

// Fault-shaped inputs: corrupted marks without alarm mode (drops), on
// top of the mix's pre-stamped v6 duplicates and unknown sources.
func TestBurstMatchesSerialCorruptedMarks(t *testing.T) {
	runBurstDifferential(t, 8, 256, 0, func(r *BorderRouter, pkts []MarkCarrier) {
		for i, p := range pkts {
			switch w := p.(type) {
			case V4:
				if i%2 == 0 {
					w.P.SetMark(w.P.Mark() ^ 1)
				}
			case V6:
				if i%5 == 0 {
					w.P.UnstampV6() // arrive unmarked: fails with zero MACs
				}
			}
		}
	})
}

// A dedicated pipeline must be reusable across routers and bursts: the
// caches are keyed by key/table pointers, so switching routers between
// bursts cannot leak state. (This is the netsim usage pattern.)
func TestBurstPipelineReuseAcrossRouters(t *testing.T) {
	peerA, victimA := burstSetup(t, 0)
	peerB, victimB := burstSetup(t, 0)
	serialPeer, serialVictim := burstSetup(t, 0)
	now := t0.Add(time.Minute)
	bp := new(burstPipeline)

	for round := 0; round < 4; round++ {
		peer, victim := peerA, victimA
		if round%2 == 1 {
			peer, victim = peerB, victimB
		}
		pkts := burstPacketMix(int64(100+round), 64)
		ref := burstPacketMix(int64(100+round), 64)

		got := bp.outbound(peer, pkts, now, nil)
		want := make([]Verdict, 0, len(ref))
		for _, p := range ref {
			want = append(want, serialPeer.ProcessOutbound(p, now))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d outbound pkt %d: pipeline=%v serial=%v", round, i, got[i], want[i])
			}
		}
		var in, refIn []MarkCarrier
		for i, v := range want {
			if !v.Dropped() {
				in = append(in, pkts[i])
				refIn = append(refIn, ref[i])
			}
		}
		got = bp.inbound(victim, in, now, nil)
		want = want[:0]
		for _, p := range refIn {
			want = append(want, serialVictim.ProcessInbound(p, now))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d inbound pkt %d: pipeline=%v serial=%v", round, i, got[i], want[i])
			}
		}
	}
}

// The batch entry points allocate nothing per burst, even in the shape
// that defeats the stamp-key memo: every round draws 64 fresh IPv4
// sources from the peer's /16, and destinations alternate between the
// two stamp keys, so key runs split inside every burst.
func TestBurstZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	peer, victim := burstSetup(t, 0)
	now := t0.Add(time.Minute)
	const n = 64
	raw := make([]*packet.IPv4, n)
	pkts := make([]MarkCarrier, n)
	for i := range raw {
		raw[i] = samplePacketV4()
		pkts[i] = V4{raw[i]}
	}
	out := make([]Verdict, 0, n)
	var ctr uint64
	allocs := testing.AllocsPerRun(200, func() {
		for i, p := range raw {
			ctr += 0x9e3779b97f4a7c15
			v := ctr ^ ctr>>29
			p.Src = netip.AddrFrom4([4]byte{10, 1, byte(v >> 8), byte(v)})
			p.Dst = netip.AddrFrom4([4]byte{10, byte(3 + i%2), byte(v >> 16), byte(v >> 24)})
		}
		out = peer.ProcessOutboundBatch(pkts, now, out[:0])
		for i, v := range out {
			if v != VerdictPassStamped {
				t.Fatalf("outbound pkt %d: %v", i, v)
			}
		}
		out = victim.ProcessInboundBatch(pkts, now, out[:0])
		for i, v := range out {
			// 10.3/16 verifies strictly; 10.4/16 sits in its grace
			// interval, where the mark is erased without enforcement.
			if i%2 == 0 && v != VerdictPassVerified || v.Dropped() {
				t.Fatalf("inbound pkt %d: %v", i, v)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("batch stamp+verify allocates %.1f/burst, want 0", allocs)
	}
}

// Idle tables (no active invocation anywhere) must take the burst fast
// path and still count processed packets.
func TestBurstIdleFastPath(t *testing.T) {
	tb := NewTables(1, burstPfx2AS(t))
	r := testRouter(tb, 1)
	pkts := burstPacketMix(9, 32)
	out := r.ProcessOutboundBatch(pkts, t0.Add(time.Minute), nil)
	in := r.ProcessInboundBatch(pkts, t0.Add(time.Minute), nil)
	for i := range pkts {
		if out[i] != VerdictPass || in[i] != VerdictPass {
			t.Fatalf("pkt %d: out=%v in=%v, want pass/pass", i, out[i], in[i])
		}
	}
	if s := r.Stats(); s.OutProcessed != 32 || s.InProcessed != 32 || s.MACsComputed != 0 {
		t.Fatalf("stats = %+v", s)
	}
}
