package attack

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"discs/internal/packet"
	"discs/internal/snapcodec"
	"discs/internal/topology"
)

// randomAddr picks a uniformly random IPv4 address inside the AS's
// space (prefixes weighted by size): one rng.Uint64 reduced modulo the
// AS's IPv4 address count, looked up in the topology's per-AS address
// index. ok is false, and the rng untouched, when the AS is unknown or
// has no IPv4 prefix.
func randomAddr(topo *topology.Topology, asn topology.ASN, rng *rand.Rand) (netip.Addr, bool) {
	ix := topo.V4Index(asn)
	if ix == nil {
		return netip.Addr{}, false
	}
	return ix.At(rng.Uint64() % ix.Total()), true
}

// packetsInto is f.Packets with every destination drawn uniformly
// inside the IPv4 prefix target instead of across the destination AS's
// whole space — the carpet-bombing shape, where a train saturates one
// victim prefix at a time. The draw order is that of Packets, the
// destination Uint64 being reduced modulo the prefix size.
func packetsInto(f Flow, topo *topology.Topology, target netip.Prefix, n int, rng *rand.Rand) ([]*packet.IPv4, error) {
	if _, _, err := f.endpoints(); err != nil {
		return nil, err
	}
	if !target.IsValid() || !target.Addr().Is4() {
		return nil, fmt.Errorf("attack: target %v is not an IPv4 prefix", target)
	}
	return f.packets(topo, topology.NewAddrIndex(target), n, rng)
}

// referenceRandomAddr is randomAddr exactly as it stood before the
// per-AS address index: filter the AS's IPv4 prefixes, draw one Uint64
// modulo their total size, walk the list. randomAddr must return the
// same address from the same draw and leave the rng in the same state.
func referenceRandomAddr(topo *topology.Topology, asn topology.ASN, rng *rand.Rand) (netip.Addr, bool) {
	a := topo.AS(asn)
	if a == nil {
		return netip.Addr{}, false
	}
	var v4 []netip.Prefix
	var total uint64
	for _, p := range a.Prefixes {
		if p.Addr().Is4() {
			v4 = append(v4, p)
			total += 1 << (32 - p.Bits())
		}
	}
	if len(v4) == 0 {
		return netip.Addr{}, false
	}
	x := rng.Uint64() % total
	for _, p := range v4 {
		size := uint64(1) << (32 - p.Bits())
		if x < size {
			return referenceOffset(p, x), true
		}
		x -= size
	}
	return netip.Addr{}, false
}

// referenceOffset is the base+offset arithmetic of the old walk.
func referenceOffset(p netip.Prefix, x uint64) netip.Addr {
	base := p.Addr().As4()
	v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	v += uint32(x)
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// referencePackets is Flow.Packets (target invalid) and the scenario
// engine's carpet materializer (target valid) as they stood before the
// slab: per packet one src draw, one dst draw, one 24-byte Read.
func referencePackets(f Flow, topo *topology.Topology, target netip.Prefix, n int, rng *rand.Rand) ([]*packet.IPv4, error) {
	srcAS, dstAS := f.Innocent, f.Victim
	if f.Kind == SDDoS {
		srcAS, dstAS = f.Victim, f.Innocent
	}
	var out []*packet.IPv4
	for k := 0; k < n; k++ {
		src, ok := referenceRandomAddr(topo, srcAS, rng)
		if !ok {
			return nil, fmt.Errorf("AS%d has no IPv4 space", srcAS)
		}
		var dst netip.Addr
		if target.IsValid() {
			dst = referenceOffset(target, rng.Uint64()%(uint64(1)<<(32-target.Bits())))
		} else if dst, ok = referenceRandomAddr(topo, dstAS, rng); !ok {
			return nil, fmt.Errorf("AS%d has no IPv4 space", dstAS)
		}
		payload := make([]byte, 24)
		rng.Read(payload)
		out = append(out, &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst, Payload: payload})
	}
	return out, nil
}

// randomPrefixTopo builds nAS ASes with 1..maxPfx prefixes each of
// random length, roughly a third of them IPv6, and returns it with the
// list of its ASNs. Overlaps between ASes are fine: the draw only looks
// at the AS's own list.
func randomPrefixTopo(t testing.TB, seed int64, nAS, maxPfx int) (*topology.Topology, []topology.ASN) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tp := topology.New()
	var asns []topology.ASN
	for i := 1; i <= nAS; i++ {
		asn := topology.ASN(i)
		if _, err := tp.AddAS(asn); err != nil {
			t.Fatal(err)
		}
		asns = append(asns, asn)
		for k, n := 0, 1+rng.Intn(maxPfx); k < n; k++ {
			var p netip.Prefix
			if rng.Intn(3) == 0 {
				var b [16]byte
				rng.Read(b[:])
				b[0] = 0x20
				p = netip.PrefixFrom(netip.AddrFrom16(b), 16+rng.Intn(49))
			} else {
				var b [4]byte
				rng.Read(b[:])
				p = netip.PrefixFrom(netip.AddrFrom4(b), 4+rng.Intn(29))
			}
			if err := tp.AddPrefix(asn, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tp, asns
}

// sameStream fails the test unless both rngs yield the same next value,
// i.e. consumed the same number of draws.
func sameStream(t *testing.T, what string, a, b *rand.Rand) {
	t.Helper()
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Fatalf("%s: rng states diverge (next draw %#x vs %#x)", what, x, y)
	}
}

func TestRandomAddrMatchesReferenceWalk(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tp, asns := randomPrefixTopo(t, seed, 40, 70)
		got, want := rand.New(rand.NewSource(seed+100)), rand.New(rand.NewSource(seed+100))
		for i := 0; i < 4000; i++ {
			asn := asns[i%len(asns)]
			g, gok := randomAddr(tp, asn, got)
			w, wok := referenceRandomAddr(tp, asn, want)
			if g != w || gok != wok {
				t.Fatalf("seed %d draw %d AS%d: index %v/%v, walk %v/%v", seed, i, asn, g, gok, w, wok)
			}
		}
		sameStream(t, fmt.Sprintf("seed %d", seed), got, want)
	}
}

func TestRandomAddrEdgePrefixes(t *testing.T) {
	tp := topology.New()
	add := func(asn topology.ASN, prefixes ...string) {
		t.Helper()
		if _, err := tp.AddAS(asn); err != nil {
			t.Fatal(err)
		}
		for _, p := range prefixes {
			if err := tp.AddPrefix(asn, netip.MustParsePrefix(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(1, "0.0.0.0/0")
	add(2, "192.0.2.7/32")
	add(3, "2001:db8::/32")                                    // IPv6 only
	add(4, "198.51.100.9/32", "2001:db8:1::/48", "10.0.0.0/8") // host route first, IPv6 between
	add(5)                                                     // no prefix at all

	got, want := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		for _, asn := range []topology.ASN{1, 2, 3, 4, 5, 99} {
			g, gok := randomAddr(tp, asn, got)
			w, wok := referenceRandomAddr(tp, asn, want)
			if g != w || gok != wok {
				t.Fatalf("AS%d draw %d: index %v/%v, walk %v/%v", asn, i, g, gok, w, wok)
			}
			if (asn == 3 || asn == 5 || asn == 99) && gok {
				t.Fatalf("AS%d has no IPv4 space but yielded %v", asn, g)
			}
			if asn == 2 && g != netip.MustParseAddr("192.0.2.7") {
				t.Fatalf("/32 yielded %v", g)
			}
		}
	}
	// The ok == false calls above must not have drawn.
	sameStream(t, "edge prefixes", got, want)
}

// TestRandomAddrSeesNewPrefix pins the index invalidation: a prefix
// added after a draw — by AddPrefix or by restoring a checkpoint of the
// grown topology — takes part in the next draw.
func TestRandomAddrSeesNewPrefix(t *testing.T) {
	tp := weightedTopo(t)
	rng := rand.New(rand.NewSource(11))
	if _, ok := randomAddr(tp, 2, rng); !ok {
		t.Fatal("no address")
	}
	// 11.0.0.0/14 holds 2^18 addresses; a /8 beside it gets ~98% of draws.
	added := netip.MustParsePrefix("44.0.0.0/8")
	if err := tp.AddPrefix(2, added); err != nil {
		t.Fatal(err)
	}
	seesAdded := func(tp *topology.Topology) {
		t.Helper()
		got, want := rand.New(rand.NewSource(12)), rand.New(rand.NewSource(12))
		hits := 0
		for i := 0; i < 200; i++ {
			g, _ := randomAddr(tp, 2, got)
			if w, _ := referenceRandomAddr(tp, 2, want); g != w {
				t.Fatalf("draw %d: index %v, walk %v", i, g, w)
			}
			if added.Contains(g) {
				hits++
			}
		}
		if hits < 150 {
			t.Fatalf("only %d of 200 draws landed in the added /8: stale index", hits)
		}
	}
	seesAdded(tp)

	w := snapcodec.NewAppendWriter(nil)
	if err := tp.Checkpoint(w); err != nil {
		t.Fatal(err)
	}
	restored, _, err := topology.RestoreTopology(snapcodec.NewReader(w.Appended()))
	if err != nil {
		t.Fatal(err)
	}
	seesAdded(restored)
}

func TestPacketsMatchReference(t *testing.T) {
	tp, _ := randomPrefixTopo(t, 21, 12, 30)
	// AS13 is IPv6-only: a flow touching it fails, after the draws the
	// per-packet loop made before it noticed.
	if _, err := tp.AddAS(13); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddPrefix(13, netip.MustParsePrefix("2001:db8:13::/48")); err != nil {
		t.Fatal(err)
	}
	target := netip.MustParsePrefix("203.0.113.0/24")
	for _, tc := range []struct {
		name    string
		flow    Flow
		target  netip.Prefix
		n       int
		wantErr bool
	}{
		{"d-DDoS", Flow{Kind: DDDoS, Agent: 1, Innocent: 2, Victim: 3}, netip.Prefix{}, 40, false},
		{"s-DDoS", Flow{Kind: SDDoS, Agent: 1, Innocent: 4, Victim: 5}, netip.Prefix{}, 40, false},
		{"carpet", Flow{Kind: DDDoS, Agent: 1, Innocent: 6, Victim: 7}, target, 40, false},
		{"zero packets from an AS without space", Flow{Kind: DDDoS, Agent: 1, Innocent: 13, Victim: 3}, netip.Prefix{}, 0, false},
		{"src without space", Flow{Kind: DDDoS, Agent: 1, Innocent: 13, Victim: 3}, netip.Prefix{}, 5, true},
		{"dst without space", Flow{Kind: DDDoS, Agent: 1, Innocent: 2, Victim: 13}, netip.Prefix{}, 5, true},
		{"carpet src without space", Flow{Kind: DDDoS, Agent: 1, Innocent: 13, Victim: 3}, target, 5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := rand.New(rand.NewSource(22)), rand.New(rand.NewSource(22))
			var gp []*packet.IPv4
			var gerr error
			if tc.target.IsValid() {
				gp, gerr = packetsInto(tc.flow, tp, tc.target, tc.n, got)
			} else {
				gp, gerr = tc.flow.Packets(tp, tc.n, got)
			}
			wp, werr := referencePackets(tc.flow, tp, tc.target, tc.n, want)
			if (gerr != nil) != tc.wantErr || (werr != nil) != tc.wantErr {
				t.Fatalf("errors: got %v, reference %v, want error %v", gerr, werr, tc.wantErr)
			}
			if len(gp) != len(wp) {
				t.Fatalf("%d packets, reference %d", len(gp), len(wp))
			}
			for k := range gp {
				g, w := gp[k], wp[k]
				if g.Src != w.Src || g.Dst != w.Dst || !bytes.Equal(g.Payload, w.Payload) ||
					g.TTL != w.TTL || g.Protocol != w.Protocol {
					t.Fatalf("packet %d: got %+v, reference %+v", k, g, w)
				}
				if tc.target.IsValid() && !tc.target.Contains(g.Dst) {
					t.Fatalf("packet %d: dst %v outside target %v", k, g.Dst, tc.target)
				}
			}
			sameStream(t, tc.name, got, want)
		})
	}
}

// TestFillOverwritesReusedStorage: Fill into storage an earlier packet
// left dirty — every field of packet.IPv4 set, found by reflection so a
// field added later is covered too — yields exactly the packets a fresh
// Packets call does from the same stream.
func TestFillOverwritesReusedStorage(t *testing.T) {
	tp := weightedTopo(t)
	f := Flow{Kind: DDDoS, Agent: 1, Innocent: 2, Victim: 3}
	const n = 16
	want, err := f.Packets(tp, n, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]packet.IPv4, n)
	for k := range pkts {
		v := reflect.ValueOf(&pkts[k]).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch fv := v.Field(i); fv.Kind() {
			case reflect.Uint8, reflect.Uint16:
				fv.SetUint(3)
			case reflect.Slice:
				fv.SetBytes([]byte{1, 2, 3, 4})
			case reflect.Struct:
				fv.Set(reflect.ValueOf(netip.MustParseAddr("192.0.2.1")))
			default:
				t.Fatalf("packet.IPv4.%s: kind %v not dirtied", v.Type().Field(i).Name, fv.Kind())
			}
		}
	}
	if err := f.Fill(tp, nil, pkts, bytes.Repeat([]byte{0xEE}, n*PayloadLen), rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
	for k := range pkts {
		if !reflect.DeepEqual(pkts[k], *want[k]) {
			t.Fatalf("packet %d: filled %+v, fresh %+v", k, pkts[k], *want[k])
		}
	}
}

func TestPacketsIntoRejectsNonIPv4Target(t *testing.T) {
	tp := weightedTopo(t)
	f := Flow{Kind: DDDoS, Agent: 1, Innocent: 2, Victim: 3}
	rng := rand.New(rand.NewSource(1))
	for _, target := range []netip.Prefix{{}, netip.MustParsePrefix("2001:db8::/32")} {
		if _, err := packetsInto(f, tp, target, 1, rng); err == nil {
			t.Errorf("target %v accepted", target)
		}
	}
}

// TestPayloadSlabIsClamped pins the slab contract: payloads of one call
// are adjacent in one array, yet appending to one must not touch the
// next packet's bytes.
func TestPayloadSlabIsClamped(t *testing.T) {
	tp := weightedTopo(t)
	pkts, err := Flow{Kind: DDDoS, Agent: 1, Innocent: 2, Victim: 3}.Packets(tp, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts[0].Payload) != PayloadLen || cap(pkts[0].Payload) != PayloadLen {
		t.Fatalf("payload len %d cap %d, want both %d", len(pkts[0].Payload), cap(pkts[0].Payload), PayloadLen)
	}
	next := append([]byte(nil), pkts[1].Payload...)
	pkts[0].Payload = append(pkts[0].Payload, 0xAA, 0xBB)
	if !bytes.Equal(pkts[1].Payload, next) {
		t.Fatal("append to one payload overwrote the next packet's bytes")
	}
}

// Regression: a negative count used to panic in make([]*packet.IPv4,
// 0, n), reachable from Run/RunPaced and discs-sim -per-flow -1.
func TestNegativeCountIsAnError(t *testing.T) {
	tp := weightedTopo(t)
	f := Flow{Kind: DDDoS, Agent: 1, Innocent: 2, Victim: 3}
	rng, untouched := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	var ce *countError
	if _, err := f.Packets(tp, -1, rng); !errors.As(err, &ce) || ce.N != -1 {
		t.Fatalf("Packets(-1) = %v, want *countError{-1}", err)
	}
	if _, err := packetsInto(f, tp, netip.MustParsePrefix("12.0.0.0/16"), -7, rng); !errors.As(err, &ce) || ce.N != -7 {
		t.Fatalf("packetsInto(-7) = %v, want *countError{-7}", err)
	}
	sameStream(t, "negative count", rng, untouched)

	sys, _ := runnerWorld(t)
	flows := []Flow{{Kind: DDDoS, Agent: 4, Innocent: 2, Victim: 3}}
	if _, err := Run(sys, flows, -1, 1); !errors.As(err, &ce) {
		t.Fatalf("Run(perFlow -1) = %v, want *countError", err)
	}
	if _, err := RunPaced(sys, flows, -1, 1, 3, 0); !errors.As(err, &ce) {
		t.Fatalf("RunPaced(perFlow -1) = %v, want *countError", err)
	}
}

func TestMaterializationAllocs(t *testing.T) {
	tp, _ := randomPrefixTopo(t, 31, 6, 64)
	rng := rand.New(rand.NewSource(32))
	f := Flow{Kind: DDDoS, Agent: 1, Innocent: 2, Victim: 3}
	// First draws build the indexes; they are not part of the steady state.
	if _, err := f.Packets(tp, 1, rng); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() { randomAddr(tp, 2, rng) }); a != 0 {
		t.Errorf("randomAddr allocates %.1f times per draw, want 0", a)
	}
	var perCall [2]float64
	for i, n := range []int{8, 2048} {
		perCall[i] = testing.AllocsPerRun(20, func() {
			if _, err := f.Packets(tp, n, rng); err != nil {
				t.Fatal(err)
			}
		})
	}
	if perCall[0] != perCall[1] || perCall[0] > 4 {
		t.Errorf("Flow.Packets allocates %.0f times for 8 packets and %.0f for 2048, want one constant ≤ 4", perCall[0], perCall[1])
	}
}

// BenchmarkFlowPackets materializes the sim-paper campaign's per-flow
// batch (12 packets) at the scale the 300-AS scenario gate cannot see:
// the largest ASes of topology.DefaultGenConfig() own prefix lists tens
// of entries long.
func BenchmarkFlowPackets(b *testing.B) {
	cfg := topology.DefaultGenConfig()
	cfg.SkipLinks = true // draws only look at prefixes
	tp, err := topology.GenerateInternet(cfg)
	if err != nil {
		b.Fatal(err)
	}
	big := tp.BySizeDesc()
	f := Flow{Kind: DDDoS, Agent: big[2], Innocent: big[0], Victim: big[1]}
	rng := rand.New(rand.NewSource(1))
	const perFlow = 12
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkts, err := f.Packets(tp, perFlow, rng)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = pkts
	}
	b.ReportMetric(float64(b.N)*perFlow/b.Elapsed().Seconds()/1e6, "Mpps")
}

var benchSink []*packet.IPv4

// BenchmarkFill is BenchmarkFlowPackets into reused storage, the
// scenario engine's steady state.
func BenchmarkFill(b *testing.B) {
	cfg := topology.DefaultGenConfig()
	cfg.SkipLinks = true
	tp, err := topology.GenerateInternet(cfg)
	if err != nil {
		b.Fatal(err)
	}
	big := tp.BySizeDesc()
	f := Flow{Kind: DDDoS, Agent: big[2], Innocent: big[0], Victim: big[1]}
	rng := rand.New(rand.NewSource(1))
	const perFlow = 12
	pkts := make([]packet.IPv4, perFlow)
	payloads := make([]byte, perFlow*PayloadLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Fill(tp, nil, pkts, payloads, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*perFlow/b.Elapsed().Seconds()/1e6, "Mpps")
}
