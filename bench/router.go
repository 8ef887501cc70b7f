package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"discs/internal/cmac"
	"discs/internal/core"
	"discs/internal/lpm"
	"discs/internal/packet"
	"discs/internal/topology"
)

// The router workloads run the data plane in-process on one goroutine:
//
//	wire bytes -> ParseIPv4/6 -> peer ProcessOutboundBatch -> Marshal
//	           -> ParseIPv4/6 -> edge ProcessInboundBatch
//
// in bursts of 64, which is the shape behind the repo's Mpps figures
// but charged for parsing and serialising. The generator fills a packet
// pool during set-up and decides each packet's fate there, so the
// measured loop contains the pipeline and the oracle comparison only.

const (
	burstSize   = 64
	payloadLen  = 18 // UDP header + 10 bytes
	peerAS      = topology.ASN(1)
	victimAS0   = topology.ASN(201)
	unprotAS    = topology.ASN(300)
	sampleEvery = 8 // traced run: one burst in 8 is replayed through lpm and cmac
)

// fate is the generator's oracle for one packet.
type fate uint8

const (
	fateLegit       fate = iota // stamped at the peer, verified and delivered at the victim
	fateSpoofed                 // source outside the peer AS: DP-filter drop at the peer
	fateInjected                // enters at the victim unstamped: CDP verify-fail drop
	fateUnprotected             // toward an AS nobody invoked for: passes both routers untouched
	numFates
)

// routerShape is what distinguishes the two router workloads.
type routerShape struct {
	flows       int // distinct (src,dst,ports) tuples; 0 = a fresh random source per packet
	poolBursts  int
	roundBursts int
	sliceBursts int // pkt_mpps is the median over slices of this many bursts
	warmBursts  int
	srcPrefixes int // /16s (and v6 /40s) the peer AS owns
	victims     int // protected ASes, one key each
	// Shares in percent; the remainder is legitimate protected traffic.
	v6, spoofed, injected, unprotected int
}

var fastpathShape = routerShape{
	flows: 64, poolBursts: 16, roundBursts: 65536, sliceBursts: 4096, warmBursts: 4096,
	srcPrefixes: 1, victims: 1,
}

var hostileShape = routerShape{
	poolBursts: 16384, roundBursts: 32768, sliceBursts: 4096, warmBursts: 2048,
	srcPrefixes: 256, victims: 16,
	v6: 25, spoofed: 15, injected: 10, unprotected: 20,
}

// packetPool is the generated input: raw wire bytes plus, per packet,
// what the oracle expects to happen to it.
type packetPool struct {
	buf  []byte
	off  []uint32 // packet i is buf[off[i]:off[i+1]]
	fate []fate
	edge []uint8 // index of the router the packet is destined to
	v6   []bool
	want [numFates]int64
	// wantMACs is the exact number of CMACs one pass over the pool
	// costs: a stamp and a verify per legit packet, one verify per
	// injected IPv4 packet (an IPv6 packet without the option fails
	// before any MAC is computed).
	wantMACs int64
}

func (p *packetPool) n() int           { return len(p.fate) }
func (p *packetPool) raw(i int) []byte { return p.buf[p.off[i]:p.off[i+1]] }

func victimPrefix4(k int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(k), 0}), 24)
}

func victimPrefix6(k int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xba, 0, byte(k)}), 48)
}

func victimKey(k int) []byte {
	key := make([]byte, 16)
	key[0] = byte(k + 1)
	return key
}

// genPool draws the shape's packets from the seed.
func genPool(sh routerShape, seed int64, bursts int) *packetPool {
	r := newRNG(seed, 1)
	n := bursts * burstSize
	p := &packetPool{
		buf:  make([]byte, 0, n*48),
		off:  make([]uint32, 1, n+1),
		fate: make([]fate, n),
		edge: make([]uint8, n),
		v6:   make([]bool, n),
	}
	type flow struct {
		src, dst [4]byte
		ports    [4]byte
	}
	flows := make([]flow, sh.flows)
	for i := range flows {
		v := r.next()
		flows[i] = flow{
			src: [4]byte{10, 0, byte(v >> 8), byte(v)},
			dst: [4]byte{172, 16, 0, byte(v >> 16)},
		}
		binary.BigEndian.PutUint32(flows[i].ports[:], uint32(v>>24))
	}
	var pay [payloadLen]byte
	for i := 0; i < n; i++ {
		v := r.next()
		f := fateLegit
		switch c := int(v % 100); {
		case c < sh.spoofed:
			f = fateSpoofed
		case c < sh.spoofed+sh.injected:
			f = fateInjected
		case c < sh.spoofed+sh.injected+sh.unprotected:
			f = fateUnprotected
		}
		isV6 := int(v>>8%100) < sh.v6
		k := int(v >> 16 % uint64(sh.victims))
		if f == fateUnprotected {
			k = sh.victims
		}
		a := r.next()
		for j := range pay {
			pay[j] = byte(r.next())
		}
		var src4, dst4 [4]byte
		if sh.flows > 0 {
			// The first four payload bytes (the ports) sit in the first
			// CMAC block; fixing them per flow is what lets the block
			// cache hit.
			fl := flows[i%sh.flows]
			src4, dst4 = fl.src, fl.dst
			copy(pay[:4], fl.ports[:])
		} else {
			src4 = [4]byte{10, byte(a >> 16 % uint64(sh.srcPrefixes)), byte(a >> 8), byte(a)}
			dst4 = [4]byte{172, 16, byte(k), byte(a >> 24)}
			if f == fateSpoofed {
				src4[0] = 11
			}
			if f == fateUnprotected {
				dst4 = [4]byte{192, 0, 2, byte(a >> 24)}
			}
		}
		if isV6 {
			src := [16]byte{0x20, 0x01, 0x0d, 0xb8, byte(a >> 16 % uint64(sh.srcPrefixes)), 0, 0, 0, 0, 0, 0, 0, 0, byte(a >> 8), byte(a), 1}
			dst := victimPrefix6(k).Addr().As16()
			dst[15] = byte(a >> 24)
			if f == fateSpoofed {
				src[3] = 0xbc
			}
			if f == fateUnprotected {
				dst[3], dst[5] = 0xbb, 0
			}
			p.buf = append(p.buf, 6<<4, 0, 0, 0, 0, payloadLen, packet.ProtoUDP, 64)
			p.buf = append(p.buf, src[:]...)
			p.buf = append(p.buf, dst[:]...)
		} else {
			p.buf = append(p.buf, 4<<4|5, 0, 0, 20+payloadLen, 0, 0, 0, 0, 64, packet.ProtoUDP, 0, 0)
			p.buf = append(p.buf, src4[:]...)
			p.buf = append(p.buf, dst4[:]...)
		}
		p.buf = append(p.buf, pay[:]...)
		p.off = append(p.off, uint32(len(p.buf)))
		p.fate[i], p.edge[i], p.v6[i] = f, uint8(k), isV6
		p.want[f]++
		switch {
		case f == fateLegit:
			p.wantMACs += 2
		case f == fateInjected && !isV6:
			p.wantMACs++
		}
	}
	return p
}

// routerWorld is a peer border router, the edge routers its traffic is
// destined to (one per protected victim, then one for the unprotected
// AS), and the generated pool.
type routerWorld struct {
	pfx2as *lpm.Table[topology.ASN]
	peer   *core.BorderRouter
	edges  []*core.BorderRouter
	keys   []*cmac.CMAC // per victim, for the traced cmac replay
	pool   *packetPool
	now    time.Time
}

func newRouterWorld(sh routerShape, cfg runConfig) (*routerWorld, error) {
	w := &routerWorld{pfx2as: lpm.New[topology.ASN]()}
	ins := func(asn topology.ASN, p netip.Prefix) error { return w.pfx2as.Insert(p, asn) }
	for i := 0; i < sh.srcPrefixes; i++ {
		if err := ins(peerAS, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)); err != nil {
			return nil, err
		}
		if err := ins(peerAS, netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i)}), 40)); err != nil {
			return nil, err
		}
	}
	for k := 0; k < sh.victims; k++ {
		if err := ins(victimAS0+topology.ASN(k), victimPrefix4(k)); err != nil {
			return nil, err
		}
		if err := ins(victimAS0+topology.ASN(k), victimPrefix6(k)); err != nil {
			return nil, err
		}
	}
	if err := ins(unprotAS, netip.MustParsePrefix("192.0.2.0/24")); err != nil {
		return nil, err
	}
	if err := ins(unprotAS, netip.MustParsePrefix("2001:dbb::/48")); err != nil {
		return nil, err
	}

	t0 := time.Unix(0, 0).UTC()
	w.now = t0.Add(time.Minute)
	pt := core.NewTables(peerAS, w.pfx2as)
	for k := 0; k < sh.victims; k++ {
		for _, pfx := range []netip.Prefix{victimPrefix4(k), victimPrefix6(k)} {
			if err := pt.In[core.TableOutDst].Install(pfx, core.OpDPFilter, t0, time.Hour, 0); err != nil {
				return nil, err
			}
			if err := pt.In[core.TableOutDst].Install(pfx, core.OpCDPStamp, t0, time.Hour, 0); err != nil {
				return nil, err
			}
		}
		if err := pt.Keys.SetStampKey(victimAS0+topology.ASN(k), victimKey(k)); err != nil {
			return nil, err
		}
	}
	var err error
	if w.peer, err = core.NewBorderRouterWithOptions(core.RouterOptions{Tables: pt, Seed: cfg.seed}); err != nil {
		return nil, err
	}
	for k := 0; k <= sh.victims; k++ {
		asn := victimAS0 + topology.ASN(k)
		if k == sh.victims {
			asn = unprotAS
		}
		vt := core.NewTables(asn, w.pfx2as)
		if k < sh.victims {
			for _, pfx := range []netip.Prefix{victimPrefix4(k), victimPrefix6(k)} {
				if err := vt.In[core.TableInDst].Install(pfx, core.OpCDPVerify, t0, time.Hour, 0); err != nil {
					return nil, err
				}
			}
			if err := vt.Keys.SetVerifyKey(peerAS, victimKey(k)); err != nil {
				return nil, err
			}
			c, err := cmac.New(victimKey(k))
			if err != nil {
				return nil, err
			}
			w.keys = append(w.keys, c)
		}
		r, err := core.NewBorderRouterWithOptions(core.RouterOptions{Tables: vt, Seed: cfg.seed + int64(k) + 1})
		if err != nil {
			return nil, err
		}
		w.edges = append(w.edges, r)
	}
	w.pool = genPool(sh, cfg.seed, cfg.scaled(sh.poolBursts, 4))
	return w, nil
}

// stats sums the data-plane counters of every router in the world.
func (w *routerWorld) stats() core.RouterStats {
	s := w.peer.Stats()
	for _, e := range w.edges {
		s = s.Add(e.Stats())
	}
	return s
}

// pipeline holds one burst's scratch state; its five stage methods are
// the layer boundaries the traced run puts spans around.
type pipeline struct {
	w        *routerWorld
	carriers []core.MarkCarrier // peer side
	src      []int32            // pool index of each peer-side carrier
	verdicts []core.Verdict     // the peer's, one per carrier
	inVerd   []core.Verdict     // scratch for one edge bucket
	wire     [][]byte
	wireSrc  []int32
	buckets  [][]core.MarkCarrier // edge side, per edge router
	bktSrc   [][]int32
	bad      int64 // packets whose verdict or bytes differ from the oracle
	badNote  string
}

func newPipeline(w *routerWorld) *pipeline {
	return &pipeline{
		w:       w,
		buckets: make([][]core.MarkCarrier, len(w.edges)),
		bktSrc:  make([][]int32, len(w.edges)),
	}
}

func (pl *pipeline) mismatch(i int32, stage string, got core.Verdict) {
	pl.bad++
	if pl.badNote == "" {
		pl.badNote = fmt.Sprintf("packet %d (fate %d) %s verdict %v", i, pl.w.pool.fate[i], stage, got)
	}
}

func parseCarrier(raw []byte, v6 bool) (core.MarkCarrier, error) {
	if v6 {
		p, err := packet.ParseIPv6(raw)
		return core.V6{P: p}, err
	}
	p, err := packet.ParseIPv4(raw)
	return core.V4{P: p}, err
}

// parsePeer parses every packet of pool[lo:hi] that enters at the peer.
func (pl *pipeline) parsePeer(lo, hi int) {
	pool := pl.w.pool
	pl.carriers, pl.src = pl.carriers[:0], pl.src[:0]
	for i := lo; i < hi; i++ {
		if pool.fate[i] == fateInjected {
			continue
		}
		c, err := parseCarrier(pool.raw(i), pool.v6[i])
		if err != nil {
			pl.bad++
			continue
		}
		pl.carriers = append(pl.carriers, c)
		pl.src = append(pl.src, int32(i))
	}
}

var wantOut = [numFates]core.Verdict{
	fateLegit: core.VerdictPassStamped, fateSpoofed: core.VerdictDrop, fateUnprotected: core.VerdictPass,
}

var wantIn = [numFates]core.Verdict{
	fateLegit: core.VerdictPassVerified, fateInjected: core.VerdictDrop, fateUnprotected: core.VerdictPass,
}

func (pl *pipeline) outbound() {
	pl.verdicts = pl.w.peer.ProcessOutboundBatch(pl.carriers, pl.w.now, pl.verdicts[:0])
	for j, v := range pl.verdicts {
		if i := pl.src[j]; v != wantOut[pl.w.pool.fate[i]] {
			pl.mismatch(i, "outbound", v)
		}
	}
}

// marshal serialises what the peer let through.
func (pl *pipeline) marshal() {
	pl.wire, pl.wireSrc = pl.wire[:0], pl.wireSrc[:0]
	for j, v := range pl.verdicts {
		if v.Dropped() {
			continue
		}
		var b []byte
		var err error
		switch c := pl.carriers[j].(type) {
		case core.V4:
			b, err = c.P.Marshal()
		case core.V6:
			b, err = c.P.Marshal()
		}
		if err != nil {
			pl.bad++
			continue
		}
		pl.wire = append(pl.wire, b)
		pl.wireSrc = append(pl.wireSrc, pl.src[j])
	}
}

// parseEdge parses, at the destination side, the peer's survivors and
// the packets injected past it, and sorts them by edge router.
func (pl *pipeline) parseEdge(lo, hi int) {
	pool := pl.w.pool
	for k := range pl.buckets {
		pl.buckets[k], pl.bktSrc[k] = pl.buckets[k][:0], pl.bktSrc[k][:0]
	}
	add := func(raw []byte, i int32) {
		c, err := parseCarrier(raw, pool.v6[i])
		if err != nil {
			pl.bad++
			return
		}
		k := pool.edge[i]
		pl.buckets[k] = append(pl.buckets[k], c)
		pl.bktSrc[k] = append(pl.bktSrc[k], i)
	}
	for j, b := range pl.wire {
		add(b, pl.wireSrc[j])
	}
	for i := lo; i < hi; i++ {
		if pool.fate[i] == fateInjected {
			add(pool.raw(i), int32(i))
		}
	}
}

func (pl *pipeline) inbound() {
	pool := pl.w.pool
	for k, b := range pl.buckets {
		if len(b) == 0 {
			continue
		}
		pl.inVerd = pl.w.edges[k].ProcessInboundBatch(b, pl.w.now, pl.inVerd[:0])
		for j, v := range pl.inVerd {
			if i := pl.bktSrc[k][j]; v != wantIn[pool.fate[i]] {
				pl.mismatch(i, "inbound", v)
			}
		}
		// One delivered packet per bucket is compared byte for byte with
		// what the generator put on the wire.
		i := pl.bktSrc[k][0]
		raw := pool.raw(int(i))
		var got []byte
		switch c := b[0].(type) {
		case core.V4:
			got = c.P.Payload
		case core.V6:
			got = c.P.Payload
		}
		if !bytes.Equal(got, raw[len(raw)-payloadLen:]) {
			pl.bad++
			if pl.badNote == "" {
				pl.badNote = fmt.Sprintf("packet %d payload changed in flight", i)
			}
		}
	}
}

// routerSpans are the interned span names of the router pipeline.
type routerSpans struct {
	burst, parse, outbound, marshal, inbound, lpm, mac, burstMAC int
}

func newRouterSpans(tr *tracer) routerSpans {
	return routerSpans{
		burst: tr.name("router.burst"), parse: tr.name("packet.parse"),
		outbound: tr.name("core.outbound"), marshal: tr.name("packet.marshal"),
		inbound: tr.name("core.inbound"), lpm: tr.name("replay.lpm"),
		mac: tr.name("replay.cmac"), burstMAC: tr.name("replay.cmac_burst"),
	}
}

// run pushes bursts [from, from+n) of the cycled pool through the
// pipeline and returns the time spent inside it (the generator is not
// in the loop, so that is the whole loop bar the clock reads).
func (pl *pipeline) run(from, n int, tk *track, sp routerSpans) time.Duration {
	poolBursts := pl.w.pool.n() / burstSize
	var busy time.Duration
	for b := from; b < from+n; b++ {
		lo := b % poolBursts * burstSize
		hi := lo + burstSize
		t0 := time.Now()
		tk.begin(sp.burst)
		tk.begin(sp.parse)
		pl.parsePeer(lo, hi)
		tk.end()
		tk.begin(sp.outbound)
		pl.outbound()
		tk.end()
		tk.begin(sp.marshal)
		pl.marshal()
		tk.end()
		tk.begin(sp.parse)
		pl.parseEdge(lo, hi)
		tk.end()
		tk.begin(sp.inbound)
		pl.inbound()
		tk.end()
		tk.end()
		busy += time.Since(t0)
	}
	return busy
}

// replay is the traced run's side measurement of the two leaf layers
// the router calls internally: the burst's addresses through the Pfx2AS
// LPM, and the stamped packets' MAC inputs through per-message and
// burst CMAC, run by key and family the way the pipeline batches them.
type replay struct {
	lookups, macs int64
	flat          []byte
	out           []uint32
	lanes         cmac.BurstScratch
	blocks        cmac.BlockCache
	sink          uint32
}

func (rp *replay) burst(pl *pipeline, tk *track, sp routerSpans) {
	w := pl.w
	tk.begin(sp.lpm)
	for _, c := range pl.carriers {
		a, _ := w.pfx2as.LookupVal(c.SrcAddr())
		b, _ := w.pfx2as.LookupVal(c.DstAddr())
		rp.sink += uint32(a) + uint32(b)
	}
	tk.end()
	rp.lookups += 2 * int64(len(pl.carriers))

	type run struct {
		key    *cmac.CMAC
		v6     bool
		lo, hi int // byte range in flat
	}
	var runs []run
	rp.flat = rp.flat[:0]
	for j, v := range pl.verdicts {
		if v != core.VerdictPassStamped {
			continue
		}
		key := w.keys[w.pool.edge[pl.src[j]]]
		start := len(rp.flat)
		var isV6 bool
		switch c := pl.carriers[j].(type) {
		case core.V4:
			m := c.P.Msg()
			rp.flat = append(rp.flat, m[:]...)
		case core.V6:
			m := c.P.Msg()
			rp.flat, isV6 = append(rp.flat, m[:]...), true
		}
		if n := len(runs); n > 0 && runs[n-1].key == key && runs[n-1].v6 == isV6 {
			runs[n-1].hi = len(rp.flat)
		} else {
			runs = append(runs, run{key, isV6, start, len(rp.flat)})
		}
	}
	tk.begin(sp.mac)
	for _, r := range runs {
		if r.v6 {
			for o := r.lo; o < r.hi; o += packet.MsgLenV6 {
				rp.sink += r.key.Sum32(rp.flat[o : o+packet.MsgLenV6])
			}
		} else {
			for o := r.lo; o < r.hi; o += packet.MsgLenV4 {
				rp.sink += r.key.Sum29(rp.flat[o : o+packet.MsgLenV4])
			}
		}
	}
	tk.end()
	tk.begin(sp.burstMAC)
	for _, r := range runs {
		msgLen := packet.MsgLenV4
		if r.v6 {
			msgLen = packet.MsgLenV6
		}
		n := (r.hi - r.lo) / msgLen
		if cap(rp.out) < n {
			rp.out = make([]uint32, n)
		}
		if r.v6 {
			r.key.SumBurst32(rp.flat[r.lo:r.hi], msgLen, rp.out[:n], &rp.lanes, &rp.blocks)
		} else {
			r.key.SumBurst29(rp.flat[r.lo:r.hi], msgLen, rp.out[:n], &rp.lanes, &rp.blocks)
		}
		rp.macs += int64(n)
	}
	tk.end()
}

// allocProbe runs the pipeline stage by stage over the pool's first
// bursts with the allocator's counter read between stages, and returns
// heap allocations per round-trip packet in the packet codec and in the
// core data plane.
func (w *routerWorld) allocProbe() (codec, dataPlane float64) {
	pl := newPipeline(w)
	bursts := w.pool.n() / burstSize
	if bursts > 256 {
		bursts = 256
	}
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	var codecN, coreN uint64
	for b := 0; b < bursts; b++ {
		lo, hi := b*burstSize, (b+1)*burstSize
		m0 := mallocs()
		pl.parsePeer(lo, hi)
		m1 := mallocs()
		pl.outbound()
		m2 := mallocs()
		pl.marshal()
		m3 := mallocs()
		pl.parseEdge(lo, hi)
		m4 := mallocs()
		pl.inbound()
		m5 := mallocs()
		codecN += m1 - m0 + m3 - m2 + m4 - m3
		coreN += m2 - m1 + m5 - m4
	}
	pkts := float64(bursts * burstSize)
	return float64(codecN) / pkts, float64(coreN) / pkts
}

func runRouterFastpath(cfg runConfig) (*result, error) { return runRouter(fastpathShape, cfg) }
func runRouterHostile(cfg runConfig) (*result, error)  { return runRouter(hostileShape, cfg) }

// setupRepeats is how many times a data-plane workload sets up in one
// run; setup_s is the median.
const setupRepeats = 3

func runRouter(sh routerShape, cfg runConfig) (*result, error) {
	res := newResult()
	warm := cfg.scaled(sh.warmBursts, 4)
	// Set-up is everything before the first measured packet: tables,
	// keys, the packet pool, and one warm-up pass that fills the memos
	// and the CMAC block cache.
	w, setupS, err := medianSetup(cfg.scaled(setupRepeats, 1), func() (*routerWorld, error) {
		w, err := newRouterWorld(sh, cfg)
		if err != nil {
			return nil, err
		}
		newPipeline(w).run(0, warm, nil, routerSpans{})
		return w, nil
	}, func(*routerWorld) {})
	if err != nil {
		return nil, err
	}
	res.put("setup_s", setupS)
	base := w.stats()

	roundBursts := cfg.scaled(sh.roundBursts, 8)
	sliceBursts := cfg.scaled(sh.sliceBursts, 4)
	pl := newPipeline(w)
	tk := cfg.tracer.newTrack()
	sp := newRouterSpans(cfg.tracer)
	var rp replay
	// round pushes one round through the pipeline and returns the rate
	// of each of its slices. With a track it records spans, and replays
	// one burst in sampleEvery through lpm and cmac between bursts,
	// outside the pipeline's clock and its spans.
	round := func(tk *track) (sliceMpps []float64) {
		for b := 0; b < roundBursts; b += sliceBursts {
			n := sliceBursts
			if b+n > roundBursts {
				n = roundBursts - b
			}
			var busy time.Duration
			if tk == nil {
				busy = pl.run(b, n, nil, sp)
			} else {
				for s := b; s < b+n; s++ {
					busy += pl.run(s, 1, tk, sp)
					if s%sampleEvery == 0 {
						rp.burst(pl, tk, sp)
					}
				}
			}
			sliceMpps = append(sliceMpps, float64(n*burstSize)/busy.Seconds()/1e6)
		}
		return sliceMpps
	}

	// The traced run first measures one round with the tracer off, so
	// its overhead is a ratio of two measurements of the same process.
	var refMpps float64
	if cfg.traced() {
		refMpps = median(round(nil))
		base = w.stats()
	}

	meter := startProcMeter()
	var sliceMpps, roundS []float64
	for begin := time.Now(); cfg.anotherRound(begin, roundS); {
		roundStart := time.Now()
		sliceMpps = append(sliceMpps, round(tk)...)
		roundS = append(roundS, time.Since(roundStart).Seconds())
	}
	rounds := len(roundS)
	pkts := int64(rounds * roundBursts * burstSize)
	cpu, _ := meter.putProc(res)

	// Oracle: per-packet verdicts were compared in the loop; the
	// routers' own counters must add up to the generator's counts too.
	res.violate(pkts, pl.bad, "%s", pl.badNote)
	got := w.stats()
	passes := float64(pkts) / float64(w.pool.n())
	expect := func(name string, got, base uint64, perPass int64) {
		want := float64(perPass) * passes
		res.check(float64(got-base) == want, "%s: routers counted %d, oracle %v", name, got-base, want)
	}
	// A round that is not a whole number of pool passes has no exact
	// expectation; every shape's round is a multiple of its pool.
	if roundBursts%(w.pool.n()/burstSize) == 0 {
		expect("out_stamped", got.OutStamped, base.OutStamped, w.pool.want[fateLegit])
		expect("out_dropped", got.OutDropped, base.OutDropped, w.pool.want[fateSpoofed])
		expect("in_verified", got.InVerified, base.InVerified, w.pool.want[fateLegit])
		expect("in_verify_fail", got.InVerifyFail, base.InVerifyFail, w.pool.want[fateInjected])
		expect("macs_computed", got.MACsComputed, base.MACsComputed, w.pool.wantMACs)
	}

	res.put("pkt_mpps", median(sliceMpps))
	res.put("total_s", median(roundS))
	res.put("cpu_us_per_pkt", cpu.Seconds()*1e6/float64(pkts))
	cfg.logf("  %d rounds of %d packets, %d slices; paper target 8 Mpps/core, measured %.2f Mpps on one core (%.0f%%)",
		rounds, roundBursts*burstSize, len(sliceMpps), median(sliceMpps), median(sliceMpps)/8*100)

	if !cfg.traced() {
		return res, nil
	}

	// Per-layer ledger. Counts are per round so they repeat exactly
	// whatever the number of rounds the time budget allowed.
	perRound := func(v, b uint64) float64 { return float64(v-b) / float64(rounds) }
	res.put("core.out_stamped", perRound(got.OutStamped, base.OutStamped))
	res.put("core.out_dropped", perRound(got.OutDropped, base.OutDropped))
	res.put("core.in_verified", perRound(got.InVerified, base.InVerified))
	res.put("core.in_verify_fail", perRound(got.InVerifyFail, base.InVerifyFail))
	res.put("core.macs_per_pkt", float64(got.MACsComputed-base.MACsComputed)/float64(pkts))

	agg := cfg.tracer.totals()
	fp := float64(pkts)
	parse, out, mar, in, burst := agg["packet.parse"], agg["core.outbound"], agg["packet.marshal"], agg["core.inbound"], agg["router.burst"]
	// Per-call costs: a legit packet is parsed twice and marshalled once.
	outN, inN := float64(got.OutProcessed-base.OutProcessed), float64(got.InProcessed-base.InProcessed)
	res.put("packet.parse_ns", float64(parse.Total)/(outN+inN))
	res.put("packet.marshal_ns", float64(mar.Total)/(outN-float64(got.OutDropped-base.OutDropped)))
	res.put("core.outbound_ns", float64(out.Total)/outN)
	res.put("core.inbound_ns", float64(in.Total)/inN)
	res.put("router.sum_ratio", float64(parse.Total+out.Total+mar.Total+in.Total)/float64(burst.Total))
	lookupNS := float64(agg["replay.lpm"].Total) / float64(rp.lookups)
	burstMACNS := float64(agg["replay.cmac_burst"].Total) / float64(rp.macs)
	res.put("lpm.lookup_ns", lookupNS)
	res.put("cmac.mac_ns", float64(agg["replay.cmac"].Total)/float64(rp.macs))
	res.put("cmac.burst_mac_ns", burstMACNS)
	macsPerPkt := float64(got.MACsComputed-base.MACsComputed) / fp
	res.put("core.self_ns", float64(out.Total+in.Total)/fp-2*lookupNS-macsPerPkt*burstMACNS)
	codec, dataPlane := w.allocProbe()
	res.put("packet.allocs_per_pkt", codec)
	res.put("core.allocs_per_pkt", dataPlane)
	res.put("trace.overhead_ratio", refMpps/median(sliceMpps))
	return res, nil
}
