package core

import (
	"net/netip"
	"sync"
	"time"

	"discs/internal/cmac"
	"discs/internal/packet"
	"discs/internal/topology"
)

// BurstPipeline holds the per-worker state of the fused burst data
// path: CMAC lane scratch, the first-block cache, the tuple-generation
// memos and the packed message/verdict staging buffers. A pipeline is
// not safe for concurrent use — give each forwarding goroutine its own
// (NewBurstPipeline) or let the batch entry points borrow one from the
// shared pool. State is keyed by table and key *pointers*, so one
// pipeline may serve any number of routers in turn; snapshot swaps
// (key rotation, table rebuilds) invalidate the caches naturally
// because the new snapshot's pointers no longer match.
//
// The fused paths are observationally identical to per-packet
// processing: verdict vectors, packet bytes (including the order of
// random scrub-bit draws) and counter totals are bit-for-bit the same
// as calling ProcessOutbound/ProcessInbound in a loop against a frozen
// snapshot. The difference is purely mechanical: one snapshot load and
// one counter flush per burst, memoized Pfx2AS and key lookups across
// packets with shared flow structure, and the burst's MACs computed
// together, eight lanes at a time whatever their keys
// (cmac.SumBurstKeys32).
type BurstPipeline struct {
	memo   tupleMemo
	blocks cmac.BlockCache
	lanes  cmac.BurstScratch
	s      cmac.Scratch

	// The burst's CMAC work, staged per address family.
	v4, v6 macStage

	// Deferred inbound state, indexed by packet position.
	action []uint8
	srcAS  []topology.ASN
	vks    []*peerKeys
}

// macStage packs one address family's MAC inputs for a burst: message
// j (packet.MsgLenV4 or MsgLenV6 bytes at flat[j*msgLen:]) is MACed
// under keys[j] for packet idx[j].
type macStage struct {
	flat  []byte
	keys  []*cmac.CMAC
	idx   []int
	marks []uint32
}

func (ms *macStage) add(key *cmac.CMAC, i int) {
	ms.keys = append(ms.keys, key)
	ms.idx = append(ms.idx, i)
}

// sum computes the staged messages' marks: 32-bit for IPv6, the 29-bit
// IPv4 truncation otherwise.
func (ms *macStage) sum(bp *BurstPipeline, v6 bool) []uint32 {
	n := len(ms.idx)
	if cap(ms.marks) < n {
		ms.marks = make([]uint32, n)
	}
	marks := ms.marks[:n]
	if v6 {
		cmac.SumBurstKeys32(ms.keys, ms.flat, packet.MsgLenV6, marks, &bp.lanes, &bp.blocks)
	} else {
		cmac.SumBurstKeys29(ms.keys, ms.flat, packet.MsgLenV4, marks, &bp.lanes, &bp.blocks)
	}
	return marks
}

// reset empties the stage without pinning retired keys.
func (ms *macStage) reset() {
	clear(ms.keys)
	ms.flat, ms.keys, ms.idx = ms.flat[:0], ms.keys[:0], ms.idx[:0]
}

// NewBurstPipeline creates a pipeline for a dedicated forwarding
// worker. Callers that process bursts from a single goroutine (a
// netsim border, a pinned line-card loop) should hold one of these and
// call Outbound/Inbound directly; the Process*Batch entry points
// otherwise borrow an equivalent pipeline from a shared pool.
func NewBurstPipeline() *BurstPipeline {
	return &BurstPipeline{}
}

// pipelinePool backs the batch entry points. Pipelines are keyed by
// nothing — caches tag entries with key/table pointers — so reuse
// across routers is safe and keeps the caches warm.
var pipelinePool = sync.Pool{New: func() any { return NewBurstPipeline() }}

// Inbound deferred actions (pass 1 classifies, pass 2 applies in
// packet order so the scrub-bit RNG sequence matches serial exactly).
const (
	actPass      uint8 = iota // final verdict VerdictPass, nothing deferred
	actSerial                 // unknown carrier: full serial path in pass 2
	actEraseOnly              // grace interval: erase, no enforcement
	actPending                // CMAC scheduled, compare outstanding
	actValid                  // verified: erase + VerdictPassVerified
	actInvalid                // failed: drop or alarm
)

// Outbound runs the fused outbound path over pkts against one coherent
// table snapshot, appending one verdict per packet to dst (pass a
// reused buffer to stay allocation-free) and returning it.
func (bp *BurstPipeline) Outbound(r *BorderRouter, pkts []MarkCarrier, now time.Time, dst []Verdict) []Verdict {
	st := r.Tables.loadOut()
	nowN := now.UnixNano()
	base := len(dst)
	var d routerDeltas
	if st.src.idleAt(nowN) && st.dst.idleAt(nowN) {
		d.outProcessed = uint64(len(pkts))
		for range pkts {
			dst = append(dst, VerdictPass)
		}
		d.flush(&r.m)
		return bp.sampleBurst(r, pkts, dst, base)
	}
	bp.memo.beginBurst()
	for i, p := range pkts {
		var src, dstA netip.Addr
		var p4 *packet.IPv4
		var p6 *packet.IPv6
		switch w := p.(type) {
		case V4:
			src, dstA, p4 = w.P.Src, w.P.Dst, w.P
		case V6:
			src, dstA, p6 = w.P.Src, w.P.Dst, w.P
		default:
			// Unknown carrier: the serial path, which stamps it now.
			// Outbound has no order-dependent side effect a staged
			// packet could see.
			dst = append(dst, r.processOutbound(&st, p, nowN, &d, &bp.s))
			continue
		}
		d.outProcessed++
		tup := r.Tables.genOutTupleMemo(&st, &bp.memo, src, dstA, nowN)
		if tup.Drop {
			d.outDropped++
			dst = append(dst, VerdictDrop)
			continue
		}
		if !tup.Stamp || tup.Key == nil {
			dst = append(dst, VerdictPass)
			continue
		}
		if p6 != nil && r.ExternalMTU > 0 && p6.WireLen()+p6.StampOverheadV6() > r.ExternalMTU {
			d.outTooBig++
			if r.OnPacketTooBig != nil {
				if icmp, err := packet.NewICMPv6PacketTooBig(r.RouterAddr, p6, uint32(r.ExternalMTU-8)); err == nil {
					r.OnPacketTooBig(icmp)
				}
			}
			dst = append(dst, VerdictDrop)
			continue
		}
		if p6 != nil {
			bp.v6.flat = p6.AppendMsg(bp.v6.flat)
			bp.v6.add(tup.Key, i)
		} else {
			bp.v4.flat = p4.AppendMsg(bp.v4.flat)
			bp.v4.add(tup.Key, i)
		}
		// Placeholder; stampStaged downgrades IPv6 stamp failures.
		dst = append(dst, VerdictPassStamped)
	}
	bp.stampStaged(pkts, dst[base:], &d)
	d.flush(&r.m)
	return bp.sampleBurst(r, pkts, dst, base)
}

// stampStaged computes the burst's staged marks and applies them to
// the packets.
func (bp *BurstPipeline) stampStaged(pkts []MarkCarrier, vd []Verdict, d *routerDeltas) {
	marks := bp.v4.sum(bp, false)
	for j, i := range bp.v4.idx {
		pkts[i].(V4).P.SetMark(marks[j])
		d.macsComputed++
		d.outStamped++
	}
	marks = bp.v6.sum(bp, true)
	for j, i := range bp.v6.idx {
		d.macsComputed++
		if err := pkts[i].(V6).P.StampV6(marks[j]); err != nil {
			// Packet cannot carry a mark: pass unstamped, mirroring
			// the serial path (the MAC was still computed).
			vd[i] = VerdictPass
			continue
		}
		d.outStamped++
	}
	bp.v4.reset()
	bp.v6.reset()
}

// Inbound is the inbound counterpart of Outbound: classify and batch
// the CMAC work in pass 1, then apply erasures, alarms and drops in
// strict packet order in pass 2 so every observable side effect (RNG
// draw order, OnAlarm sequence, counters) matches serial processing.
func (bp *BurstPipeline) Inbound(r *BorderRouter, pkts []MarkCarrier, now time.Time, dst []Verdict) []Verdict {
	st := r.Tables.loadIn()
	nowN := now.UnixNano()
	base := len(dst)
	var d routerDeltas
	if st.src.idleAt(nowN) && st.dst.idleAt(nowN) {
		d.inProcessed = uint64(len(pkts))
		for range pkts {
			dst = append(dst, VerdictPass)
		}
		d.flush(&r.m)
		return bp.sampleBurst(r, pkts, dst, base)
	}
	n := len(pkts)
	if cap(bp.action) < n {
		bp.action = make([]uint8, n)
		bp.srcAS = make([]topology.ASN, n)
		bp.vks = make([]*peerKeys, n)
	}
	bp.action = bp.action[:n]
	bp.srcAS = bp.srcAS[:n]
	bp.vks = bp.vks[:n]
	bp.memo.beginBurst()

	// Pass 1: tuple generation and CMAC scheduling.
	for i, p := range pkts {
		dst = append(dst, VerdictPass)
		var src, dstA netip.Addr
		var p4 *packet.IPv4
		var p6 *packet.IPv6
		switch w := p.(type) {
		case V4:
			src, dstA, p4 = w.P.Src, w.P.Dst, w.P
		case V6:
			src, dstA, p6 = w.P.Src, w.P.Dst, w.P
		default:
			bp.action[i] = actSerial
			continue
		}
		d.inProcessed++
		tup := r.Tables.genInTupleMemo(&st, &bp.memo, src, dstA, nowN)
		switch {
		case !tup.Verify:
			bp.action[i] = actPass
			continue
		case tup.EraseOnly:
			bp.action[i] = actEraseOnly
			continue
		case !tup.SrcKnown:
			bp.action[i] = actPass
			continue
		}
		vk := st.keys.verifyKeys(tup.SrcAS)
		if vk == nil {
			bp.action[i] = actPass
			continue
		}
		bp.srcAS[i], bp.vks[i] = tup.SrcAS, vk
		if p6 != nil {
			if _, ok := p6.MarkV6(); !ok {
				// Missing DISCS option: fails without computing a MAC.
				bp.action[i] = actInvalid
				continue
			}
			bp.v6.flat = p6.AppendMsg(bp.v6.flat)
			bp.v6.add(vk.current, i)
		} else {
			bp.v4.flat = p4.AppendMsg(bp.v4.flat)
			bp.v4.add(vk.current, i)
		}
		bp.action[i] = actPending
	}
	bp.verifyStaged(pkts, &d)

	// Pass 2: apply outcomes in packet order.
	vd := dst[base:]
	for i, p := range pkts {
		switch bp.action[i] {
		case actPass:
			// vd[i] is already VerdictPass.
		case actSerial:
			vd[i] = r.processInbound(&st, p, nowN, &d, &bp.s)
		case actEraseOnly:
			p.Erase(r.randomBits())
			d.inErasedOnly++
		case actValid:
			p.Erase(r.randomBits())
			d.inVerified++
			vd[i] = VerdictPassVerified
		case actInvalid:
			d.inVerifyFail++
			if r.alarmMode.Load() {
				d.inAlarmed++
				if r.OnAlarm != nil {
					r.OnAlarm(AlarmSample{
						Src:   p.SrcAddr(),
						Dst:   p.DstAddr(),
						SrcAS: bp.srcAS[i],
						When:  time.Unix(0, nowN).UTC(),
					})
				}
				p.Erase(r.randomBits())
				vd[i] = VerdictPassAlarm
			} else {
				d.inDropped++
				vd[i] = VerdictDrop
			}
		}
		bp.vks[i] = nil // don't pin retired key snapshots
	}
	d.flush(&r.m)
	return bp.sampleBurst(r, pkts, dst, base)
}

// verifyStaged computes the burst's expected marks and resolves each
// pending packet to actValid/actInvalid, retrying with the previous
// key during a rekey window exactly as the serial path does.
func (bp *BurstPipeline) verifyStaged(pkts []MarkCarrier, d *routerDeltas) {
	marks := bp.v4.sum(bp, false)
	for j, i := range bp.v4.idx {
		d.macsComputed++
		p := pkts[i].(V4).P
		want := p.Mark() & (1<<29 - 1)
		ok := marks[j] == want
		if prev := bp.vks[i].previous; !ok && prev != nil {
			d.macsComputed++
			m := p.Msg()
			ok = prev.Sum29Cached(m[:], &bp.s, &bp.blocks) == want
		}
		bp.resolve(i, ok)
	}
	marks = bp.v6.sum(bp, true)
	for j, i := range bp.v6.idx {
		d.macsComputed++
		p := pkts[i].(V6).P
		want, _ := p.MarkV6()
		ok := marks[j] == want
		if prev := bp.vks[i].previous; !ok && prev != nil {
			d.macsComputed++
			m := p.Msg()
			ok = prev.Sum32Cached(m[:], &bp.s, &bp.blocks) == want
		}
		bp.resolve(i, ok)
	}
	bp.v4.reset()
	bp.v6.reset()
}

func (bp *BurstPipeline) resolve(i int, valid bool) {
	if valid {
		bp.action[i] = actValid
	} else {
		bp.action[i] = actInvalid
	}
}

// sampleBurst emits the sampled-trace events for a finished burst in
// packet order; with tracing off it is a single nil check, and the
// emitted sequence matches per-packet processing (same tick stream).
func (bp *BurstPipeline) sampleBurst(r *BorderRouter, pkts []MarkCarrier, dst []Verdict, base int) []Verdict {
	if r.trace != nil {
		for i, p := range pkts {
			r.maybeSample(p, dst[base+i])
		}
	}
	return dst
}
