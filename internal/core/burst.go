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
// one counter flush per burst, memoized LPM/key lookups across packets
// with shared flow structure, and CMAC block scheduling that keeps the
// AES unit full (cmac.SumBurst) instead of stalling per message.
type BurstPipeline struct {
	memo   tupleMemo
	blocks cmac.BlockCache
	lanes  cmac.BurstScratch
	s      cmac.Scratch

	// Staging for the current same-(key,family) run of CMAC work.
	flat  []byte   // packed mark messages
	idx   []int    // packet index per message
	marks []uint32 // SumBurst output

	// Deferred inbound state, indexed by packet position.
	action []uint8
	srcAS  []topology.ASN
	vks    []*peerKeys
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
	bp.flat, bp.idx = bp.flat[:0], bp.idx[:0]
	var runKey *cmac.CMAC
	var runV6 bool
	for i, p := range pkts {
		var src, dstA netip.Addr
		var isV6 bool
		switch w := p.(type) {
		case V4:
			src, dstA = w.P.Src, w.P.Dst
		case V6:
			src, dstA, isV6 = w.P.Src, w.P.Dst, true
		default:
			// Unknown carrier: flush staged work, take the serial path.
			bp.flushOut(r, runKey, runV6, pkts, dst[base:], &d)
			runKey = nil
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
		if isV6 && r.ExternalMTU > 0 {
			w := p.(V6)
			if w.P.WireLen()+w.P.StampOverheadV6() > r.ExternalMTU {
				d.outTooBig++
				if r.OnPacketTooBig != nil {
					if icmp, err := packet.NewICMPv6PacketTooBig(r.RouterAddr, w.P, uint32(r.ExternalMTU-8)); err == nil {
						r.OnPacketTooBig(icmp)
					}
				}
				dst = append(dst, VerdictDrop)
				continue
			}
		}
		if tup.Key != runKey || isV6 != runV6 {
			bp.flushOut(r, runKey, runV6, pkts, dst[base:], &d)
			runKey, runV6 = tup.Key, isV6
		}
		if isV6 {
			m := p.(V6).P.Msg()
			bp.flat = append(bp.flat, m[:]...)
		} else {
			m := p.(V4).P.Msg()
			bp.flat = append(bp.flat, m[:]...)
		}
		bp.idx = append(bp.idx, i)
		// Placeholder; flushOut downgrades IPv6 stamp failures.
		dst = append(dst, VerdictPassStamped)
	}
	bp.flushOut(r, runKey, runV6, pkts, dst[base:], &d)
	d.flush(&r.m)
	return bp.sampleBurst(r, pkts, dst, base)
}

// flushOut computes the staged run's marks with one interleaved
// SumBurst call and applies them to the packets.
func (bp *BurstPipeline) flushOut(r *BorderRouter, key *cmac.CMAC, isV6 bool, pkts []MarkCarrier, vd []Verdict, d *routerDeltas) {
	n := len(bp.idx)
	if n == 0 {
		return
	}
	if cap(bp.marks) < n {
		bp.marks = make([]uint32, n)
	}
	marks := bp.marks[:n]
	if isV6 {
		key.SumBurst32(bp.flat, packet.MsgLenV6, marks, &bp.lanes, &bp.blocks)
		for j, i := range bp.idx {
			d.macsComputed++
			if err := pkts[i].(V6).P.StampV6(marks[j]); err != nil {
				// Packet cannot carry a mark: pass unstamped, mirroring
				// the serial path (the MAC was still computed).
				vd[i] = VerdictPass
				continue
			}
			d.outStamped++
		}
	} else {
		key.SumBurst29(bp.flat, packet.MsgLenV4, marks, &bp.lanes, &bp.blocks)
		for j, i := range bp.idx {
			pkts[i].(V4).P.SetMark(marks[j])
			d.macsComputed++
			d.outStamped++
		}
	}
	bp.flat, bp.idx = bp.flat[:0], bp.idx[:0]
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
	bp.flat, bp.idx = bp.flat[:0], bp.idx[:0]
	var runKey *cmac.CMAC
	var runV6 bool

	// Pass 1: tuple generation and CMAC scheduling.
	for i, p := range pkts {
		dst = append(dst, VerdictPass)
		var src, dstA netip.Addr
		var isV6 bool
		switch w := p.(type) {
		case V4:
			src, dstA = w.P.Src, w.P.Dst
		case V6:
			src, dstA, isV6 = w.P.Src, w.P.Dst, true
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
		if isV6 {
			if _, ok := p.(V6).P.MarkV6(); !ok {
				// Missing DISCS option: fails without computing a MAC.
				bp.action[i] = actInvalid
				continue
			}
		}
		if vk.current != runKey || isV6 != runV6 {
			bp.flushIn(runKey, runV6, pkts, &d)
			runKey, runV6 = vk.current, isV6
		}
		if isV6 {
			m := p.(V6).P.Msg()
			bp.flat = append(bp.flat, m[:]...)
		} else {
			m := p.(V4).P.Msg()
			bp.flat = append(bp.flat, m[:]...)
		}
		bp.idx = append(bp.idx, i)
		bp.action[i] = actPending
	}
	bp.flushIn(runKey, runV6, pkts, &d)

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

// flushIn computes the staged run's expected marks and resolves each
// pending packet to actValid/actInvalid, retrying with the previous
// key during a rekey window exactly as the serial path does.
func (bp *BurstPipeline) flushIn(key *cmac.CMAC, isV6 bool, pkts []MarkCarrier, d *routerDeltas) {
	n := len(bp.idx)
	if n == 0 {
		return
	}
	if cap(bp.marks) < n {
		bp.marks = make([]uint32, n)
	}
	marks := bp.marks[:n]
	if isV6 {
		key.SumBurst32(bp.flat, packet.MsgLenV6, marks, &bp.lanes, &bp.blocks)
	} else {
		key.SumBurst29(bp.flat, packet.MsgLenV4, marks, &bp.lanes, &bp.blocks)
	}
	for j, i := range bp.idx {
		d.macsComputed++
		var ok bool
		if isV6 {
			w := pkts[i].(V6)
			want, _ := w.P.MarkV6()
			ok = marks[j] == want
			if !ok {
				if prev := bp.vks[i].previous; prev != nil {
					d.macsComputed++
					m := w.P.Msg()
					ok = prev.Sum32Cached(m[:], &bp.s, &bp.blocks) == want
				}
			}
		} else {
			w := pkts[i].(V4)
			want := w.P.Mark() & (1<<29 - 1)
			ok = marks[j] == want
			if !ok {
				if prev := bp.vks[i].previous; prev != nil {
					d.macsComputed++
					m := w.P.Msg()
					ok = prev.Sum29Cached(m[:], &bp.s, &bp.blocks) == want
				}
			}
		}
		if ok {
			bp.action[i] = actValid
		} else {
			bp.action[i] = actInvalid
		}
	}
	bp.flat, bp.idx = bp.flat[:0], bp.idx[:0]
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
