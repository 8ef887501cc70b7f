package core

import (
	"sync"
	"time"

	"discs/internal/cmac"
	"discs/internal/packet"
	"discs/internal/topology"
)

// burstPipeline holds the per-worker state of the fused burst data
// path: CMAC lane scratch, the first-block cache, the stamp-key memo
// and the packed message/verdict staging buffers. A pipeline is
// not safe for concurrent use: the batch entry points borrow one from
// a shared pool. State is keyed by table and key *pointers*, so one
// pipeline may serve any number of routers in turn; snapshot swaps
// (key rotation, table rebuilds) invalidate the caches naturally
// because the new snapshot's pointers no longer match.
//
// Each packet gets the same Table-I decision as ProcessOutbound and
// ProcessInbound (decideOut, decideIn and applyIn), so verdict
// vectors, packet bytes (including the order of random scrub-bit
// draws) and counter totals are bit-for-bit those of per-packet
// processing against a frozen snapshot. Only the MAC schedule differs:
// the burst's MACs are staged and computed together, eight lanes at a
// time whatever their keys (cmac.SumBurstKeys32), with one snapshot
// load, one counter flush and a memoized stamp key per burst.
type burstPipeline struct {
	memo   tupleMemo
	blocks cmac.BlockCache
	lanes  cmac.BurstScratch

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
func (ms *macStage) sum(bp *burstPipeline, v6 bool) []uint32 {
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

// pipelinePool backs the batch entry points. Pipelines are keyed by
// nothing — caches tag entries with key/table pointers — so reuse
// across routers is safe and keeps the caches warm.
var pipelinePool = sync.Pool{New: func() any { return new(burstPipeline) }}

// outbound runs the fused outbound path over pkts against one coherent
// table snapshot, appending one verdict per packet to dst (pass a
// reused buffer to stay allocation-free) and returning it.
func (bp *burstPipeline) outbound(r *BorderRouter, pkts []MarkCarrier, now time.Time, dst []Verdict) []Verdict {
	st := r.Tables.loadOut()
	nowN := now.UnixNano()
	base := len(dst)
	var d routerDeltas
	if st.src.idleAt(nowN) && st.dst.idleAt(nowN) {
		d[ctrOutProcessed] = uint64(len(pkts))
		for range pkts {
			dst = append(dst, VerdictPass)
		}
		d.flush(r.m)
		return bp.sampleBurst(r, pkts, dst, base)
	}
	bp.memo.beginBurst()
	for i, p := range pkts {
		p4, p6 := p.unwrap()
		v, key := r.decideOut(&st, &bp.memo, p4, p6, nowN, &d)
		switch {
		case key == nil:
		case p6 != nil:
			bp.v6.flat = p6.AppendMsg(bp.v6.flat)
			bp.v6.add(key, i)
		default:
			bp.v4.flat = p4.AppendMsg(bp.v4.flat)
			bp.v4.add(key, i)
		}
		// A staged packet's VerdictPassStamped is a placeholder;
		// stampStaged downgrades IPv6 stamp failures.
		dst = append(dst, v)
	}
	bp.stampStaged(pkts, dst[base:], &d)
	d.flush(r.m)
	return bp.sampleBurst(r, pkts, dst, base)
}

// stampStaged computes the burst's staged marks and applies them to
// the packets.
func (bp *burstPipeline) stampStaged(pkts []MarkCarrier, vd []Verdict, d *routerDeltas) {
	marks := bp.v4.sum(bp, false)
	for j, i := range bp.v4.idx {
		pkts[i].(V4).P.SetMark(marks[j])
		d[ctrMACsComputed]++
		d[ctrOutStamped]++
	}
	marks = bp.v6.sum(bp, true)
	for j, i := range bp.v6.idx {
		d[ctrMACsComputed]++
		if err := pkts[i].(V6).P.StampV6(marks[j]); err != nil {
			// Packet cannot carry a mark: pass unstamped, as
			// ProcessOutbound does (the MAC was still computed).
			vd[i] = VerdictPass
			continue
		}
		d[ctrOutStamped]++
	}
	bp.v4.reset()
	bp.v6.reset()
}

// inbound is the inbound counterpart of outbound: decide and stage the
// CMAC work in pass 1, then apply erasures, alarms and drops in strict
// packet order in pass 2 so every observable side effect (RNG draw
// order, OnAlarm sequence, counters) matches per-packet processing.
func (bp *burstPipeline) inbound(r *BorderRouter, pkts []MarkCarrier, now time.Time, dst []Verdict) []Verdict {
	st := r.Tables.loadIn()
	nowN := now.UnixNano()
	base := len(dst)
	var d routerDeltas
	if st.src.idleAt(nowN) && st.dst.idleAt(nowN) {
		d[ctrInProcessed] = uint64(len(pkts))
		for range pkts {
			dst = append(dst, VerdictPass)
		}
		d.flush(r.m)
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

	// Pass 1: the decision, and the pending packets' MACs staged.
	for i, p := range pkts {
		dst = append(dst, VerdictPass)
		p4, p6 := p.unwrap()
		act, srcAS, vk := r.decideIn(&st, p4, p6, nowN, &d)
		bp.action[i], bp.srcAS[i], bp.vks[i] = act, srcAS, vk
		switch {
		case act != actPending:
		case p6 != nil:
			bp.v6.flat = p6.AppendMsg(bp.v6.flat)
			bp.v6.add(vk.current, i)
		default:
			bp.v4.flat = p4.AppendMsg(bp.v4.flat)
			bp.v4.add(vk.current, i)
		}
	}
	bp.verifyStaged(pkts, &d)

	// Pass 2: apply outcomes in packet order.
	vd := dst[base:]
	for i, p := range pkts {
		if act := bp.action[i]; act != actPass {
			vd[i] = r.applyIn(p, act, bp.srcAS[i], nowN, &d)
		}
		bp.vks[i] = nil // don't pin retired key snapshots
	}
	d.flush(r.m)
	return bp.sampleBurst(r, pkts, dst, base)
}

// verifyStaged computes the burst's expected marks and resolves each
// pending packet to actValid/actInvalid, retrying with the previous
// key during a rekey window exactly as peerKeys.verify does.
func (bp *burstPipeline) verifyStaged(pkts []MarkCarrier, d *routerDeltas) {
	marks := bp.v4.sum(bp, false)
	for j, i := range bp.v4.idx {
		d[ctrMACsComputed]++
		p := pkts[i].(V4).P
		want := p.Mark() & (1<<29 - 1)
		ok := marks[j] == want
		if prev := bp.vks[i].previous; !ok && prev != nil {
			d[ctrMACsComputed]++
			m := p.Msg()
			ok = prev.Sum29(m[:]) == want
		}
		bp.resolve(i, ok)
	}
	marks = bp.v6.sum(bp, true)
	for j, i := range bp.v6.idx {
		d[ctrMACsComputed]++
		p := pkts[i].(V6).P
		want, _ := p.MarkV6()
		ok := marks[j] == want
		if prev := bp.vks[i].previous; !ok && prev != nil {
			d[ctrMACsComputed]++
			m := p.Msg()
			ok = prev.Sum32(m[:]) == want
		}
		bp.resolve(i, ok)
	}
	bp.v4.reset()
	bp.v6.reset()
}

func (bp *burstPipeline) resolve(i int, valid bool) {
	if valid {
		bp.action[i] = actValid
	} else {
		bp.action[i] = actInvalid
	}
}

// sampleBurst emits the sampled-trace events for a finished burst in
// packet order; with tracing off it is a single nil check, and the
// emitted sequence matches per-packet processing (same tick stream).
func (bp *burstPipeline) sampleBurst(r *BorderRouter, pkts []MarkCarrier, dst []Verdict, base int) []Verdict {
	if r.trace != nil {
		for i, p := range pkts {
			r.maybeSample(p, dst[base+i])
		}
	}
	return dst
}
