package core

import (
	"net/netip"
	"sync/atomic"
	"time"

	"discs/internal/cmac"
	"discs/internal/obs"
	"discs/internal/packet"
	"discs/internal/topology"
)

// Verdict is the outcome of processing one packet through the DISCS
// data plane (Figure 3).
type Verdict int

const (
	// VerdictPass: the packet proceeds to the forwarding engine.
	VerdictPass Verdict = iota
	// VerdictPassStamped: outbound packet passed and a mark was stamped.
	VerdictPassStamped
	// VerdictPassVerified: inbound packet passed with a valid mark,
	// which was erased.
	VerdictPassVerified
	// VerdictPassAlarm: the packet was identified as spoofed but passed
	// because the router is in alarm mode; a sample was reported.
	VerdictPassAlarm
	// VerdictDrop: the packet was identified as spoofed and dropped.
	VerdictDrop
)

func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictPassStamped:
		return "pass+stamped"
	case VerdictPassVerified:
		return "pass+verified"
	case VerdictPassAlarm:
		return "pass+alarm"
	case VerdictDrop:
		return "drop"
	}
	return "verdict?"
}

// Dropped reports whether the verdict removes the packet.
func (v Verdict) Dropped() bool { return v == VerdictDrop }

// Metric names (relative to the router's scope) under which the
// data-plane counters are registered; a router scoped "as7." publishes
// e.g. "as7.router.out_processed". The names read outside core are
// exported, so consumers of registry snapshots do not hard-code them.
const (
	MetricRouterOutProcessed = "router.out_processed"
	MetricRouterOutDropped   = "router.out_dropped"
	MetricRouterOutStamped   = "router.out_stamped"
	MetricRouterInProcessed  = "router.in_processed"
	MetricRouterInVerified   = "router.in_verified"
	MetricRouterInVerifyFail = "router.in_verify_fail"
	MetricRouterInDropped    = "router.in_dropped"
	MetricRouterInErasedOnly = "router.in_erased_only"
	metricRouterInAlarmed    = "router.in_alarmed"
	metricRouterOutTooBig    = "router.out_too_big"
	MetricRouterMACsComputed = "router.macs_computed"
	MetricRouterICMPScrubbed = "router.icmp_scrubbed"
)

// RouterStats is the typed view of one router's data-plane counters;
// the fields mirror the resource discussion of §VI-C2. The backing
// counters live in an obs.Registry and are updated via sharded
// atomics, so the router's processing methods may run concurrently
// from many forwarding goroutines (a line card per goroutine); read a
// consistent view with BorderRouter.Stats. MACsComputed counts actual
// CMAC computations: a rekey-window verification that tries both keys
// counts 2, a failed IPv6 stamp still counts its computed MAC.
type RouterStats struct {
	OutProcessed uint64
	OutDropped   uint64 // DP/SP filter drops
	OutStamped   uint64
	InProcessed  uint64
	InVerified   uint64 // valid mark, erased
	InVerifyFail uint64 // invalid mark
	InDropped    uint64
	InErasedOnly uint64 // grace-interval erasures
	InAlarmed    uint64 // spoofed but passed in alarm mode
	OutTooBig    uint64 // IPv6 packets refused because stamping exceeds the MTU
	MACsComputed uint64 // crypto operations (stamp + verify attempts)
	ICMPScrubbed uint64
}

// Add returns the field-wise sum of two stats snapshots.
func (s RouterStats) Add(o RouterStats) RouterStats {
	return RouterStats{
		OutProcessed: s.OutProcessed + o.OutProcessed,
		OutDropped:   s.OutDropped + o.OutDropped,
		OutStamped:   s.OutStamped + o.OutStamped,
		InProcessed:  s.InProcessed + o.InProcessed,
		InVerified:   s.InVerified + o.InVerified,
		InVerifyFail: s.InVerifyFail + o.InVerifyFail,
		InDropped:    s.InDropped + o.InDropped,
		InErasedOnly: s.InErasedOnly + o.InErasedOnly,
		InAlarmed:    s.InAlarmed + o.InAlarmed,
		OutTooBig:    s.OutTooBig + o.OutTooBig,
		MACsComputed: s.MACsComputed + o.MACsComputed,
		ICMPScrubbed: s.ICMPScrubbed + o.ICMPScrubbed,
	}
}

// Router counters, in the order of the router's obs.CounterBlock:
// routerDeltas is indexed by them and flushed into the block in one
// call.
const (
	ctrOutProcessed = iota
	ctrOutDropped
	ctrOutStamped
	ctrInProcessed
	ctrInVerified
	ctrInVerifyFail
	ctrInDropped
	ctrInErasedOnly
	ctrInAlarmed
	ctrOutTooBig
	ctrMACsComputed
	ctrICMPScrubbed
	numRouterCtrs
)

// routerCtrNames are the metric names of the router counters, by index.
var routerCtrNames = [numRouterCtrs]string{
	MetricRouterOutProcessed, MetricRouterOutDropped, MetricRouterOutStamped,
	MetricRouterInProcessed, MetricRouterInVerified, MetricRouterInVerifyFail,
	MetricRouterInDropped, MetricRouterInErasedOnly, metricRouterInAlarmed,
	metricRouterOutTooBig, MetricRouterMACsComputed, MetricRouterICMPScrubbed,
}

// newRouterMetrics registers the router's counters as one block under
// the router's scope, resolved once at construction so the forwarding
// path never walks the registry maps.
func newRouterMetrics(sc obs.Scope) *obs.CounterBlock {
	return sc.CounterBlock(routerCtrNames[:]...)
}

// routerView reads the typed view of a router's counter block.
func routerView(b *obs.CounterBlock) RouterStats {
	v := func(i int) uint64 { return b.Counter(i).Value() }
	return RouterStats{
		OutProcessed: v(ctrOutProcessed),
		OutDropped:   v(ctrOutDropped),
		OutStamped:   v(ctrOutStamped),
		InProcessed:  v(ctrInProcessed),
		InVerified:   v(ctrInVerified),
		InVerifyFail: v(ctrInVerifyFail),
		InDropped:    v(ctrInDropped),
		InErasedOnly: v(ctrInErasedOnly),
		InAlarmed:    v(ctrInAlarmed),
		OutTooBig:    v(ctrOutTooBig),
		MACsComputed: v(ctrMACsComputed),
		ICMPScrubbed: v(ctrICMPScrubbed),
	}
}

// routerDeltas accumulates counter increments locally during a packet
// or burst, then flushes them into the router's counter block: one
// shard pick and one row of atomic adds, only for the counters that
// changed. ICMP scrubbing counts outside packet processing and has no
// delta.
type routerDeltas [ctrICMPScrubbed]uint64

func (d *routerDeltas) flush(b *obs.CounterBlock) { b.Add(d[:]) }

// AlarmSample is a report of an identified spoofing packet sent to the
// controller in alarm mode (§IV-F); internal/flowexport aggregates
// these into NetFlow/sFlow-style records for the export path.
type AlarmSample struct {
	Src, Dst netip.Addr
	SrcAS    topology.ASN
	When     time.Time
}

// BorderRouter is the data plane of one DAS border router.
type BorderRouter struct {
	Tables *Tables
	// OnAlarm receives samples of identified spoofing packets.
	OnAlarm func(AlarmSample)
	// externalMTU and routerAddr are RouterOptions.ExternalMTU and
	// RouterAddr; onPacketTooBig receives the §V-F ICMPv6 error
	// (nil-safe).
	externalMTU    int
	routerAddr     netip.Addr
	onPacketTooBig func(*packet.IPv6)

	m         *obs.CounterBlock
	rngState  atomic.Uint64
	alarmMode atomic.Bool

	// Sampled data-plane tracing (nil/0 when tracing is off): every
	// (sampleMask+1)-th processed packet emits an obs.EvPacketSample
	// event with its verdict. One atomic tick per packet when enabled
	// (the period is a power of two so the decision is a mask, not a
	// division), zero cost when trace is nil.
	trace      *obs.Tracer
	sampleMask uint64
	sampleTick atomic.Uint64
	traceAS    uint32
}

// SetAlarmMode toggles alarm mode (§IV-F): verification failures pass
// with a sample report instead of dropping. Safe to call while
// forwarding goroutines are processing packets.
func (r *BorderRouter) SetAlarmMode(on bool) { r.alarmMode.Store(on) }

// AlarmModeOn reports whether alarm mode is active.
func (r *BorderRouter) AlarmModeOn() bool { return r.alarmMode.Load() }

// Stats returns the typed view of the processing counters. The same
// numbers are visible under the router's scope ("<scope>router.*") in
// any snapshot of the registry it was constructed with.
func (r *BorderRouter) Stats() RouterStats { return routerView(r.m) }

// randomBits returns scrub bits from a lock-free splitmix64 stream, so
// concurrent forwarding goroutines never contend on a shared RNG.
func (r *BorderRouter) randomBits() uint32 {
	x := r.rngState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x)
}

// RouterOptions configures a BorderRouter. The zero value of every
// field is usable; only Tables is required.
type RouterOptions struct {
	// Tables is the CDP/DP/SP table set the router consults (required).
	Tables *Tables
	// Seed feeds the random bits used to scrub IPv4 marks after
	// verification.
	Seed int64
	// Registry receives the router's data-plane counters; nil creates a
	// private registry.
	Registry *obs.Registry
	// Scope prefixes the router's metric names (e.g. "as7." publishes
	// "as7.router.out_processed"). Empty publishes bare "router.*".
	Scope string
	// AS tags sampled packet events with the router's AS number.
	AS topology.ASN
	// ExternalMTU, when positive, is the MTU of the external link. An
	// IPv6 packet whose stamping would exceed it is not forwarded;
	// instead a "packet too big" ICMPv6 announcing ExternalMTU−8 goes
	// back to the source (§V-F). IPv4 stamping never grows packets.
	ExternalMTU int
	// RouterAddr is the source address for ICMPv6 errors the router
	// originates.
	RouterAddr netip.Addr
	// TraceSampleEvery enables sampled data-plane tracing: every N-th
	// processed packet emits an obs.EvPacketSample event with its
	// verdict into the registry's tracer. The period is rounded up to a
	// power of two so the per-packet decision is a mask instead of a
	// division. 0 disables tracing (the default), keeping the hot path
	// free of even the sampling tick.
	TraceSampleEvery int
}

// nextPow2 rounds n up to the next power of two (minimum 1). Inputs
// above 1<<63 — the largest uint64 power of two — clamp to 1<<63: the
// doubling would otherwise overflow p to zero and never terminate.
func nextPow2(n uint64) uint64 {
	if n > 1<<63 {
		return 1 << 63
	}
	p := uint64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// NewBorderRouterWithOptions creates a router from an options struct.
// A validation failure names the offending field.
func NewBorderRouterWithOptions(o RouterOptions) (*BorderRouter, error) {
	if o.Tables == nil {
		return nil, optErr("RouterOptions", "Tables", "required")
	}
	if o.ExternalMTU < 0 {
		return nil, optErr("RouterOptions", "ExternalMTU", "must be >= 0")
	}
	if o.TraceSampleEvery < 0 {
		return nil, optErr("RouterOptions", "TraceSampleEvery", "must be >= 0")
	}
	reg := o.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &BorderRouter{
		Tables:      o.Tables,
		externalMTU: o.ExternalMTU,
		routerAddr:  o.RouterAddr,
		m:           newRouterMetrics(reg.Scope(o.Scope)),
		traceAS:     uint32(o.AS),
	}
	r.rngState.Store(uint64(o.Seed))
	if o.TraceSampleEvery > 0 {
		r.trace = reg.Tracer()
		r.sampleMask = nextPow2(uint64(o.TraceSampleEvery)) - 1
	}
	return r, nil
}

// maybeSample emits a sampled packet-decision trace event. The nil
// check is the only cost when tracing is off; when on, one atomic tick
// per packet plus an allocation-free Emit on the sampled ones.
func (r *BorderRouter) maybeSample(p MarkCarrier, v Verdict) {
	if r.trace == nil {
		return
	}
	if r.sampleTick.Add(1)&r.sampleMask != 0 {
		return
	}
	r.trace.Emit(obs.Event{
		Kind:    obs.EvPacketSample,
		AS:      r.traceAS,
		Verdict: v.String(),
		Src:     p.SrcAddr(),
		Dst:     p.DstAddr(),
	})
}

// ProcessOutbound runs the outbound half of the Figure-3 flow on a
// packet leaving the AS.
func (r *BorderRouter) ProcessOutbound(p MarkCarrier, now time.Time) Verdict {
	return r.processOutbound(p, now.UnixNano())
}

// processOutbound is ProcessOutbound at nowN Unix nanoseconds.
func (r *BorderRouter) processOutbound(p MarkCarrier, nowN int64) Verdict {
	st := r.Tables.loadOut()
	var d routerDeltas
	p4, p6 := p.unwrap()
	v, key := r.decideOut(&st, nil, p4, p6, nowN, &d)
	if key != nil {
		macs, err := p.stamp(key)
		d[ctrMACsComputed] += uint64(macs)
		if err != nil {
			// Packet cannot carry a mark (e.g. duplicate option): pass;
			// the verification end will treat it as unmarked.
			v = VerdictPass
		} else {
			d[ctrOutStamped]++
		}
	}
	d.flush(r.m)
	r.maybeSample(p, v)
	return v
}

// ProcessOutboundBatch processes a burst of outbound packets against a
// single coherent snapshot of the tables through the fused burst
// pipeline: one snapshot load and counter flush per burst,
// memoized key lookups, and interleaved CMAC scheduling. Verdicts
// are appended to dst (pass a reused buffer to keep the call
// allocation-free) and returned. Every packet in the burst sees the
// same table/key state; a concurrent controller mutation applies to
// the next burst. Results are bit-identical to per-packet processing.
func (r *BorderRouter) ProcessOutboundBatch(pkts []MarkCarrier, now time.Time, dst []Verdict) []Verdict {
	bp := pipelinePool.Get().(*burstPipeline)
	dst = bp.outbound(r, pkts, now, dst)
	pipelinePool.Put(bp)
	return dst
}

// decideOut takes the Table-I outbound decision for one packet (p4 or
// p6 is non-nil) against a loaded snapshot: the out-tuple, the DP/SP
// drop and the §V-F packet-too-big drop. When a mark is due it returns
// VerdictPassStamped and the stamping key; the caller computes the MAC
// and counts the stamp. m, when non-nil, is the burst's lookup memo.
func (r *BorderRouter) decideOut(st *outState, m *tupleMemo, p4 *packet.IPv4, p6 *packet.IPv6, nowN int64, d *routerDeltas) (Verdict, *cmac.CMAC) {
	d[ctrOutProcessed]++
	src, dst := addrs(p4, p6)
	tup := r.Tables.genOutTuple(st, m, src, dst, nowN)
	if tup.Drop {
		d[ctrOutDropped]++
		return VerdictDrop, nil
	}
	if !tup.Stamp || tup.Key == nil {
		// Nothing to stamp, or a CDP-stamp scheduled toward a
		// destination that is not a peer (e.g. key torn down
		// mid-invocation): pass unstamped rather than break
		// connectivity.
		return VerdictPass, nil
	}
	// §V-F: stamping may grow an IPv6 packet by up to 8 bytes; if that
	// exceeds the external link MTU, return "packet too big"
	// announcing an MTU 8 bytes below the link's.
	if p6 != nil && r.externalMTU > 0 && p6.WireLen()+p6.StampOverheadV6() > r.externalMTU {
		d[ctrOutTooBig]++
		if r.onPacketTooBig != nil {
			if icmp, err := packet.NewICMPv6PacketTooBig(r.routerAddr, p6, uint32(r.externalMTU-8)); err == nil {
				r.onPacketTooBig(icmp)
			}
		}
		return VerdictDrop, nil
	}
	return VerdictPassStamped, tup.Key
}

// ProcessInbound runs the inbound half of the Figure-3 flow on a
// packet entering the AS.
func (r *BorderRouter) ProcessInbound(p MarkCarrier, now time.Time) Verdict {
	return r.processInbound(p, now.UnixNano())
}

// processInbound is ProcessInbound at nowN Unix nanoseconds.
func (r *BorderRouter) processInbound(p MarkCarrier, nowN int64) Verdict {
	st := r.Tables.loadIn()
	var d routerDeltas
	p4, p6 := p.unwrap()
	act, srcAS, vk := r.decideIn(&st, p4, p6, nowN, &d)
	if act == actPending {
		ok, macs := vk.verify(p)
		d[ctrMACsComputed] += uint64(macs)
		act = actInvalid
		if ok {
			act = actValid
		}
	}
	v := r.applyIn(p, act, srcAS, nowN, &d)
	d.flush(r.m)
	r.maybeSample(p, v)
	return v
}

// ProcessInboundBatch is the inbound counterpart of
// ProcessOutboundBatch.
func (r *BorderRouter) ProcessInboundBatch(pkts []MarkCarrier, now time.Time, dst []Verdict) []Verdict {
	bp := pipelinePool.Get().(*burstPipeline)
	dst = bp.inbound(r, pkts, now, dst)
	pipelinePool.Put(bp)
	return dst
}

// Inbound actions: decideIn classifies a packet, the MAC check turns
// actPending into actValid or actInvalid, and applyIn carries it out.
const (
	actPass      uint8 = iota // VerdictPass, nothing to do
	actEraseOnly              // grace interval: erase, no enforcement
	actPending                // verify the mark against the returned keys
	actValid                  // verified: erase + VerdictPassVerified
	actInvalid                // failed: drop or alarm
)

// decideIn takes the Table-I inbound decision for one packet (p4 or p6
// is non-nil) against a loaded snapshot. actPending comes with the
// source AS and its verification keys; the caller checks the mark.
// An IPv6 packet without a DISCS option is actInvalid at once, with no
// MAC computed.
func (r *BorderRouter) decideIn(st *inState, p4 *packet.IPv4, p6 *packet.IPv6, nowN int64, d *routerDeltas) (uint8, topology.ASN, *peerKeys) {
	d[ctrInProcessed]++
	src, dst := addrs(p4, p6)
	tup := r.Tables.genInTuple(st, src, dst, nowN)
	if !tup.Verify {
		return actPass, 0, nil
	}
	if tup.EraseOnly {
		// Grace interval: erase without enforcement (§IV-E1).
		return actEraseOnly, tup.SrcAS, nil
	}
	var vk *peerKeys
	if tup.SrcKnown {
		vk = st.keys.verifyKeys(tup.SrcAS)
	}
	if vk == nil {
		// CDP-verify is conditional on src ∈ peer (Table I): traffic
		// from non-peer sources cannot be verified and passes; it is
		// the peers' DP filters that handle it.
		return actPass, tup.SrcAS, nil
	}
	if p6 != nil {
		if _, ok := p6.MarkV6(); !ok {
			return actInvalid, tup.SrcAS, vk
		}
	}
	return actPending, tup.SrcAS, vk
}

// applyIn carries out a resolved inbound action on p: the erasure, the
// alarm sample or the drop, and the counters. Callers apply packets in
// arrival order, so the scrub-bit draws and OnAlarm calls come in that
// order whichever path decided them.
func (r *BorderRouter) applyIn(p MarkCarrier, act uint8, srcAS topology.ASN, nowN int64, d *routerDeltas) Verdict {
	switch act {
	case actEraseOnly:
		p.erase(r.randomBits())
		d[ctrInErasedOnly]++
	case actValid:
		p.erase(r.randomBits())
		d[ctrInVerified]++
		return VerdictPassVerified
	case actInvalid:
		d[ctrInVerifyFail]++
		if !r.alarmMode.Load() {
			d[ctrInDropped]++
			return VerdictDrop
		}
		d[ctrInAlarmed]++
		if r.OnAlarm != nil {
			r.OnAlarm(AlarmSample{
				Src:   p.SrcAddr(),
				Dst:   p.DstAddr(),
				SrcAS: srcAS,
				When:  time.Unix(0, nowN).UTC(),
			})
		}
		p.erase(r.randomBits())
		return VerdictPassAlarm
	}
	return VerdictPass
}

// addrs returns the addresses of whichever of p4 and p6 is non-nil.
func addrs(p4 *packet.IPv4, p6 *packet.IPv6) (src, dst netip.Addr) {
	if p6 != nil {
		return p6.Src, p6.Dst
	}
	return p4.Src, p4.Dst
}

// scrubInboundICMP inspects an inbound ICMP(v4) error message and
// erases any DISCS mark from the embedded packet (§VI-E2): without
// this, a host inside the DAS could learn valid marks by triggering
// TTL-exceeded errors just outside the border. It reports whether a
// scrub happened.
func (r *BorderRouter) scrubInboundICMP(p *packet.IPv4) bool {
	if packet.ScrubICMPv4EmbeddedMark(p, r.randomBits()) {
		r.m.Counter(ctrICMPScrubbed).Inc()
		return true
	}
	return false
}

// scrubInboundICMPv6 is the IPv6 counterpart of scrubInboundICMP.
func (r *BorderRouter) scrubInboundICMPv6(p *packet.IPv6) bool {
	if packet.ScrubICMPv6EmbeddedMark(p, r.randomBits()) {
		r.m.Counter(ctrICMPScrubbed).Inc()
		return true
	}
	return false
}
