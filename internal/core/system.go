package core

import (
	"fmt"
	"time"

	"discs/internal/bgp"
	"discs/internal/obs"
	"discs/internal/packet"
	"discs/internal/topology"
)

// System wires a BGP network, DISCS controllers and border-router data
// planes into a runnable whole, and provides packet-level end-to-end
// delivery across the AS topology.
type System struct {
	Net *bgp.Network
	Dir *Directory

	Controllers map[topology.ASN]*Controller
	Routers     map[topology.ASN]*BorderRouter

	cfg Config
	reg *obs.Registry

	// deploys records every Deploy in order with its caller-visible
	// seed, so a checkpoint can rebuild the same controllers — same
	// node names, mesh link creation order and RNG seeds — on restore
	// (see checkpoint.go).
	deploys []deployRecord
}

// deployRecord is one Deploy call as the snapshot layer replays it.
type deployRecord struct {
	asn  topology.ASN
	seed int64
}

// SystemOptions configures a System. Net is required; Config tunes
// protocol behaviour for every controller the system deploys.
// Validation failures are *OptionError.
type SystemOptions struct {
	// Net is the converged (or to-be-converged) BGP network the system
	// wires DISCS into (required).
	Net *bgp.Network
	// Config is handed to every deployed controller; its Registry field
	// also selects the unified metrics registry (see below).
	Config Config
}

// NewSystemWithOptions creates a system from an options struct. All
// subsystems publish into one registry: Config.Registry when set,
// otherwise the network simulator's. The simulator's counters
// (including everything BGP convergence already accumulated) are
// re-homed into it, so one snapshot covers the whole system.
func NewSystemWithOptions(o SystemOptions) (*System, error) {
	if o.Net == nil {
		return nil, optErr("SystemOptions", "Net", "required")
	}
	cfg := o.Config
	reg := cfg.Registry
	if reg == nil {
		reg = o.Net.Sim.Registry()
	} else {
		o.Net.Sim.MoveToRegistry(reg)
	}
	if cfg.TraceCapacity > 0 {
		reg.SetTraceCapacity(cfg.TraceCapacity)
	}
	// Topology routing-cache gauges (tree count, hit rate) join the
	// same registry.
	o.Net.Topo.PublishMetrics(reg)
	return &System{
		Net:         o.Net,
		Dir:         NewDirectory(),
		Controllers: make(map[topology.ASN]*Controller),
		Routers:     make(map[topology.ASN]*BorderRouter),
		cfg:         cfg,
		reg:         reg,
	}, nil
}

// Registry returns the unified registry every subsystem publishes
// into.
func (s *System) Registry() *obs.Registry { return s.reg }

// Stats returns the system-wide metrics snapshot: netsim delivery and
// fault counters, per-AS controller tallies ("asN.ctrl.*") and per-AS
// data-plane counters ("asN.router.*"), stamped with the simulated
// time. Fleet-wide aggregates fall out of Snapshot.Sum, e.g.
// Stats().Sum(MetricRouterInDropped) for total inbound drops. It
// replaces the removed DataPlaneStats aggregation.
func (s *System) Stats() obs.Snapshot { return s.reg.Snapshot() }

// Deploy turns an AS into a DAS: it creates the controller (with its
// own netsim node), a border-router data plane, hooks DISCS-Ad
// extraction into the AS's BGP speaker, and re-originates the AS's
// prefixes carrying the DISCS-Ad (§IV-B). Discovery, peering and key
// negotiation then run inside the simulator; call s.Net.Converge() (or
// run the simulator) to let them complete.
func (s *System) Deploy(asn topology.ASN, seed int64) (*Controller, error) {
	ctrl, sp, err := s.deployNode(asn, seed)
	if err != nil {
		return nil, err
	}

	// Existing Ads already seen by the speaker are replayed to the new
	// controller, then future Ads stream in.
	for _, ad := range sp.KnownAds() {
		ctrl.HandleAd(ad)
	}
	sp.OnAd(ctrl.HandleAd)

	// Announce ourselves Internet-wide. Only prefixes the speaker
	// actually originates are re-announced: paper-scale runs originate
	// one prefix per DAS (Network.OriginateFirst) rather than the full
	// 442k-prefix table, and the Ad rides on whatever is in BGP.
	ad := bgp.NewDISCSAdAttr(ctrl.Ad())
	announced := 0
	for _, p := range s.Net.Topo.AS(asn).Prefixes {
		if r, ok := sp.LocRib(p); !ok || !r.Local {
			continue
		}
		if err := sp.ReOriginate(p, ad); err != nil {
			return nil, err
		}
		announced++
	}
	if announced == 0 && len(s.Net.Topo.AS(asn).Prefixes) > 0 {
		return nil, fmt.Errorf("core: AS%d originates none of its prefixes; run OriginateAll or OriginateFirst before Deploy", asn)
	}
	return ctrl, nil
}

// deployNode is the structural half of Deploy: node, mesh links,
// controller, router, bookkeeping — everything except the Ad replay
// and the BGP re-origination. The snapshot restore path uses it alone:
// a restored world already has the Ads in its RIBs, and replay happens
// through Restart (the same journal-replay path a crashed controller
// takes).
func (s *System) deployNode(asn topology.ASN, seed int64) (*Controller, *bgp.Speaker, error) {
	if _, dup := s.Controllers[asn]; dup {
		return nil, nil, fmt.Errorf("core: AS%d already deployed", asn)
	}
	sp := s.Net.Speakers[asn]
	if sp == nil {
		return nil, nil, fmt.Errorf("core: AS%d has no BGP speaker", asn)
	}
	name := fmt.Sprintf("ctrl.as%d", asn)
	node, err := s.Net.Sim.AddNode(name)
	if err != nil {
		return nil, nil, err
	}
	// The controller lives in its AS: it shares the border node's
	// shard, so speaker<->controller hand-offs (Ad replay, router
	// programming) stay shard-local under the parallel engine.
	node.SetShard(sp.Node().Shard())
	// Preconnect the controller mesh. linkTo's lazy sim.Connect would
	// mutate the link table and the engine's lookahead bound from inside
	// event execution; creating the links here, from driver context,
	// keeps the run epochs structurally stable. Directory order is
	// sorted, so the link table is deterministic.
	for _, ent := range s.Dir.Entries() {
		if _, err := s.Net.Sim.Connect(node, ent.Node, s.cfg.CtrlLinkDelay); err != nil {
			return nil, nil, err
		}
	}
	scope := fmt.Sprintf("as%d.", asn)
	effSeed := seed ^ s.cfg.Seed
	ctrl, err := NewControllerWithOptions(ControllerOptions{
		AS: asn, Name: name, Sim: s.Net.Sim, Node: node, Dir: s.Dir,
		Topo: s.Net.Topo, Config: s.cfg, Seed: effSeed,
		Registry: s.reg, Scope: scope,
	})
	if err != nil {
		return nil, nil, err
	}
	tables := NewTables(asn, s.Net.Topo.Pfx2AS())
	router, err := NewBorderRouterWithOptions(RouterOptions{
		Tables: tables, Seed: effSeed ^ 0x5eed,
		Registry: s.reg, Scope: scope, AS: asn,
		TraceSampleEvery: s.cfg.TraceSampleEvery,
	})
	if err != nil {
		return nil, nil, err
	}
	ctrl.AttachRouter(router)
	s.Controllers[asn] = ctrl
	s.Routers[asn] = router
	s.deploys = append(s.deploys, deployRecord{asn: asn, seed: seed})
	return ctrl, sp, nil
}

// Settle runs the simulator until the control plane goes quiet.
func (s *System) Settle() error {
	_, err := s.Net.Sim.RunAll()
	return err
}

// Crash takes down the controller of asn — not its border routers,
// which are separate boxes and keep enforcing their tables. Peers
// detect the silence via missed heartbeats and degrade gracefully.
func (s *System) Crash(asn topology.ASN) error {
	c := s.Controllers[asn]
	if c == nil {
		return fmt.Errorf("core: AS%d has no controller", asn)
	}
	c.Crash()
	return nil
}

// Restart brings a crashed controller back up and replays the
// BGP-learned DISCS-Ads into it, the same bootstrap Deploy performs:
// rediscovery, resumption handshakes, key deployment and campaign
// resync then run inside the simulator.
func (s *System) Restart(asn topology.ASN) error {
	c := s.Controllers[asn]
	if c == nil {
		return fmt.Errorf("core: AS%d has no controller", asn)
	}
	c.Restart()
	if sp := s.Net.Speakers[asn]; sp != nil {
		for _, ad := range sp.KnownAds() {
			c.HandleAd(ad)
		}
	}
	return nil
}

// Now returns the data-plane clock (simulated time mapped to wall
// clock).
func (s *System) Now() time.Time { return time.Unix(0, 0).UTC().Add(s.Net.Sim.Now()) }

// HopResult records what happened to a packet at one AS.
type HopResult struct {
	AS      topology.ASN
	Verdict Verdict
}

// DeliveryResult is the outcome of an end-to-end Send.
type DeliveryResult struct {
	Delivered bool
	// DroppedAt is the AS whose border router dropped the packet (0 if
	// delivered).
	DroppedAt topology.ASN
	Hops      []HopResult
	// TTLExpired is set when the packet died of TTL, in which case an
	// ICMP time-exceeded was generated (see ICMPReturned).
	TTLExpired bool
	// ICMPReturned is the time-exceeded message delivered back to the
	// packet's source address owner, after DISCS mark scrubbing at that
	// AS's border (§VI-E2). Nil unless TTL expired en route.
	ICMPReturned *packet.IPv4
}

// pathBufLen sizes the stack buffer Send walks AS paths into; longer
// paths (rare: valley-free paths are short) spill to the heap.
const pathBufLen = 16

// SendV4 injects an IPv4 packet at fromAS and walks it along the
// valley-free AS path toward the owner of its destination address,
// applying DISCS processing: outbound at the source AS border (if it
// is a DAS), inbound at the destination AS border (if it is a DAS).
// Transit ASes decrement TTL only — DISCS functions execute only at
// the victim's and peers' borders, never in transit (§III-B).
func (s *System) SendV4(fromAS topology.ASN, p *packet.IPv4) DeliveryResult {
	res := DeliveryResult{}
	dstAS, ok := s.Net.Topo.OwnerOf(p.Dst)
	if !ok {
		res.DroppedAt = fromAS
		return res
	}
	now := s.Now()

	// Outbound processing at the source AS border.
	if r := s.Routers[fromAS]; r != nil {
		v := r.ProcessOutbound(V4{p}, now)
		// Sized once for both DISCS borders, the only hops recorded.
		res.Hops = append(make([]HopResult, 0, 2), HopResult{fromAS, v})
		if v.Dropped() {
			res.DroppedAt = fromAS
			return res
		}
	}
	if dstAS == fromAS {
		res.Delivered = true
		return res
	}
	var buf [pathBufLen]topology.ASN
	path, ok := s.Net.Topo.PathInto(fromAS, dstAS, buf[:0])
	if !ok {
		res.DroppedAt = fromAS
		return res
	}
	// Transit: TTL decrements at each AS hop (an abstraction of the
	// routers along the path).
	for i := 1; i < len(path); i++ {
		if p.TTL == 0 || p.TTL == 1 {
			p.TTL = 0
			res.TTLExpired = true
			res.DroppedAt = path[i]
			res.ICMPReturned = s.returnTimeExceeded(path[i], fromAS, p)
			return res
		}
		p.TTL--
	}
	// Inbound processing at the destination AS border.
	if r := s.Routers[dstAS]; r != nil {
		v := r.ProcessInbound(V4{p}, now)
		res.Hops = append(res.Hops, HopResult{dstAS, v})
		if v.Dropped() {
			res.DroppedAt = dstAS
			return res
		}
	}
	res.Delivered = true
	return res
}

// returnTimeExceeded builds the ICMP error at the expiring AS and
// routes it back toward the original source. If the AS owning the
// original source address is a DAS, its border router scrubs the
// embedded DISCS mark before the message enters the AS.
func (s *System) returnTimeExceeded(atAS, origFrom topology.ASN, orig *packet.IPv4) *packet.IPv4 {
	// The reporting router needs an address inside the expiring AS.
	a := s.Net.Topo.AS(atAS)
	if a == nil || len(a.Prefixes) == 0 || !a.Prefixes[0].Addr().Is4() {
		return nil
	}
	icmp, err := packet.ICMPv4TimeExceeded(a.Prefixes[0].Addr(), orig)
	if err != nil {
		return nil
	}
	// Serialize/reparse: the scrubber operates on raw bytes.
	b, err := icmp.Marshal()
	if err != nil {
		return nil
	}
	back, err := packet.ParseIPv4(b)
	if err != nil {
		return nil
	}
	// Inbound at the source-address owner's border: scrub marks.
	srcOwner, ok := s.Net.Topo.OwnerOf(orig.Src)
	if ok {
		if r := s.Routers[srcOwner]; r != nil {
			r.ScrubInboundICMP(back)
		}
	}
	_ = origFrom
	return back
}

// SendV6 is the IPv6 counterpart of SendV4 (hop limit instead of TTL;
// ICMPv6 handling is exercised directly in tests).
func (s *System) SendV6(fromAS topology.ASN, p *packet.IPv6) DeliveryResult {
	res := DeliveryResult{}
	dstAS, ok := s.Net.Topo.OwnerOf(p.Dst)
	if !ok {
		res.DroppedAt = fromAS
		return res
	}
	now := s.Now()
	if r := s.Routers[fromAS]; r != nil {
		v := r.ProcessOutbound(V6{p}, now)
		// Sized once for both DISCS borders, the only hops recorded.
		res.Hops = append(make([]HopResult, 0, 2), HopResult{fromAS, v})
		if v.Dropped() {
			res.DroppedAt = fromAS
			return res
		}
	}
	if dstAS == fromAS {
		res.Delivered = true
		return res
	}
	var buf [pathBufLen]topology.ASN
	path, ok := s.Net.Topo.PathInto(fromAS, dstAS, buf[:0])
	if !ok {
		res.DroppedAt = fromAS
		return res
	}
	for i := 1; i < len(path); i++ {
		if p.HopLimit <= 1 {
			p.HopLimit = 0
			res.TTLExpired = true
			res.DroppedAt = path[i]
			return res
		}
		p.HopLimit--
	}
	if r := s.Routers[dstAS]; r != nil {
		v := r.ProcessInbound(V6{p}, now)
		res.Hops = append(res.Hops, HopResult{dstAS, v})
		if v.Dropped() {
			res.DroppedAt = dstAS
			return res
		}
	}
	res.Delivered = true
	return res
}
