package service

import (
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"discs/internal/core"
	"discs/internal/packet"
	"discs/internal/topology"
)

// FleetOptions configures a loopback fleet.
type FleetOptions struct {
	// N is the fleet size; 0 means 3.
	N int
	// TLS wraps every inter-node connection in TLS.
	TLS bool
	// Admin binds an admin HTTP endpoint ("127.0.0.1:0") on every node.
	Admin bool
	// BaseSeed offsets each node's identity seed; reuse a value to get
	// the same fleet identities again.
	BaseSeed int64

	// Protocol pacing overrides (milliseconds); zeros take fast defaults
	// suited to a short-lived loopback run, not the service defaults.
	PeeringDelayMaxMS int
	RetryIntervalMS   int
	HeartbeatMS       int
	DeadAfterMisses   int
	ReconnectMS       int
	GraceMS           int
}

// Fleet is a set of discs-node instances wired full-mesh over loopback
// TCP — the off-simulator analogue of core.System's deployed internet.
// Node i serves AS 1001+i and owns 10.<i>.0.0/16.
type Fleet struct {
	Nodes []*Node
	opts  FleetOptions
}

// fleetBaseASN is node 0's AS number; node i serves fleetBaseASN+i.
const fleetBaseASN = 1001

func fleetName(i int) string { return fmt.Sprintf("ctrl.as%d", fleetBaseASN+i) }

// FleetPrefix returns the prefix owned by node i.
func FleetPrefix(i int) netip.Prefix {
	return netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i))
}

// FleetAddr returns a host address inside node i's prefix.
func FleetAddr(i int, host byte) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i), 0, host})
}

// NewFleet builds, wires and starts n nodes over loopback sockets.
// Construction is two-phase: every node binds first (so ":0" ports are
// concrete), then each is Reloaded with the actual peer addresses —
// the same config-reload path a production deployment would use to
// introduce peers. On return every node is running; peering and key
// negotiation proceed asynchronously (see WaitReady).
func NewFleet(o FleetOptions) (*Fleet, error) {
	if o.N == 0 {
		o.N = 3
	}
	if o.N < 2 {
		return nil, fmt.Errorf("service: fleet needs at least 2 nodes")
	}
	if o.PeeringDelayMaxMS == 0 {
		o.PeeringDelayMaxMS = 50
	}
	if o.RetryIntervalMS == 0 {
		o.RetryIntervalMS = 250
	}
	if o.HeartbeatMS == 0 {
		o.HeartbeatMS = 500
	}
	if o.GraceMS == 0 {
		// Strict CDP verification within 50ms of deployment, instead of
		// the production 30s tolerance window.
		o.GraceMS = 50
	}

	prefixes := make(map[string][]string, o.N)
	pubs := make([]string, o.N)
	seeds := make([]int64, o.N)
	for i := 0; i < o.N; i++ {
		prefixes[strconv.Itoa(fleetBaseASN+i)] = []string{FleetPrefix(i).String()}
		seeds[i] = o.BaseSeed*1000 + int64(i) + 1
		id, err := NodeIdentity(fleetName(i), seeds[i])
		if err != nil {
			return nil, err
		}
		pubs[i] = PubHex(id)
	}

	cfg := func(i int, withAddrs bool, addrOf func(int) string) Config {
		c := Config{
			Name: fleetName(i), AS: uint32(fleetBaseASN + i),
			Listen: "127.0.0.1:0", TLS: o.TLS, Seed: seeds[i],
			Prefixes:          prefixes,
			PeeringDelayMaxMS: o.PeeringDelayMaxMS,
			RetryIntervalMS:   o.RetryIntervalMS,
			HeartbeatMS:       o.HeartbeatMS,
			DeadAfterMisses:   o.DeadAfterMisses,
			ReconnectMS:       o.ReconnectMS,
			GraceMS:           o.GraceMS,
		}
		if o.Admin {
			c.Admin = "127.0.0.1:0"
		}
		for j := 0; j < o.N; j++ {
			if j == i {
				continue
			}
			p := PeerConfig{Name: fleetName(j), AS: uint32(fleetBaseASN + j), Pub: pubs[j]}
			if withAddrs {
				p.Addr = addrOf(j)
			}
			c.Peers = append(c.Peers, p)
		}
		return c
	}

	f := &Fleet{opts: o}
	for i := 0; i < o.N; i++ {
		n, err := NewNode(cfg(i, false, nil))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Nodes = append(f.Nodes, n)
	}
	addrOf := func(j int) string { return f.Nodes[j].Addr() }
	for i, n := range f.Nodes {
		if err := n.Reload(cfg(i, true, addrOf)); err != nil {
			f.Close()
			return nil, err
		}
	}
	for _, n := range f.Nodes {
		if err := n.Start(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// fleetPoll is how often WaitReady and Protect check the nodes' state.
// A check is one Do per node. A longer sleep rounds every wait up to
// it, and on loopback an install finishes in about a millisecond.
const fleetPoll = 200 * time.Microsecond

// WaitReady blocks until every node has established peering and
// negotiated stamping keys with every other node, or the timeout
// expires.
func (f *Fleet) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := true
		for i, n := range f.Nodes {
			n.Do(func(c *core.Controller, _ *core.BorderRouter) {
				for j := range f.Nodes {
					if j == i {
						continue
					}
					if !c.KeysReadyWith(topology.ASN(fleetBaseASN + j)) {
						ready = false
					}
				}
			})
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service: fleet not ready after %v", timeout)
		}
		time.Sleep(fleetPoll)
	}
}

// Protect invokes DP+CDP protection for node victim's prefix and
// blocks until the corresponding filter and stamp operations are
// active in every other node's outbound tables (i.e. the installs
// were acknowledged and deployed).
func (f *Fleet) Protect(victim int, timeout time.Duration) error {
	inv := []core.Invocation{
		{Prefixes: []netip.Prefix{FleetPrefix(victim)}, Function: core.DP, Duration: time.Hour},
		{Prefixes: []netip.Prefix{FleetPrefix(victim)}, Function: core.CDP, Duration: time.Hour},
	}
	if _, err := f.Nodes[victim].Invoke(inv...); err != nil {
		return err
	}
	probe := FleetAddr(victim, 10)
	deadline := time.Now().Add(timeout)
	for {
		deployed := true
		for i, n := range f.Nodes {
			if i == victim {
				continue
			}
			n.Do(func(_ *core.Controller, r *core.BorderRouter) {
				active, _ := r.Tables.In[core.TableOutDst].ActiveOps(probe, n.Now())
				if !active.Has(core.OpDPFilter) || !active.Has(core.OpCDPStamp) {
					deployed = false
				}
			})
		}
		if deployed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service: protection not deployed after %v", timeout)
		}
		time.Sleep(fleetPoll)
	}
}

// LoadgenReport tallies one loadgen run. Delivery and drops on the
// victim side are observable in the victim node's metrics
// (node.rx_delivered / node.rx_dropped, router.in_verified).
type LoadgenReport struct {
	// LegitSent legitimate flows entered the attacker AS's border
	// router; LegitStamped of them were CDP-stamped and put on the wire.
	LegitSent, LegitStamped int
	// SpoofedSent flows claimed the victim's own addresses;
	// SpoofedBlocked were dropped at the source AS by the DP filter.
	SpoofedSent, SpoofedBlocked int
	// RawInjected unstamped packets claiming the source AS's own
	// addresses bypassed the source border router entirely (a host
	// sneaking past the border, or an on-path injector); the victim
	// holds that AS's verify key, so CDP verification drops them.
	RawInjected int
}

// Loadgen drives three traffic classes from node src toward node
// victim's protected prefix: legitimate flows (stamped at the source,
// verified and delivered at the victim), spoofed flows (dropped at the
// source by DP), and raw unstamped injections (dropped at the victim
// by CDP verification). Call after Protect.
func (f *Fleet) Loadgen(src, victim, flows int) LoadgenReport {
	var rep LoadgenReport
	dstName := f.Nodes[victim].Name()
	for k := 0; k < flows; k++ {
		legit := &packet.IPv4{
			TTL: 64, Protocol: 17,
			Src:     FleetAddr(src, byte(20+k%200)),
			Dst:     FleetAddr(victim, byte(10+k%200)),
			Payload: []byte("legit"),
		}
		rep.LegitSent++
		if v, sent := f.Nodes[src].SendPacket(dstName, legit); sent && v == core.VerdictPassStamped {
			rep.LegitStamped++
		}

		spoofed := &packet.IPv4{
			TTL: 64, Protocol: 17,
			Src:     FleetAddr(victim, byte(30+k%200)), // claims the victim's own space
			Dst:     FleetAddr(victim, byte(10+k%200)),
			Payload: []byte("spoof"),
		}
		rep.SpoofedSent++
		if v, sent := f.Nodes[src].SendPacket(dstName, spoofed); !sent && v.Dropped() {
			rep.SpoofedBlocked++
		}

		// Claims the source AS's own space but skipped its border router,
		// so it carries no mark; the victim's CDP verifier rejects it.
		// (Spoofing the victim's own prefix would pass here: the victim
		// has no verify key for itself — Table I makes CDP-verify
		// conditional on src ∈ peer, and the peers' DP filters own that
		// case, as SpoofedBlocked shows.)
		raw := &packet.IPv4{
			TTL: 64, Protocol: 17,
			Src:     FleetAddr(src, byte(40+k%200)),
			Dst:     FleetAddr(victim, byte(10+k%200)),
			Payload: []byte("raw"),
		}
		if f.Nodes[src].InjectRaw(dstName, raw) {
			rep.RawInjected++
		}
	}
	return rep
}

// BurstReport tallies one high-rate burst loadgen run: Packets were
// pushed as packet trains through the source border router (including
// re-pushes after transport backpressure), Stamped of them survived
// outbound processing with a CDP stamp, and Sent went out in trains
// the transport accepted.
type BurstReport struct {
	Packets, Stamped, Sent int
	Elapsed                time.Duration
}

// Mpps is the achieved rate of transport-accepted packets in million
// packets per second.
func (r BurstReport) Mpps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Sent) / r.Elapsed.Seconds() / 1e6
}

// LoadgenBurst drives high-rate legitimate traffic from node src
// toward node victim's prefix through the batch entry points: packets
// are processed in bursts of burst through ProcessOutboundBatch and
// shipped as FrameKindDataBurst trains, one transport frame per train.
// The burst's packet structs are reused across iterations — outbound
// stamping overwrites any prior mark, so reuse is safe and the hot
// loop allocates nothing per packet. The loop runs until `packets`
// packets have been accepted by the transport, yielding briefly when
// the peer's bounded queue pushes back (on one core the producer can
// outrun the send worker; the drop counter is the signal). Call after
// Protect; delivery is observable in the victim's node.rx_delivered
// counter.
func (f *Fleet) LoadgenBurst(src, victim, packets, burst int) BurstReport {
	if burst <= 0 {
		burst = 256
	}
	if burst > packets {
		burst = packets
	}
	dstName := f.Nodes[victim].Name()
	pkts := make([]*packet.IPv4, burst)
	for k := range pkts {
		pkts[k] = &packet.IPv4{
			TTL: 64, Protocol: 17,
			Src:     FleetAddr(src, byte(20+k%200)),
			Dst:     FleetAddr(victim, byte(10+k%200)),
			Payload: []byte("burst"),
		}
	}
	var rep BurstReport
	begin := time.Now()
	for rep.Sent < packets {
		n := burst
		if rem := packets - rep.Sent; n > rem {
			n = rem
		}
		stamped, sent := f.Nodes[src].SendPacketBatch(dstName, pkts[:n])
		rep.Packets += n
		rep.Stamped += stamped
		rep.Sent += sent
		if sent < n {
			time.Sleep(200 * time.Microsecond) // transport backpressure
		}
	}
	rep.Elapsed = time.Since(begin)
	return rep
}

// Close shuts every node down.
func (f *Fleet) Close() {
	for _, n := range f.Nodes {
		if n != nil {
			n.Close()
		}
	}
}
