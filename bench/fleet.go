package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"time"

	"discs/internal/core"
	"discs/internal/obs"
	"discs/internal/packet"
	"discs/internal/service"
	"discs/internal/transport"
)

// The fleet workloads drive a live service.Fleet over loopback TCP+TLS:
// real sockets, real peering and key negotiation, the victim's prefix
// protected with DP+CDP. Traffic crosses the host loopback interface,
// never a link. Every packet's fate is read back from the victim's own
// counters; loss is counted at a deadline, never waited for.

const (
	fleetVictim   = 1
	trainPackets  = 256
	trainFlows    = 64
	drainDeadline = 2 * time.Second
	pollInterval  = 20 * time.Microsecond
)

// fleetWorld is a booted, protected fleet plus handles on the victim's
// data-plane counters.
type fleetWorld struct {
	f   *service.Fleet
	vic *service.Node

	delivered, dropped, malformed, overflow *obs.Counter
}

// fleetHeartbeatMS is the service's own default keepalive period
// (core.DefaultConfig), not the half second the loopback Fleet picks
// for short tests. At half a second a controller counts a miss whenever
// a peer's keepalive lands just after its own tick, four misses in a
// row declare the peer dead, and the peer's keys and filters go with
// it: about one open-loop run in ten lost its protection that way on a
// busy box (README.md, Findings). The benchmark measures the fleet
// carrying traffic, so it runs it with the liveness timing it ships.
const fleetHeartbeatMS = 15000

// bootFleet boots and protects an n-node fleet. The nodes' identity
// seeds are fixed, like the simulator's controller seeds: they draw the
// peering delays, and a set-up whose length followed the benchmark seed
// would make setup_s a property of the seed.
func bootFleet(n int) (*fleetWorld, error) {
	f, err := service.NewFleet(service.FleetOptions{N: n, TLS: true, BaseSeed: 1, HeartbeatMS: fleetHeartbeatMS})
	if err != nil {
		return nil, err
	}
	if err := f.WaitReady(15 * time.Second); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Protect(fleetVictim, 15*time.Second); err != nil {
		f.Close()
		return nil, err
	}
	vic := f.Nodes[fleetVictim]
	ctr := func(name string) *obs.Counter {
		return vic.Registry().Counter(fmt.Sprintf("as%d.%s", vic.AS(), name))
	}
	return &fleetWorld{
		f: f, vic: vic,
		delivered: ctr(service.MetricNodeRxDelivered), dropped: ctr(service.MetricNodeRxDropped),
		malformed: ctr(service.MetricNodeRxMalformed), overflow: ctr(service.MetricNodeRxOverflow),
	}, nil
}

// fleetSetupRepeats is how many times a fleet workload boots its fleet:
// a boot is tens of milliseconds, so five of them buy a steadier median.
const fleetSetupRepeats = 5

// setupFleet boots the fleet fleetSetupRepeats times and keeps the last.
// The timed part is boot -> WaitReady -> Protect; the fixed wait for
// the invocation's grace interval to lapse (so verification is strict)
// is the harness's, not the system's, and is left out.
func setupFleet(n int, cfg runConfig) (*fleetWorld, float64, error) {
	w, setupS, err := medianSetup(cfg.scaled(fleetSetupRepeats, 1),
		func() (*fleetWorld, error) { return bootFleet(n) },
		func(w *fleetWorld) { w.f.Close() })
	if err != nil {
		return nil, 0, err
	}
	time.Sleep(100 * time.Millisecond)
	return w, setupS, nil
}

// health sums, over the fleet, the counters that tell why a fleet
// stopped carrying traffic; it goes into the notes of a failed run.
func (w *fleetWorld) health() string {
	var dead, misses, redials, dialFail, dropped uint64
	for _, n := range w.f.Nodes {
		s := n.Stats()
		dead += s.Sum(core.MetricCtrlPeersDeclaredDead)
		misses += s.Sum(core.MetricCtrlHeartbeatMisses)
		for name, v := range s.Counters {
			switch {
			case strings.Contains(name, transport.MetricRedials):
				redials += v
			case strings.Contains(name, transport.MetricDialFailures):
				dialFail += v
			case strings.Contains(name, transport.MetricFramesDropped):
				dropped += v
			}
		}
	}
	return fmt.Sprintf("fleet health: %d peers declared dead, %d heartbeat misses, %d redials, %d dial failures, %d frames dropped by transports",
		dead, misses, redials, dialFail, dropped)
}

// accounted is how many packets the victim has booked a fate for.
func (w *fleetWorld) accounted() uint64 {
	return w.delivered.Value() + w.dropped.Value() + w.malformed.Value()
}

// fleetPacket builds one IPv4/UDP packet. Flow f fixes the addresses
// and ports; the rest of the payload comes from the generator.
func fleetPacket(r *rng, srcNode, dstNode, f int, srcHostBase byte) *packet.IPv4 {
	pay := make([]byte, payloadLen)
	for j := range pay {
		pay[j] = byte(r.next())
	}
	binary.BigEndian.PutUint16(pay[0:], uint16(4000+f))
	binary.BigEndian.PutUint16(pay[2:], 53)
	return &packet.IPv4{
		TTL: 64, Protocol: packet.ProtoUDP,
		Src:     service.FleetAddr(srcNode, srcHostBase+byte(f)),
		Dst:     service.FleetAddr(dstNode, 10+byte(f)),
		Payload: pay,
	}
}

// genTrains draws count legitimate trains from srcNode toward the
// victim over trainFlows flows.
func genTrains(seed int64, stream uint64, srcNode, count int) [][]*packet.IPv4 {
	r := newRNG(seed, stream)
	trains := make([][]*packet.IPv4, count)
	for t := range trains {
		trains[t] = make([]*packet.IPv4, trainPackets)
		for k := range trains[t] {
			trains[t][k] = fleetPacket(r, srcNode, fleetVictim, k%trainFlows, 20)
		}
	}
	return trains
}

// group is one send group awaiting accounting: a train (closed loop)
// or one tick's frames (open loop).
type group struct {
	cum      uint64 // wire packets accepted up to and including this group
	from     time.Time
	returned time.Time
}

// ledger matches send groups against the victim's counters.
type ledger struct {
	w        *fleetWorld
	base     uint64 // victim's accounted count when measuring began
	wire     uint64 // wire packets accepted since then
	cum      uint64 // the same, since the last write-off
	pending  []group
	latency  []float64 // ms, from group.from
	transit  []float64 // us, from group.returned
	lastMove time.Time
	lastAcc  uint64
}

func newLedger(w *fleetWorld) *ledger {
	return &ledger{w: w, base: w.accounted(), lastMove: time.Now()}
}

// sent books a group of n wire packets whose clock started at from.
func (l *ledger) sent(n uint64, from time.Time) {
	l.wire += n
	l.cum += n
	l.pending = append(l.pending, group{cum: l.cum, from: from, returned: time.Now()})
}

// observe retires every pending group the victim has fully accounted.
func (l *ledger) observe(now time.Time) {
	acc := l.w.accounted() - l.base
	if acc != l.lastAcc {
		l.lastAcc, l.lastMove = acc, now
	}
	n := 0
	for n < len(l.pending) && l.pending[n].cum <= acc {
		g := l.pending[n]
		l.latency = append(l.latency, float64(now.Sub(g.from))/1e6)
		l.transit = append(l.transit, float64(now.Sub(g.returned))/1e3)
		n++
	}
	l.pending = l.pending[n:]
}

// stalled reports that groups are pending and the victim's counters
// have not moved for the drain deadline: what is outstanding is lost.
func (l *ledger) stalled(now time.Time) bool {
	return len(l.pending) > 0 && now.Sub(l.lastMove) > drainDeadline
}

// writeOff books the outstanding packets as lost and starts afresh.
func (l *ledger) writeOff() (lost int64) {
	lost = int64(l.cum - l.lastAcc)
	l.base += l.lastAcc
	l.cum, l.lastAcc = 0, 0
	l.pending = l.pending[:0]
	l.lastMove = time.Now()
	return lost
}

// drain polls until nothing is pending or the deadline passes, and
// returns the packets that never got a fate.
func (l *ledger) drain() (lost int64) {
	deadline := time.Now().Add(drainDeadline)
	for {
		now := time.Now()
		l.observe(now)
		if len(l.pending) == 0 {
			return 0
		}
		if now.After(deadline) {
			return l.writeOff()
		}
		time.Sleep(pollInterval)
	}
}

// timed runs fn, records it as a span when tracing, and returns how
// long it took either way.
func timed(tk *track, name int, fn func()) time.Duration {
	start := time.Now()
	tk.begin(name)
	fn()
	tk.end()
	return time.Since(start)
}

// senderStats sums the transport counters of the given nodes' queues
// toward the victim.
func (w *fleetWorld) senderStats(nodes ...int) transport.PeerStats {
	var s transport.PeerStats
	for _, i := range nodes {
		ps, _ := w.f.Nodes[i].Transport().PeerStats(w.vic.Name())
		s.FramesSent += ps.FramesSent
		s.FramesDropped += ps.FramesDropped
		s.BytesSent += ps.BytesSent
		s.Redials += ps.Redials
		if ps.QueueDepth > s.QueueDepth {
			s.QueueDepth = ps.QueueDepth
		}
	}
	return s
}

func putTransport(res *result, before, after transport.PeerStats, queueMax int64, wirePkts uint64) {
	frames := after.FramesSent - before.FramesSent
	res.put("transport.frames_sent", float64(frames))
	res.put("transport.frames_dropped", float64(after.FramesDropped-before.FramesDropped))
	res.put("transport.bytes_sent", float64(after.BytesSent-before.BytesSent))
	res.put("transport.redials", float64(after.Redials-before.Redials))
	res.put("transport.queue_depth_max", float64(queueMax))
	if frames > 0 {
		res.put("transport.pkts_per_frame", float64(wirePkts)/float64(frames))
	}
}

// --- fleet-trains ----------------------------------------------------------

const (
	trainsWindow     = 8    // trains in flight
	trainsRound      = 8192 // trains per round: 2,097,152 packets
	trainsSlice      = 1024 // pkt_mpps is the median over slices of this many trains
	trainsPool       = 16
	trainsWarmup     = time.Second
	pairProbeSeconds = 2
)

func runFleetTrains(cfg runConfig) (*result, error) {
	res := newResult()
	w, setupS, err := setupFleet(2, cfg)
	if err != nil {
		return nil, err
	}
	defer w.f.Close()
	res.put("setup_s", setupS)

	src, dst := w.f.Nodes[0], w.vic.Name()
	trains := genTrains(cfg.seed, 2, 0, trainsPool)
	tk := cfg.tracer.newTrack()
	spSend, spWait := cfg.tracer.name("service.send_batch"), cfg.tracer.name("fleet.window_wait")

	var refused int64
	var sendNS time.Duration
	var queueMax int64
	next := 0
	// round sends n trains through the closed loop and drains; it
	// returns the slice rates and the packets lost.
	round := func(l *ledger, n, slice int, tk *track) (sliceMpps []float64, lost int64) {
		sliceStart, slicePkts := time.Now(), 0
		for t := 0; t < n; t++ {
			tk.begin(spWait)
			for len(l.pending) >= trainsWindow {
				now := time.Now()
				l.observe(now)
				if len(l.pending) < trainsWindow {
					break
				}
				if l.stalled(now) {
					lost += l.writeOff()
					break
				}
				time.Sleep(pollInterval)
			}
			tk.end()
			train := trains[next%len(trains)]
			next++
			var sent int
			start := time.Now()
			sendNS += timed(tk, spSend, func() { _, sent = src.SendPacketBatch(dst, train) })
			refused += int64(trainPackets - sent)
			l.sent(uint64(sent), start)
			slicePkts += sent
			if (t+1)%slice == 0 {
				if ps, ok := src.Transport().PeerStats(dst); ok && ps.QueueDepth > queueMax {
					queueMax = ps.QueueDepth
				}
				now := time.Now()
				sliceMpps = append(sliceMpps, float64(slicePkts)/now.Sub(sliceStart).Seconds()/1e6)
				sliceStart, slicePkts = now, 0
			}
		}
		lost += l.drain()
		return sliceMpps, lost
	}

	roundTrains := cfg.scaled(trainsRound, 32)
	sliceTrains := cfg.scaled(trainsSlice, 8)

	// Warm-up: connections, TLS sessions, pools and the scheduler settle
	// before anything is booked.
	warm := newLedger(w)
	for begin := time.Now(); time.Since(begin) < trainsWarmup/time.Duration(cfg.scale); {
		round(warm, sliceTrains, sliceTrains, nil)
	}

	// The traced run first measures one round with the tracer off, so
	// its overhead is a ratio of two measurements of the same process.
	var refMpps float64
	if cfg.traced() {
		s, _ := round(newLedger(w), roundTrains, sliceTrains, nil)
		refMpps = median(s)
	}

	refused, sendNS, queueMax = 0, 0, 0
	vicBase, srcBase := w.vic.Stats(), w.senderStats(0)
	vicRouter := fmt.Sprintf("as%d.", w.vic.AS())
	meter := startProcMeter()
	var sliceMpps, roundS, latency, transit []float64
	var wire uint64
	var offered, lost int64
	for begin := time.Now(); cfg.anotherRound(begin, roundS); {
		l := newLedger(w)
		start := time.Now()
		s, lo := round(l, roundTrains, sliceTrains, tk)
		roundS = append(roundS, time.Since(start).Seconds())
		sliceMpps = append(sliceMpps, s...)
		latency = append(latency, l.latency...)
		transit = append(transit, l.transit...)
		wire += l.wire
		lost += lo
		offered += int64(roundTrains * trainPackets)
	}
	cpu, _ := meter.putProc(res)

	// Oracle: every packet is legitimate, so every one must have been
	// stamped, carried, verified and delivered; and what went on the
	// wire must equal what the victim booked, fate by fate.
	vicNow := w.vic.Stats().Delta(vicBase)
	delivered := vicNow.Get(vicRouter + service.MetricNodeRxDelivered)
	dropped := vicNow.Get(vicRouter + service.MetricNodeRxDropped)
	overflow := vicNow.Get(vicRouter + service.MetricNodeRxOverflow)
	malformed := vicNow.Get(vicRouter + service.MetricNodeRxMalformed)
	verified := vicNow.Get(vicRouter + core.MetricRouterInVerified)
	// A train the transport refused or the victim's full queue threw
	// away is lost, and counted; every train is one frame, so the
	// overflow counter converts to packets exactly.
	res.lose(offered, refused+lost, "%d packets refused by the transport, %d not accounted within %v (%d frames overflowed the victim's queue)",
		refused, lost, drainDeadline, overflow)
	res.check(delivered == wire-overflow*trainPackets, "victim delivered %d of %d packets that reached it", delivered, wire-overflow*trainPackets)
	res.check(verified == delivered, "victim verified %d of the %d packets it delivered", verified, delivered)
	res.check(dropped == 0 && malformed == 0, "victim dropped %d and found %d malformed in all-legitimate traffic", dropped, malformed)
	res.check(wire == delivered+dropped+malformed+overflow*trainPackets,
		"conservation: %d on the wire, %d accounted", wire, delivered+dropped+malformed+overflow*trainPackets)
	if res.failed > 0 {
		res.note("%s", w.health())
	}

	res.put("pkt_mpps", median(sliceMpps))
	res.put("total_s", median(roundS))
	res.put("cpu_us_per_pkt", cpu.Seconds()*1e6/float64(offered))
	res.put("train_latency_p50_ms", median(latency))
	res.put("fleet.train_latency_p99_ms", percentile(latency, 99))
	res.put("fleet.train_latency_max_ms", percentile(latency, 100))
	res.put("service.transit_p50_us", median(transit))
	res.put("service.send_ns", float64(sendNS)/float64(offered))
	res.put("service.send_refused", float64(refused))
	res.put("service.rx_overflow", float64(overflow))
	res.put("service.rx_malformed", float64(malformed))
	res.put("service.rx_dropped", float64(dropped))
	putTransport(res, srcBase, w.senderStats(0), queueMax, wire)
	cfg.logf("  closed loop, %d trains of %d in flight: %d rounds of %d packets, %d train latencies",
		trainsWindow, trainPackets, len(roundS), roundTrains*trainPackets, len(latency))

	if !cfg.traced() {
		return res, nil
	}
	res.put("trace.overhead_ratio", refMpps/median(sliceMpps))
	frames := trainFrames(src.Name(), trains)
	res.put("transport.codec_ns", codecNS(frames, cfg.scaled(2000, 10)))
	for _, p := range []struct {
		name string
		tls  bool
	}{{"transport.pair_tls_mpps", true}, {"transport.pair_plain_mpps", false}} {
		mpps, err := pairMpps(frames, p.tls, time.Duration(pairProbeSeconds)*time.Second/time.Duration(cfg.scale))
		if err != nil {
			return nil, err
		}
		res.put(p.name, mpps)
	}
	routerNS, err := routerOnlyNS(cfg)
	if err != nil {
		return nil, err
	}
	res.put("service.outside_router_share", 1-routerNS/(cpu.Seconds()*1e9/float64(offered)))
	return res, nil
}

// trainFrames packs trains the way Node.SendPacketBatch does (u16
// length, then the marshalled packet), so the transport can be driven
// with the run's own frames and nothing else.
func trainFrames(from string, trains [][]*packet.IPv4) []transport.Frame {
	frames := make([]transport.Frame, len(trains))
	for i, tr := range trains {
		var data []byte
		for _, p := range tr {
			b, err := p.Marshal()
			if err != nil {
				panic(err)
			}
			data = binary.BigEndian.AppendUint16(data, uint16(len(b)))
			data = append(data, b...)
		}
		frames[i] = transport.Frame{Kind: service.FrameKindDataBurst, From: from, Data: data}
	}
	return frames
}

// codecNS is the frame codec's cost per carried packet: AppendFrame
// then ReadFrame over the run's train frames.
func codecNS(frames []transport.Frame, reps int) float64 {
	var buf []byte
	start := time.Now()
	for i := 0; i < reps; i++ {
		var err error
		buf, err = transport.AppendFrame(buf[:0], frames[i%len(frames)])
		if err != nil {
			panic(err)
		}
		if _, err := transport.ReadFrame(bytes.NewReader(buf)); err != nil {
			panic(err)
		}
	}
	return float64(time.Since(start)) / float64(reps*trainPackets)
}

// pairMpps carries the frames over a bare transport.TCP pair, no
// service node on either end, for the given time and returns the
// packet rate the receiver saw.
func pairMpps(frames []transport.Frame, tls bool, d time.Duration) (float64, error) {
	a, err := transport.NewTCP(transport.TCPOptions{Addr: "127.0.0.1:0", TLS: tls})
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := transport.NewTCP(transport.TCPOptions{Addr: "127.0.0.1:0", TLS: tls})
	if err != nil {
		return 0, err
	}
	defer b.Close()
	var mu sync.Mutex
	var got int
	if err := b.Start(func(transport.Frame) { mu.Lock(); got++; mu.Unlock() }); err != nil {
		return 0, err
	}
	if err := a.Start(func(transport.Frame) {}); err != nil {
		return 0, err
	}
	a.SetPeer("b", b.Addr())
	received := func() int { mu.Lock(); defer mu.Unlock(); return got }
	// The first frame dials; wait for it so the clock sees a live pair.
	for deadline := time.Now().Add(5 * time.Second); received() == 0; {
		a.Send("b", frames[0])
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("bench: transport pair never connected")
		}
		time.Sleep(time.Millisecond)
	}
	base, start := received(), time.Now()
	for i := 0; time.Since(start) < d; i++ {
		if !a.Send("b", frames[i%len(frames)]) {
			time.Sleep(pollInterval) // queue full: let the worker drain
		}
	}
	return float64((received()-base)*trainPackets) / time.Since(start).Seconds() / 1e6, nil
}

// routerOnlyNS is the in-process cost per packet of the two router
// calls a fleet packet goes through (outbound batch at the source,
// inbound batch at the victim) on already-parsed packets: the part of
// a fleet round trip that is the router, for outside_router_share.
func routerOnlyNS(cfg runConfig) (float64, error) {
	w, err := newRouterWorld(fastpathShape, cfg)
	if err != nil {
		return 0, err
	}
	pl := newPipeline(w)
	pl.parsePeer(0, burstSize)
	var vd []core.Verdict
	reps := cfg.scaled(20000, 10)
	start := time.Now()
	for i := 0; i < reps; i++ {
		vd = w.peer.ProcessOutboundBatch(pl.carriers, w.now, vd[:0])
		vd = w.edges[0].ProcessInboundBatch(pl.carriers, w.now, vd[:0])
	}
	if vd[0] != core.VerdictPassVerified {
		return 0, fmt.Errorf("bench: router replay verdict %v", vd[0])
	}
	return float64(time.Since(start)) / float64(reps*burstSize), nil
}

// --- fleet-attack-mix ------------------------------------------------------

const (
	tickPeriod    = 4 * time.Millisecond / 3 // 1000 packets a tick: 0.75 Mpps
	tickTrains    = 3                        // 768 legitimate packets in trains
	tickSpoofed   = 128                      // one batch that must die at the source
	tickRaw       = 64                       // InjectRaw frames: unstamped, dropped by the victim
	tickPerPacket = 40                       // SendPacket frames: legitimate, one frame each
	invokeEvery   = 20 * time.Millisecond
	// mitigationPoll is how often the invoker looks at the peers' tables.
	// Each look takes both peers' event-loop locks, which their control
	// frames need too; at 20 us the looks starved the control plane until
	// heartbeats were missed and peers declared dead (about one run in
	// five), at 100 us twenty-two runs in a row went through.
	mitigationPoll = 100 * time.Microsecond
	mixPool        = 8 // distinct ticks' worth of generated packets, cycled
	// mixBacklog is how many packets may be on their way to the victim
	// before the generator holds the next tick back: four ticks' worth,
	// some 430 frames, which the senders' queues (256 frames each) and
	// the victim's (1024) hold without dropping.
	mixBacklog = 4 * (tickTrains*trainPackets + tickRaw + tickPerPacket)
)

// tickPackets is one tick's offered load, and attackMixMpps the rate it
// makes with tickPeriod. The issue fixes the rate at 1.0 Mpps (a 1 ms
// tick) unless more than 5% of ticks run late on the defining box, in
// which case it steps down by 0.25 once and never changes again. They
// did (README.md has the measurements), so the tick is 4/3 ms and the
// rate 0.75 Mpps, for good.
const (
	tickPackets   = tickTrains*trainPackets + tickSpoofed + tickRaw + tickPerPacket
	attackMixMpps = float64(tickPackets) * float64(time.Microsecond) / float64(tickPeriod)
)

// mixInputs is the generated material of fleet-attack-mix: per sending
// node, pools of trains, spoofed batches, raw and per-packet packets.
type mixInputs struct {
	trains  [2][][]*packet.IPv4
	spoofed [2][][]*packet.IPv4
	raw     [2][]*packet.IPv4
	perPkt  [2][]*packet.IPv4
}

var mixSenders = [2]int{0, 2}

func genMix(seed int64) *mixInputs {
	in := &mixInputs{}
	for s, node := range mixSenders {
		in.trains[s] = genTrains(seed, uint64(10+s), node, mixPool*2)
		r := newRNG(seed, uint64(20+s))
		in.spoofed[s] = make([][]*packet.IPv4, mixPool)
		for b := range in.spoofed[s] {
			for k := 0; k < tickSpoofed; k++ {
				// Claims the victim's own address space from outside it.
				p := fleetPacket(r, fleetVictim, fleetVictim, k%trainFlows, 100)
				in.spoofed[s][b] = append(in.spoofed[s][b], p)
			}
		}
		for k := 0; k < mixPool*tickRaw; k++ {
			in.raw[s] = append(in.raw[s], fleetPacket(r, node, fleetVictim, k%trainFlows, 120))
		}
		for k := 0; k < mixPool*tickPerPacket; k++ {
			in.perPkt[s] = append(in.perPkt[s], fleetPacket(r, node, fleetVictim, k%trainFlows, 20))
		}
	}
	return in
}

// invokePrefix is the i-th fresh /28 of the victim's /16, away from
// the addresses the traffic uses.
func invokePrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, fleetVictim, byte(16 + i/16%240), byte(i % 16 * 16)}), 28)
}

// invoker has the victim invoke DP+CDP on a fresh prefix every
// invokeEvery and times how long until both operations are active in
// every peer's outbound table.
type invoker struct {
	w       *fleetWorld
	tk      *track
	spCall  int
	stop    chan struct{}
	done    chan struct{}
	latency []float64 // ms
	callUS  []float64
	failed  int64
	note    string
}

func (iv *invoker) run(start time.Time) {
	defer close(iv.done)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * invokeEvery)
		select {
		case <-iv.stop:
			return
		case <-time.After(time.Until(due)):
		}
		pfx := invokePrefix(i)
		invs := []core.Invocation{
			{Prefixes: []netip.Prefix{pfx}, Function: core.DP, Duration: time.Hour},
			{Prefixes: []netip.Prefix{pfx}, Function: core.CDP, Duration: time.Hour},
		}
		t0 := time.Now()
		var err error
		call := timed(iv.tk, iv.spCall, func() { _, err = iv.w.vic.Invoke(invs...) })
		iv.callUS = append(iv.callUS, float64(call)/1e3)
		if err != nil {
			iv.failed++
			iv.note = err.Error()
			continue
		}
		probe := pfx.Addr().Next()
		for {
			active := true
			for j, n := range iv.w.f.Nodes {
				if j == fleetVictim {
					continue
				}
				n.Do(func(_ *core.Controller, r *core.BorderRouter) {
					ops, _ := r.Tables.In[core.TableOutDst].ActiveOps(probe, n.Now())
					if !ops.Has(core.OpDPFilter) || !ops.Has(core.OpCDPStamp) {
						active = false
					}
				})
			}
			if active {
				iv.latency = append(iv.latency, float64(time.Since(t0))/1e6)
				break
			}
			if time.Since(t0) > drainDeadline {
				iv.failed++
				iv.note = fmt.Sprintf("invocation %d (%v) not active at every peer within %v", i, pfx, drainDeadline)
				break
			}
			nap(mitigationPoll)
		}
	}
}

func runFleetAttackMix(cfg runConfig) (*result, error) {
	res := newResult()
	w, setupS, err := setupFleet(3, cfg)
	if err != nil {
		return nil, err
	}
	defer w.f.Close()
	res.put("setup_s", setupS)

	in := genMix(cfg.seed)
	dst := w.vic.Name()
	tk := cfg.tracer.newTrack()
	iv := &invoker{
		w: w, tk: cfg.tracer.newTrack(), spCall: cfg.tracer.name("service.invoke_call"),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	spTrains, spSmall := cfg.tracer.name("service.send_batch"), cfg.tracer.name("service.send_perpkt")

	// The per-packet rate is what is fixed; the number of ticks follows
	// from the time the driver gives.
	ticks := cfg.scaled(int(cfg.budget()/tickPeriod), 20)

	var (
		legitWire, rawWire, refused, gaveUp, spoofLeaked int64
		lostInLoop                                       int64
		trainNS, smallNS                                 time.Duration
		lateMS                                           []float64
		lateTicks, queueMax                              int64
	)
	vicBase := w.vic.Stats()
	srcBase := w.senderStats(mixSenders[:]...)
	var srcRouterBase [2]core.RouterStats
	for s, node := range mixSenders {
		w.f.Nodes[node].Do(func(_ *core.Controller, r *core.BorderRouter) { srcRouterBase[s] = r.Stats() })
	}
	l := newLedger(w)
	meter := startProcMeter()
	start := time.Now()
	go iv.run(start)

	k := 0 // ticks sent
	for ; k < ticks && gaveUp == 0; k++ {
		due := start.Add(time.Duration(k) * tickPeriod)
		// Sleep up to the tick's due time in short steps, retiring
		// completed ticks on each wake; the generator never spins. A
		// tick also waits while more than mixBacklog packets are on
		// their way: the victim's inbound queue drops what does not fit,
		// so a box that stalls for 15 ms would otherwise turn into lost
		// packets; held back, it turns into a late tick and a long
		// latency, both timed from the due time, and nothing is lost.
		var now time.Time
		for {
			now = time.Now()
			l.observe(now)
			backlog := l.cum-l.lastAcc > mixBacklog
			if backlog && l.stalled(now) {
				lostInLoop += l.writeOff()
				backlog = false
			}
			if !now.Before(due) && !backlog {
				break
			}
			step := 100 * time.Microsecond
			if wait := due.Sub(now); wait > 0 && wait < step {
				step = wait
			}
			nap(step)
		}
		late := now.Sub(due)
		lateMS = append(lateMS, float64(late)/1e6)
		if late > tickPeriod {
			lateTicks++
		}

		// Even ticks: node 0 carries two trains, the spoofed batch and
		// the raw frames, node 2 one train and the per-packet frames;
		// odd ticks swap, so both peers' queues see every frame size.
		a, b := k%2, 1-k%2
		na, nb := w.f.Nodes[mixSenders[a]], w.f.Nodes[mixSenders[b]]
		// The transport's Send never blocks: a full per-peer queue
		// refuses the frame. The generator does what a sender must,
		// offers the frame again after a nap long enough for the send
		// worker to write a batch, while the tick schedule runs on; the
		// delay lands in the tick's latency. A frame still refused at
		// the drain deadline is a failed operation, and ends the run:
		// the fleet is not carrying traffic any more.
		offer := func(pkts int, send func() bool) bool {
			for first := time.Now(); gaveUp == 0 && !send(); nap(tickPeriod / 4) {
				refused += int64(pkts)
				if time.Since(first) > drainDeadline {
					gaveUp += int64(pkts)
				}
			}
			return gaveUp == 0
		}
		var wire uint64
		trainNS += timed(tk, spTrains, func() {
			for t := 0; t < tickTrains; t++ {
				s, n := a, na
				if t == tickTrains-1 {
					s, n = b, nb
				}
				train := in.trains[s][(k*2+t)%len(in.trains[s])]
				if offer(trainPackets, func() bool { _, sent := n.SendPacketBatch(dst, train); return sent == trainPackets }) {
					wire += trainPackets
					legitWire += trainPackets
				}
			}
			stamped, sent := na.SendPacketBatch(dst, in.spoofed[a][k%mixPool])
			spoofLeaked += int64(stamped + sent)
		})
		smallNS += timed(tk, spSmall, func() {
			for j := 0; j < tickRaw; j++ {
				p := in.raw[a][(k*tickRaw+j)%len(in.raw[a])]
				if offer(1, func() bool { return na.InjectRaw(dst, p) }) {
					wire++
					rawWire++
				}
			}
			for j := 0; j < tickPerPacket; j++ {
				p := in.perPkt[b][(k*tickPerPacket+j)%len(in.perPkt[b])]
				if offer(1, func() bool { v, ok := nb.SendPacket(dst, p); return ok && v == core.VerdictPassStamped }) {
					wire++
					legitWire++
				}
			}
		})
		l.sent(wire, due)
		if k%16 == 0 {
			if d := w.senderStats(mixSenders[:]...).QueueDepth; d > queueMax {
				queueMax = d
			}
		}
	}
	lost := lostInLoop + l.drain()
	close(iv.stop)
	<-iv.done
	cpu, wall := meter.putProc(res)

	// Oracle, from the generator's own counts: legitimate packets are
	// delivered, raw ones die at the victim's verifier, spoofed ones at
	// their source's filter, and the wire is conserved.
	offered := int64(k) * tickPackets
	vicPrefix := fmt.Sprintf("as%d.", w.vic.AS())
	vicNow := w.vic.Stats().Delta(vicBase)
	delivered := int64(vicNow.Get(vicPrefix + service.MetricNodeRxDelivered))
	dropped := int64(vicNow.Get(vicPrefix + service.MetricNodeRxDropped))
	overflow := int64(vicNow.Get(vicPrefix + service.MetricNodeRxOverflow))
	malformed := int64(vicNow.Get(vicPrefix + service.MetricNodeRxMalformed))
	var srcDropped int64
	for s, node := range mixSenders {
		w.f.Nodes[node].Do(func(_ *core.Controller, r *core.BorderRouter) {
			srcDropped += int64(r.Stats().OutDropped - srcRouterBase[s].OutDropped)
		})
	}
	res.lose(offered, gaveUp+lost, "%d packets still refused by the transport after %v, %d not accounted within it (%d frames overflowed the victim's queue)",
		gaveUp, drainDeadline, lost, overflow)
	res.violate(0, spoofLeaked, "%d spoofed packets passed their source", spoofLeaked)
	// Frames here differ in size, so an overflowed frame does not say
	// how many packets it held; what the victim may never do is deliver
	// or drop more than was sent of each kind, or lose a packet without
	// counting the frame it threw away.
	res.check(delivered <= legitWire && dropped <= rawWire,
		"victim delivered %d of %d legitimate packets on the wire and dropped %d of %d unstamped ones", delivered, legitWire, dropped, rawWire)
	res.check(malformed == 0 && (overflow > 0 || legitWire+rawWire == delivered+dropped),
		"conservation: %d on the wire, victim delivered %d + dropped %d, %d frames overflowed, %d malformed",
		legitWire+rawWire, delivered, dropped, overflow, malformed)
	res.check(srcDropped == int64(k)*tickSpoofed, "sources filtered %d of %d spoofed packets", srcDropped, int64(k)*tickSpoofed)
	res.lose(int64(len(iv.callUS)), iv.failed, "%s", iv.note)
	if res.failed > 0 {
		res.note("%s", w.health())
	}

	res.put("pkt_mpps", float64(offered-gaveUp-lost)/wall.Seconds()/1e6)
	res.put("total_s", wall.Seconds())
	res.put("cpu_us_per_pkt", cpu.Seconds()*1e6/float64(offered))
	res.put("train_latency_p50_ms", median(l.latency))
	res.put("fleet.train_latency_p99_ms", percentile(l.latency, 99))
	res.put("fleet.train_latency_max_ms", percentile(l.latency, 100))
	res.put("mitigation_p50_ms", median(iv.latency))
	res.put("fleet.mitigation_p90_ms", percentile(iv.latency, 90))
	res.put("fleet.gen_late_p99_ms", percentile(lateMS, 99))
	res.put("fleet.gen_late_ticks", float64(lateTicks))
	res.put("service.transit_p50_us", median(l.transit))
	res.put("service.send_ns", float64(trainNS)/float64(int64(k)*(tickTrains*trainPackets+tickSpoofed)))
	res.put("service.send_perpkt_ns", float64(smallNS)/float64(int64(k)*(tickRaw+tickPerPacket)))
	res.put("service.invoke_call_us", median(iv.callUS))
	res.put("service.send_refused", float64(refused))
	res.put("service.rx_overflow", float64(overflow))
	res.put("service.rx_malformed", float64(malformed))
	res.put("service.rx_dropped", float64(dropped))
	putTransport(res, srcBase, w.senderStats(mixSenders[:]...), queueMax, uint64(legitWire+rawWire))
	cfg.logf("  open loop, %.2f Mpps offered in %d ticks of %v: %d of them more than a tick late (%.1f%%), %d invocations",
		attackMixMpps, k, tickPeriod, lateTicks, 100*float64(lateTicks)/float64(k), len(iv.callUS))

	if cfg.traced() {
		// An open loop cannot spare an untraced reference run of the
		// same length; its overhead is the spans it recorded times what
		// a span costs here, over the CPU the run used.
		res.put("trace.overhead_ratio", cfg.tracer.estimatedOverhead(cpu))
	}
	return res, nil
}
