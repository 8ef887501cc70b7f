package service

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/obs"
	"discs/internal/packet"
	"discs/internal/topology"
	"discs/internal/transport"
)

// FrameKindData is the transport frame kind carrying one marshaled
// IPv4 packet between node data planes. It sits above the control
// frame range (core.IsControlFrameKind) so both planes multiplex onto
// one connection, the way con-con records and forwarded traffic share
// the one Internet in the paper's deployment.
const FrameKindData uint8 = 0x80

// FrameKindDataBurst carries a packet train: repeated 2-byte
// big-endian length prefixes, each followed by one marshaled IPv4
// packet. One train costs one transport frame end to end — one frame
// encode, one coalesced write, one read, one handler dispatch — and
// the receiver feeds the whole train to core.ProcessInboundBatch in
// one call, the service-mode analogue of netsim's link-train delivery.
const FrameKindDataBurst uint8 = 0x81

// Node metric names, published under the node's "as<N>." scope next to
// the ctrl.* and router.* families.
const (
	MetricNodeRxDelivered = "node.rx_delivered"
	MetricNodeRxDropped   = "node.rx_dropped"
	MetricNodeRxMalformed = "node.rx_malformed"
	// MetricNodeRxOverflow counts inbound data frames dropped because
	// the data-plane queue was full — backpressure made visible
	// instead of an unbounded backlog.
	MetricNodeRxOverflow = "node.rx_overflow"
)

// inboundItem is one queued unit of inbound data-plane work: a raw
// packet (FrameKindData) or a whole train (FrameKindDataBurst).
type inboundItem struct {
	b     []byte
	train bool
}

// inboundBatchItems caps how many queued items one worker iteration
// drains before processing; a train counts as one item however many
// packets it carries.
const inboundBatchItems = 64

// Node hosts one DAS as a live process: controller, border-router data
// plane, TCP(+TLS) transport and admin HTTP. Controller and router
// *table* access is serialized under mu — the event loop the simulator
// used to provide, rebuilt on a mutex. The data plane is deliberately
// outside that loop: inbound data frames are queued to a worker pool
// that parses and batch-verifies them against the router's lock-free
// table snapshots (DESIGN.md §8), so a burst of traffic never stalls
// peering, heartbeats or reloads, and vice versa.
type Node struct {
	mu      sync.Mutex
	cfg     Config
	ctrl    *core.Controller
	router  *core.BorderRouter
	dir     *core.Directory
	tr      *transport.TCP
	reg     *obs.Registry
	start   time.Time
	started bool
	closed  bool

	dataCh  chan inboundItem
	workers int
	wg      sync.WaitGroup

	rxDelivered *obs.Counter
	rxDropped   *obs.Counter
	rxMalformed *obs.Counter
	rxOverflow  *obs.Counter

	// Alarm samples raised by inbound workers wait here for the event
	// loop: the controller's sample handler (onAlarm) must not run on a
	// worker goroutine.
	alarmMu sync.Mutex
	alarms  []core.AlarmSample
	onAlarm func(core.AlarmSample)

	admin *adminServer
}

// wallRuntime binds a controller to the wall clock: Now is the offset
// since node start (the service analogue of simulated time), timers
// are time.AfterFunc callbacks re-serialized onto the node's event
// loop. After and AfterBackground coincide — a real process has no
// run-to-quiescence to preserve.
type wallRuntime struct{ n *Node }

func (r wallRuntime) Now() time.Duration { return time.Since(r.n.start) }
func (r wallRuntime) After(d time.Duration, fn func()) {
	time.AfterFunc(d, func() { r.n.do(fn) })
}
func (r wallRuntime) AfterBackground(d time.Duration, fn func()) { r.After(d, fn) }

// do runs fn on the node's event loop unless the node is closed. Timer
// callbacks outliving Close become no-ops, mirroring how crashing a
// simulated node kills its pending timers.
func (n *Node) do(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.closed {
		fn()
	}
}

// queueAlarm is the router's OnAlarm hook: it runs wherever the packet
// is processed, usually an inbound worker, so it only queues.
func (n *Node) queueAlarm(s core.AlarmSample) {
	n.alarmMu.Lock()
	n.alarms = append(n.alarms, s)
	n.alarmMu.Unlock()
}

// takeAlarms empties the sample queue.
func (n *Node) takeAlarms() []core.AlarmSample {
	n.alarmMu.Lock()
	defer n.alarmMu.Unlock()
	s := n.alarms
	n.alarms = nil
	return s
}

// flushAlarms hands the queued samples to the event loop in one hop.
func (n *Node) flushAlarms() {
	if s := n.takeAlarms(); len(s) > 0 {
		n.do(func() { n.handleAlarms(s) })
	}
}

// handleAlarms feeds samples to the controller on the event loop. A
// router samples only while in alarm mode, and a detection quits it
// synchronously in the simulator; here the samples of one batch arrive
// together, so those behind a detection are dropped as the simulator
// would never have raised them.
func (n *Node) handleAlarms(samples []core.AlarmSample) {
	for _, s := range samples {
		if !n.router.AlarmModeOn() {
			return
		}
		n.onAlarm(s)
	}
}

// testDialHook, when non-nil, overrides the transport dialer of every
// node built afterwards — the in-package test seam for hanging dials
// and fault injection. Nil in production.
var testDialHook func(ctx context.Context, addr string) (net.Conn, error)

// NewNode builds a node from config: binds the transport and admin
// listeners (so Addr/AdminAddr are concrete even with ":0" configs),
// constructs the controller in service mode and registers the pinned
// peer directory entries. Nothing runs until Start.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := cfg.topology()
	if err != nil {
		return nil, err
	}
	id, err := NodeIdentity(cfg.Name, cfg.Seed)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:   cfg,
		dir:   core.NewDirectory(),
		reg:   obs.NewRegistry(),
		start: time.Now(),
	}
	scope := fmt.Sprintf("as%d.", cfg.AS)
	sc := n.reg.Scope(scope)
	n.rxDelivered = sc.Counter(MetricNodeRxDelivered)
	n.rxDropped = sc.Counter(MetricNodeRxDropped)
	n.rxMalformed = sc.Counter(MetricNodeRxMalformed)
	n.rxOverflow = sc.Counter(MetricNodeRxOverflow)

	n.workers = cfg.InboundWorkers
	if n.workers <= 0 {
		n.workers = runtime.GOMAXPROCS(0)
		if n.workers > 4 {
			n.workers = 4
		}
	}
	queue := cfg.InboundQueue
	if queue <= 0 {
		queue = 1024
	}
	n.dataCh = make(chan inboundItem, queue)

	tr, err := transport.NewTCP(transport.TCPOptions{
		Addr: cfg.Listen, TLS: cfg.TLS,
		DialTimeout: time.Duration(cfg.DialTimeoutMS) * time.Millisecond,
		SendQueue:   cfg.SendQueue,
		Registry:    n.reg, Scope: scope,
		Dial: testDialHook,
	})
	if err != nil {
		return nil, err
	}
	n.tr = tr

	ctrl, err := core.NewControllerWithOptions(core.ControllerOptions{
		AS: topology.ASN(cfg.AS), Name: cfg.Name,
		Conn: tr, Runtime: wallRuntime{n},
		Dir: n.dir, Topo: topo,
		Config: cfg.coreConfig(), Seed: cfg.Seed,
		Identity: id, Registry: n.reg, Scope: scope,
	})
	if err != nil {
		tr.Close()
		return nil, err
	}
	n.ctrl = ctrl
	router, err := core.NewBorderRouterWithOptions(core.RouterOptions{
		Tables: core.NewTables(topology.ASN(cfg.AS), topo.Pfx2AS()),
		Seed:   cfg.Seed ^ 0x5eed, Registry: n.reg, Scope: scope,
		AS: topology.ASN(cfg.AS),
	})
	if err != nil {
		tr.Close()
		return nil, err
	}
	n.router = router
	ctrl.AttachRouter(router)
	n.onAlarm, router.OnAlarm = router.OnAlarm, n.queueAlarm

	if err := n.registerPeers(cfg.Peers); err != nil {
		tr.Close()
		return nil, err
	}
	if cfg.Admin != "" {
		admin, err := newAdminServer(cfg.Admin, n)
		if err != nil {
			tr.Close()
			return nil, err
		}
		n.admin = admin
	}
	return n, nil
}

// registerPeers pins peer directory entries and transport addresses.
// Entries are registered once (the directory rejects duplicates);
// addresses update freely.
func (n *Node) registerPeers(peers []PeerConfig) error {
	for _, p := range peers {
		if p.Addr != "" {
			n.tr.SetPeer(p.Name, p.Addr)
		}
		if n.dir.Lookup(p.Name) != nil {
			continue
		}
		pub, err := p.pub()
		if err != nil {
			return err
		}
		if err := n.dir.Register(&core.DirEntry{
			Name: p.Name, ASN: topology.ASN(p.AS), Pub: pub,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Start begins operation: the data-plane worker pool spins up, the
// transport delivers frames, the admin endpoint serves, and the pinned
// peers are announced to the controller as static DISCS-Ads (the
// service-mode stand-in for BGP discovery), which kicks off peering,
// key negotiation and heartbeats. Announcing costs no dials: the
// transport's per-peer workers own connection establishment, so Start
// returns promptly however many peers are unreachable.
func (n *Node) Start() error {
	for i := 0; i < n.workers; i++ {
		n.wg.Add(1)
		go n.inboundWorker()
	}
	if err := n.tr.Start(n.handleFrame); err != nil {
		return err
	}
	if n.admin != nil {
		n.admin.serve()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.started = true
	for _, p := range n.cfg.Peers {
		n.ctrl.HandleAd(bgp.DISCSAd{Origin: topology.ASN(p.AS), Controller: p.Name})
	}
	return nil
}

// handleFrame is the transport inbound path: control frames go to the
// controller state machine on the event loop; data frames and trains
// bypass the mutex entirely and queue to the data-plane worker pool,
// dropping (counted) when the queue is full.
func (n *Node) handleFrame(f transport.Frame) {
	switch {
	case core.IsControlFrameKind(f.Kind):
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.closed {
			return
		}
		n.ctrl.HandleFrame(f)
	case f.Kind == FrameKindData, f.Kind == FrameKindDataBurst:
		select {
		case n.dataCh <- inboundItem{b: f.Data, train: f.Kind == FrameKindDataBurst}:
		default:
			n.rxOverflow.Inc()
		}
	}
}

// inboundWorker drains the data queue, coalescing queued frames and
// unpacking trains into one inbound batch per iteration, then runs
// the batch through the router's fused burst pipeline. Counters are
// sharded atomics and table snapshots are copy-on-write, so any
// number of workers runs concurrently with each other and with the
// control plane.
func (n *Node) inboundWorker() {
	defer n.wg.Done()
	items := make([]inboundItem, 0, inboundBatchItems)
	var rx rxBatch
	for first := range n.dataCh {
		items = append(items[:0], first)
	drain:
		for len(items) < inboundBatchItems {
			select {
			case it, ok := <-n.dataCh:
				if !ok {
					break drain
				}
				items = append(items, it)
			default:
				break drain
			}
		}
		n.processGulp(&rx, items)
	}
}

// processGulp decodes one gulp of queued items into rx and runs it
// through ProcessInboundBatch, booking the fates. Alarm samples the
// batch raised go to the event loop in one hop.
func (n *Node) processGulp(rx *rxBatch, items []inboundItem) {
	rx.reset()
	for _, it := range items {
		if it.train {
			rx.addTrain(it.b)
		} else {
			rx.addPacket(it.b)
		}
	}
	if rx.malformed > 0 {
		n.rxMalformed.Add(rx.malformed)
	}
	if len(rx.carriers) == 0 {
		return
	}
	rx.verdicts = n.router.ProcessInboundBatch(rx.carriers, n.Now(), rx.verdicts[:0])
	var delivered, dropped uint64
	alarmed := false
	for _, v := range rx.verdicts {
		if v.Dropped() {
			dropped++
		} else {
			delivered++
		}
		alarmed = alarmed || v == core.VerdictPassAlarm
	}
	if delivered > 0 {
		n.rxDelivered.Add(delivered)
	}
	if dropped > 0 {
		n.rxDropped.Add(dropped)
	}
	if alarmed {
		n.flushAlarms()
	}
}

// rxBatch is one inbound worker's reusable decode state. Packets are
// parsed into slab entries in place, so steady-state decoding allocates
// nothing: an entry lives until the worker's next batch overwrites it,
// and its Payload aliases the frame it was parsed from.
type rxBatch struct {
	slab      []packet.IPv4
	carriers  []core.MarkCarrier // carriers[i] points at slab[i]
	verdicts  []core.Verdict
	malformed uint64
}

func (rx *rxBatch) reset() {
	rx.carriers = rx.carriers[:0]
	rx.malformed = 0
}

// addPacket parses one raw packet into the next slab entry and appends
// its carrier, or counts it malformed.
func (rx *rxBatch) addPacket(b []byte) {
	i := len(rx.carriers)
	if i == len(rx.slab) {
		// Grown slabs keep the old array alive only while this batch's
		// carriers still point into it.
		rx.slab = append(rx.slab, packet.IPv4{})
		rx.slab = rx.slab[:cap(rx.slab)]
	}
	p := &rx.slab[i]
	if packet.ParseIPv4Into(p, b) != nil {
		rx.malformed++
		return
	}
	rx.carriers = append(rx.carriers, core.V4{P: p})
}

// addTrain decodes a FrameKindDataBurst payload: repeated 2-byte
// length prefixes, each followed by one packet. Every record becomes
// exactly one carrier or one malformed count; a zero or overrunning
// length (or a lone trailing byte) is one malformed record and ends
// the train, since nothing after it can be framed.
func (rx *rxBatch) addTrain(b []byte) {
	for len(b) >= 2 {
		l := int(binary.BigEndian.Uint16(b))
		if l == 0 || 2+l > len(b) {
			rx.malformed++
			return
		}
		rx.addPacket(b[2 : 2+l])
		b = b[2+l:]
	}
	if len(b) == 1 {
		rx.malformed++
	}
}

// Now is the node's data-plane clock: the same epoch-offset mapping
// the controller uses, so invocation windows line up.
func (n *Node) Now() time.Time {
	return time.Unix(0, 0).UTC().Add(time.Since(n.start))
}

// SendPacket pushes one IPv4 packet out through this AS's border
// router toward the named peer node: outbound processing (DP filter,
// CDP stamp, ...) first, then the wire. It returns the outbound
// verdict and whether the frame was accepted by the transport.
func (n *Node) SendPacket(dst string, p *packet.IPv4) (core.Verdict, bool) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return core.VerdictDrop, false
	}
	v := n.router.ProcessOutbound(core.V4{P: p}, n.Now())
	n.mu.Unlock()
	if v.Dropped() {
		return v, false
	}
	return v, n.sendOne(dst, p)
}

// maxTrainBytes caps one train frame's payload so it stays well under
// transport.MaxFrameSize and packs neatly into the transport's
// coalesced writes.
const maxTrainBytes = 48 << 10

// sendScratch is the reusable state of one send call: the carriers and
// verdicts of a ProcessOutboundBatch pass and the buffer packets are
// marshalled into. transport.TCP.Send copies the frame, so the buffer
// is free again as soon as Send returns.
type sendScratch struct {
	carriers []core.MarkCarrier
	verdicts []core.Verdict
	buf      []byte
}

var sendPool = sync.Pool{New: func() any {
	return &sendScratch{buf: make([]byte, 0, maxTrainBytes)}
}}

// SendPacketBatch pushes a packet train toward the named peer: one
// ProcessOutboundBatch call over the router's fused burst pipeline,
// then the surviving packets marshalled straight into
// FrameKindDataBurst frames — one transport frame (and at the far end
// one inbound batch) per train instead of per packet. It returns how
// many packets were stamped and how many went out in accepted trains.
func (n *Node) SendPacketBatch(dst string, pkts []*packet.IPv4) (stamped, sent int) {
	if len(pkts) == 0 {
		return 0, 0
	}
	s := sendPool.Get().(*sendScratch)
	defer sendPool.Put(s)
	for _, p := range pkts {
		s.carriers = append(s.carriers, core.V4{P: p})
	}
	n.mu.Lock()
	closed := n.closed
	if !closed {
		s.verdicts = n.router.ProcessOutboundBatch(s.carriers, n.Now(), s.verdicts[:0])
	}
	n.mu.Unlock()
	clear(s.carriers) // don't pin the caller's packets in the pool
	s.carriers = s.carriers[:0]
	if closed {
		return 0, 0
	}

	train, pending := s.buf[:0], 0
	for i, v := range s.verdicts {
		if v.Dropped() {
			continue
		}
		if v == core.VerdictPassStamped {
			stamped++
		}
		rec := len(train)
		var err error
		train, err = pkts[i].AppendMarshal(binary.BigEndian.AppendUint16(train, 0))
		if err != nil {
			train = train[:rec]
			continue
		}
		binary.BigEndian.PutUint16(train[rec:], uint16(len(train)-rec-2))
		if len(train) > maxTrainBytes && pending > 0 {
			// The record overflows this train: ship the train without
			// it, and start the next one with it.
			if n.sendTrain(dst, train[:rec]) {
				sent += pending
			}
			train, pending = train[:copy(train, train[rec:])], 0
		}
		pending++
	}
	if n.sendTrain(dst, train) {
		sent += pending
	}
	s.buf = train
	return stamped, sent
}

// sendTrain ships one train frame; an empty train sends nothing.
func (n *Node) sendTrain(dst string, train []byte) bool {
	return len(train) > 0 && n.tr.Send(dst, transport.Frame{Kind: FrameKindDataBurst, From: n.cfg.Name, Data: train})
}

// sendOne ships one packet as a FrameKindData frame, marshalled into a
// pooled buffer.
func (n *Node) sendOne(dst string, p *packet.IPv4) bool {
	s := sendPool.Get().(*sendScratch)
	defer sendPool.Put(s)
	b, err := p.AppendMarshal(s.buf[:0])
	if err != nil {
		return false
	}
	s.buf = b
	return n.tr.Send(dst, transport.Frame{Kind: FrameKindData, From: n.cfg.Name, Data: b})
}

// InjectRaw ships a packet to the named peer without outbound
// processing — the loadgen's model of spoofed traffic entering from a
// legacy (non-DISCS) AS that runs no egress filtering.
func (n *Node) InjectRaw(dst string, p *packet.IPv4) bool {
	return n.sendOne(dst, p)
}

// Invoke requests protection, serialized with the event loop (the
// service-mode spelling of Controller.Invoke).
func (n *Node) Invoke(invs ...core.Invocation) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return 0, fmt.Errorf("service: node closed")
	}
	return n.ctrl.Invoke(invs...)
}

// Do runs fn serialized with the node's event loop; fn may touch the
// controller and router freely. Alarm samples raised by packets fn
// processed are handled before Do returns.
func (n *Node) Do(fn func(c *core.Controller, r *core.BorderRouter)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(n.ctrl, n.router)
	if s := n.takeAlarms(); len(s) > 0 {
		n.handleAlarms(s)
	}
}

// Reload applies a changed config. Only the peer set is live-reloadable
// — new peers are pinned, existing peers' addresses are repointed, and
// only peers that are actually new (or whose identity changed) are
// announced to the controller; an unchanged config reloads as a no-op
// without re-kicking peering or key negotiation. Identity-defining
// fields must not change.
func (n *Node) Reload(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Name != n.Name() || cfg.AS != n.AS() {
		return fmt.Errorf("service: reload cannot change node identity (%s/AS%d)", n.Name(), n.AS())
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("service: node closed")
	}
	if err := n.registerPeers(cfg.Peers); err != nil {
		return err
	}
	prev := make(map[string]PeerConfig, len(n.cfg.Peers))
	for _, p := range n.cfg.Peers {
		prev[p.Name] = p
	}
	n.cfg.Peers = cfg.Peers
	if !n.started {
		// Start announces the whole pinned set; announcing now would
		// arm peering timers on a node that isn't serving yet.
		return nil
	}
	for _, p := range cfg.Peers {
		if old, ok := prev[p.Name]; ok && old.AS == p.AS && old.Pub == p.Pub {
			continue // address-only change or no-op: SetPeer already handled it
		}
		n.ctrl.HandleAd(bgp.DISCSAd{Origin: topology.ASN(p.AS), Controller: p.Name})
	}
	return nil
}

// Close shuts the node down: admin endpoint, transport, then the
// data-plane pool drains and the event loop is sealed so late timer
// callbacks and frames are dropped.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	if n.admin != nil {
		n.admin.close()
	}
	err := n.tr.Close()
	// tr.Close waited out every inbound handler, so nothing can send on
	// the data queue anymore; closing it releases the worker pool.
	close(n.dataCh)
	n.wg.Wait()
	return err
}

// Name returns the node's controller name.
func (n *Node) Name() string { return n.cfg.Name }

// AS returns the node's AS number.
func (n *Node) AS() uint32 { return n.cfg.AS }

// Addr returns the transport's bound address.
func (n *Node) Addr() string { return n.tr.Addr() }

// AdminAddr returns the admin HTTP address ("" when disabled).
func (n *Node) AdminAddr() string {
	if n.admin == nil {
		return ""
	}
	return n.admin.addr()
}

// Registry exposes the node's metrics registry.
func (n *Node) Registry() *obs.Registry { return n.reg }

// Stats snapshots the node's metrics.
func (n *Node) Stats() obs.Snapshot { return n.reg.Snapshot() }

// Transport exposes the node's TCP transport (per-peer stats, tests).
func (n *Node) Transport() *transport.TCP { return n.tr }
