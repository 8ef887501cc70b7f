// Package netsim implements a deterministic discrete-event network
// simulator. It is the substrate on which every protocol in this
// repository (BGP, the DISCS control plane, the secure controller
// channel and the packet-level data plane) runs.
//
// The simulator models a set of Nodes connected by point-to-point Links.
// A Link has a propagation delay and an optional bandwidth limit;
// messages sent over a link are delivered to the remote node's handler
// at the simulated time they would arrive. All state transitions happen
// inside event callbacks, executed in strict timestamp order, so a run
// is fully reproducible given the same inputs.
//
// Every event runs on the simulator's Engine (engine.go): one lane per
// logical shard, each with its own event queue and clock, advanced in
// lookahead epochs by worker goroutines. A new Simulator has one shard
// run inline; Relane re-lanes it for parallel execution. All structural
// state (nodes, links, metrics) stays here.
//
// The zero value of Simulator is not usable; create one with New.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"discs/internal/obs"
	"discs/internal/slab"
)

// Time is a simulated timestamp measured as a duration since the start
// of the simulation.
type Time = time.Duration

// Metric names the simulator registers (see Stats). Those read outside
// the package are exported, so consumers of the snapshot do not
// hard-code strings.
const (
	MetricDelivered    = "netsim.delivered"
	metricDropped      = "netsim.dropped"
	MetricEvents       = "netsim.events"
	metricQueueDepth   = "netsim.queue_depth"
	MetricLost         = "netsim.faults.lost"
	metricDuplicated   = "netsim.faults.duplicated"
	metricCorrupted    = "netsim.faults.corrupted"
	MetricCrashDropped = "netsim.faults.crash_dropped"
	// MetricLateDropped counts sends lost because their arrival time was
	// already behind the destination's clock: a driver-context send from
	// a node whose shard clock lags the receiver's. Send still reports
	// true for them.
	MetricLateDropped = "netsim.late_dropped"
)

// traceEventKind is the obs event kind emitted per executed event when
// execution tracing is enabled (SetExecTrace). The trace is the
// determinism oracle: two runs of the same scenario must produce
// byte-identical sequences of (At, AS, Serial) triples.
const traceEventKind = "sim.event"

// simMetrics holds the simulator's and its engine's pre-resolved metric
// handles; all increments on the event path go through these, never
// through raw fields, so any registry sharing the simulator sees them.
type simMetrics struct {
	delivered, dropped, events             *obs.Counter
	lost, duplicated, corrupted, crashDrop *obs.Counter
	lateDrop, epochs, stall                *obs.Counter
	// workerEvents and shardEvents are sized by the engine.
	workerEvents, shardEvents []*obs.Counter
	queueDepth                *obs.Gauge
}

func newSimMetrics(reg *obs.Registry) simMetrics {
	return simMetrics{
		delivered:  reg.Counter(MetricDelivered),
		dropped:    reg.Counter(metricDropped),
		events:     reg.Counter(MetricEvents),
		lost:       reg.Counter(MetricLost),
		duplicated: reg.Counter(metricDuplicated),
		corrupted:  reg.Counter(metricCorrupted),
		crashDrop:  reg.Counter(MetricCrashDropped),
		lateDrop:   reg.Counter(MetricLateDropped),
		epochs:     reg.Counter(MetricEpochs),
		stall:      reg.Counter(MetricStallNS),
		queueDepth: reg.Gauge(metricQueueDepth),
	}
}

// Simulator owns the network structure and, through its engine, the
// simulated clocks and event queues.
type Simulator struct {
	nodes     []*Node // in creation order; a node's id is its index
	byName    map[string]*Node
	links     []*Link
	defFaults *LinkFaults // fault.go
	// Nodes, links and the nodes' link lists and neighbour indexes are
	// carved from slabs (see Reserve and Node.ReserveLinks).
	nodeSlab slab.Slab[Node]
	linkSlab slab.Slab[Link]
	listSlab slab.Slab[*Link]
	peerSlab slab.Slab[peerRef]
	// Observability: all counters live in reg; m caches the handles.
	reg *obs.Registry
	m   simMetrics
	// execTrace, when non-nil, receives one obs event per executed
	// simulator event (determinism oracle; see traceEventKind).
	execTrace *obs.Tracer
	eng       *Engine
}

// New creates an empty simulator at time zero, run by one shard and
// one inline worker, publishing its metrics into a private registry
// (MoveToRegistry re-homes them). The registry clock is pointed at the
// simulated clock, so snapshots and trace events are stamped in
// simulated time.
func New() *Simulator {
	reg := obs.NewRegistry()
	s := &Simulator{byName: make(map[string]*Node), reg: reg, m: newSimMetrics(reg)}
	s.eng, _ = newEngine(s, Options{Shards: 1, Workers: 1}, 0) // one shard is within MaxShards
	reg.SetClock(func() int64 { return int64(s.Now()) })
	return s
}

// Registry returns the registry the simulator publishes into.
func (s *Simulator) Registry() *obs.Registry { return s.reg }

// SetExecTrace enables (non-nil) or disables per-event execution
// tracing into tr. Each executed event emits an obs.Event with kind
// traceEventKind, At = its timestamp, AS = its creating lane + 1 and
// Serial = that lane's creation sequence number.
func (s *Simulator) SetExecTrace(tr *obs.Tracer) { s.execTrace = tr }

// MoveToRegistry re-homes every metric of the simulator and its engine
// into reg, carrying the counts accumulated so far. Layers that build a
// simulator first and an observability plan later
// (core.NewSystemWithOptions adopting a BGP network's simulator) use
// this to unify on one registry. Call it while the simulator is parked.
func (s *Simulator) MoveToRegistry(reg *obs.Registry) {
	if reg == nil || reg == s.reg {
		return
	}
	move := func(c *obs.Counter) *obs.Counter {
		n := reg.Counter(c.Name())
		n.Add(c.Value())
		return n
	}
	m := &s.m
	for _, c := range []**obs.Counter{
		&m.delivered, &m.dropped, &m.events, &m.lost, &m.duplicated,
		&m.corrupted, &m.crashDrop, &m.lateDrop, &m.epochs, &m.stall,
	} {
		*c = move(*c)
	}
	for _, cs := range [][]*obs.Counter{m.workerEvents, m.shardEvents} {
		for i, c := range cs {
			cs[i] = move(c)
		}
	}
	depth := reg.Gauge(metricQueueDepth)
	depth.Set(m.queueDepth.Value())
	m.queueDepth = depth
	s.reg = reg
	reg.SetClock(func() int64 { return int64(s.Now()) })
}

// Stats returns the simulator's unified metrics snapshot: message
// delivery, drop and injected-fault counters plus the live queue
// depth, stamped with the simulated time.
func (s *Simulator) Stats() obs.Snapshot {
	return s.reg.SnapshotPrefix("netsim.", "")
}

// Now returns the driver's simulated time: the latest clock of any
// lane at the last barrier.
func (s *Simulator) Now() Time { return s.eng.global.now }

// Schedule runs fn at the given absolute simulated time, as a driver
// event. Scheduling in the past is an error. Events scheduled while a
// background event executes are background themselves (see
// AfterBackground).
func (s *Simulator) Schedule(at Time, fn func()) (Timer, error) {
	return s.eng.schedule(nil, at, fn, s.eng.global.inBG)
}

// arrive accounts for a delivery reaching to, reporting whether to is
// up to receive it.
func (s *Simulator) arrive(to *Node) bool {
	if to.crashed {
		s.m.dropped.Inc()
		s.m.crashDrop.Inc()
		return false
	}
	s.m.delivered.Inc()
	return true
}

// After runs fn after delay d, as a driver event. It panics if d is
// negative, which always indicates a programming error in a protocol
// implementation.
func (s *Simulator) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	t, _ := s.eng.schedule(nil, s.Now()+d, fn, s.eng.global.inBG)
	return t
}

// AfterBackground is After for a housekeeping event, such as a
// heartbeat or a purge sweep: it runs in timestamp order like any
// other, but pending background events do not keep RunAll alive.
func (s *Simulator) AfterBackground(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	t, _ := s.eng.schedule(nil, s.Now()+d, fn, true)
	return t
}

// EveryBackground arms a repeating background event: fn runs every d of
// simulated time starting at now+d, until the returned Ticker is
// stopped. Like all background events it never keeps RunAll alive, so
// it is the natural driver for interval metric sampling (an
// obs.Recorder fed from it produces a simulated-time series).
func (s *Simulator) EveryBackground(d Time, fn func()) *Ticker {
	if d <= 0 {
		panic(fmt.Sprintf("netsim: non-positive tick interval %v", d))
	}
	t := &Ticker{}
	var arm func()
	arm = func() {
		t.timer = s.AfterBackground(d, func() {
			if t.stopped {
				return
			}
			fn()
			arm()
		})
	}
	arm()
	return t
}

// Step executes the single earliest pending event. It reports false
// when no event is pending.
func (s *Simulator) Step() bool { return s.eng.step() }

// Run executes events (foreground and background) with timestamps up
// to deadline, then advances every clock to deadline. It returns the
// number of events executed.
func (s *Simulator) Run(deadline Time) int { return s.eng.run(deadline) }

// RunAll executes pending events in timestamp order until no
// foreground events remain, with a safety cap to convert accidental
// event storms into a detectable error. Background events run when
// they precede a pending foreground event but never keep RunAll alive
// on their own; they stay queued for a later Run. This is what lets a
// system with periodic heartbeats still "settle".
func (s *Simulator) RunAll() (int, error) { return s.eng.runAll() }

// QueueLen returns the number of pending events (including
// lazily-cancelled ones not yet compacted away).
func (s *Simulator) QueueLen() int { return s.eng.queueLen() }

// Handler processes a message arriving at a node over a link.
type Handler interface {
	Receive(from *Node, link *Link, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from *Node, link *Link, msg Message)

// Receive calls f.
func (f HandlerFunc) Receive(from *Node, link *Link, msg Message) { f(from, link, msg) }

// Message is an opaque payload carried over a link. Size is used for
// serialization-time accounting when the link has finite bandwidth.
type Message interface {
	// Size returns the wire size of the message in bytes.
	Size() int
}

// Bytes is a trivial Message wrapping a byte slice.
type Bytes []byte

// Size returns the byte length.
func (b Bytes) Size() int { return len(b) }

// Node is an endpoint in the simulated network.
type Node struct {
	Name string
	sim  *Simulator
	id   int32 // creation index in Simulator.nodes
	// shard is the logical partition (engine lane) the node belongs to.
	shard int32
	links []*Link
	// peers indexes the first link toward each neighbour, sorted by the
	// neighbour's id, so LinkTo and UpLink are a binary search instead
	// of a scan of links (O(degree) — ruinous for tier-1 nodes with
	// thousands of links). Connect keeps it current; it is written only
	// by structural changes, never by a lane's lookups.
	peers   []peerRef
	handler Handler
	values  ValueHandler // handler, when it also takes Value messages
	crashed bool
	// epoch increments on every crash; node-scoped timers capture it so
	// a crash invalidates everything armed before it.
	epoch uint64
}

// peerRef names a neighbour and the first link toward it by their
// indexes in Simulator.nodes and Simulator.links.
type peerRef struct{ node, link int32 }

// AddNode registers a node with a unique name.
func (s *Simulator) AddNode(name string) (*Node, error) {
	if name == "" {
		return nil, errors.New("netsim: empty node name")
	}
	if _, dup := s.byName[name]; dup {
		return nil, fmt.Errorf("netsim: duplicate node %q", name)
	}
	n := s.nodeSlab.New()
	n.Name, n.sim, n.id = name, s, int32(len(s.nodes))
	s.nodes = append(s.nodes, n)
	s.byName[name] = n
	return n, nil
}

// Node returns the node with the given name, or nil.
func (s *Simulator) Node(name string) *Node { return s.byName[name] }

// NumNodes returns the number of registered nodes.
func (s *Simulator) NumNodes() int { return len(s.nodes) }

// SetHandler installs the receive callback for the node. A handler
// that is also a ValueHandler receives Value messages too.
func (n *Node) SetHandler(h Handler) {
	n.handler = h
	n.values, _ = h.(ValueHandler)
}

// SetShard assigns the node to a logical shard. Shard assignment is
// structural: set it while the simulator is parked (between runs),
// before events for the node are scheduled. Handlers of nodes in the
// same shard may share state freely; handlers in different shards
// must communicate only through Link.Send.
func (n *Node) SetShard(shard int) { n.shard = int32(shard) }

// Shard returns the node's logical shard.
func (n *Node) Shard() int { return int(n.shard) }

// Now returns the simulated time from the node's execution context —
// its shard's clock, exact to the executing event's timestamp inside an
// event handler. Protocol
// code running on a node must use this (not Simulator.Now) for
// timestamps it stores or compares.
func (n *Node) Now() Time { return n.sim.eng.laneFor(n).now }

// Crash takes the node down, modelling a process or host crash: frames
// in flight toward it are discarded on arrival, new sends from it are
// rejected, and every node-scoped timer (After/AfterBackground on the
// node) armed before the crash is dead — exactly the state a real
// crash destroys. Link and handler wiring survives for Restart.
func (n *Node) Crash() {
	n.epoch++
	n.crashed = true
}

// Restart brings a crashed node back up with a clean timer slate: the
// epoch stays bumped, so timers armed before the crash never fire.
// The protocol layer re-arms whatever its recovery logic needs.
func (n *Node) Restart() { n.crashed = false }

// After arms a node-scoped timer: fn runs after d unless the node
// crashes first.
func (n *Node) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	ln := n.sim.eng.laneFor(n)
	epoch := n.epoch
	t, _ := n.sim.eng.schedule(n, ln.now+d, func() {
		if n.epoch == epoch && !n.crashed {
			fn()
		}
	}, ln.inBG)
	return t
}

// AfterBackground is the background-event variant of Node.After (see
// Simulator.AfterBackground).
func (n *Node) AfterBackground(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	epoch := n.epoch
	t, _ := n.sim.eng.schedule(n, n.Now()+d, func() {
		if n.epoch == epoch && !n.crashed {
			fn()
		}
	}, true)
	return t
}

// Links returns the links attached to this node.
func (n *Node) Links() []*Link { return n.links }

// LinkTo returns the first link created between n and neighbor, up or
// down, or nil when there is none: the first match of a scan over
// Links(), in O(log degree).
func (n *Node) LinkTo(neighbor *Node) *Link {
	if neighbor == nil || neighbor.sim != n.sim {
		return nil
	}
	i, ok := n.peerAt(neighbor.id)
	if !ok {
		return nil
	}
	return n.sim.links[n.peers[i].link]
}

// peerAt returns the position of neighbour id in n.peers, or where it
// would be inserted.
func (n *Node) peerAt(id int32) (int, bool) {
	lo, hi := 0, len(n.peers)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n.peers[m].node < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(n.peers) && n.peers[lo].node == id
}

// Neighbor returns the node on the other side of the link.
func (l *Link) Neighbor(n *Node) *Node {
	if l.a == n {
		return l.b
	}
	if l.b == n {
		return l.a
	}
	return nil
}

// Link is a bidirectional point-to-point channel between two nodes.
type Link struct {
	a, b  *Node
	id    int32   // index in Simulator.links
	Delay Time    // propagation delay, per direction
	Bps   float64 // bandwidth in bytes/second; 0 means infinite
	// MaxBacklog bounds the per-direction transmit queue as a time
	// depth: a send whose serialization would start more than
	// MaxBacklog after now is tail-dropped. 0 means unbounded (the
	// default); finite values model congested links with finite
	// buffers.
	MaxBacklog Time
	up         bool
	// faults, when non-nil, injects probabilistic loss, duplication,
	// corruption and jitter into every send (see fault.go).
	faults *LinkFaults
	// busyUntil tracks per-direction serialization backlog (a->b, b->a).
	// Each direction is written only from its sender's shard, so the two
	// slots never race.
	busyUntil [2]Time
	sim       *Simulator
}

// Connect creates a link between two nodes with the given propagation
// delay and unlimited bandwidth. Creating a link whose endpoints live in
// different shards is a structural change — do it while the simulator
// is parked (the engine refreshes its lookahead bound).
func (s *Simulator) Connect(a, b *Node, delay Time) (*Link, error) {
	if a == nil || b == nil {
		return nil, errors.New("netsim: connect with nil node")
	}
	if a == b {
		return nil, fmt.Errorf("netsim: self-link on %q", a.Name)
	}
	if delay < 0 {
		return nil, fmt.Errorf("netsim: negative delay %v", delay)
	}
	if a.sim != s || b.sim != s {
		return nil, errors.New("netsim: connect with a node of another simulator")
	}
	l := s.linkSlab.New()
	*l = Link{a: a, b: b, id: int32(len(s.links)), Delay: delay, up: true, sim: s}
	if s.defFaults != nil {
		f := *s.defFaults
		l.faults = &f
	}
	a.addLink(b, l)
	b.addLink(a, l)
	s.links = append(s.links, l)
	s.eng.connected(l)
	return l, nil
}

// addLink appends l, a link toward peer, to n's links and, when it is
// the first toward peer, to n's neighbour index (parallel links keep
// UpLink's "first up link" semantics through the scan of links).
func (n *Node) addLink(peer *Node, l *Link) {
	n.links = append(n.links, l)
	if i, dup := n.peerAt(peer.id); !dup {
		n.peers = slices.Insert(n.peers, i, peerRef{node: peer.id, link: l.id})
	}
}

// Reserve sizes the simulator for nodes more nodes and links more links
// so a paper-scale build (44k nodes, ~70k links) takes its nodes,
// links and link lists from a few arrays instead of growing and
// rehashing its way up (see Node.ReserveLinks). Safe to call on a
// fresh or partially built simulator; existing nodes and links are
// preserved.
func (s *Simulator) Reserve(nodes, links int) {
	s.nodeSlab.Reserve(nodes)
	s.linkSlab.Reserve(links)
	// Every link joins two link lists and at most two neighbour indexes.
	s.listSlab.Reserve(2 * links)
	s.peerSlab.Reserve(2 * links)
	if want := len(s.nodes) + nodes; want > cap(s.nodes) {
		grown := make([]*Node, len(s.nodes), want)
		copy(grown, s.nodes)
		s.nodes = grown
		m := make(map[string]*Node, want)
		for k, v := range s.byName {
			m[k] = v
		}
		s.byName = m
	}
	if want := len(s.links) + links; want > cap(s.links) {
		grown := make([]*Link, len(s.links), want)
		copy(grown, s.links)
		s.links = grown
	}
}

// ReserveLinks sizes n's link list and neighbour index for k more
// links, carved from the simulator's reserved arrays: a node whose
// degree is known before it is connected is sized once.
func (n *Node) ReserveLinks(k int) {
	s := n.sim
	if cap(n.links)-len(n.links) < k {
		grown := s.listSlab.Take(len(n.links) + k)
		n.links = grown[:copy(grown, n.links)]
	}
	if cap(n.peers)-len(n.peers) < k {
		grown := s.peerSlab.Take(len(n.peers) + k)
		n.peers = grown[:copy(grown, n.peers)]
	}
}

// Links returns all links in creation order. The slice must not be
// modified.
func (s *Simulator) Links() []*Link { return s.links }

// SetUp marks the link up or down. Messages in flight when a link goes
// down are still delivered (they already left the interface); new sends
// are dropped. Flip link state only from the driver goroutine or
// scheduled (driver-lane) events — both endpoints' shards read it.
func (l *Link) SetUp(up bool) { l.up = up }

// Up reports whether the link is up.
func (l *Link) Up() bool { return l.up }

// Endpoints returns the two nodes of the link.
func (l *Link) Endpoints() (*Node, *Node) { return l.a, l.b }

// ends returns the sender and the receiver in direction dir.
func (l *Link) ends(dir uint8) (from, to *Node) {
	if dir == 0 {
		return l.a, l.b
	}
	return l.b, l.a
}

// Send transmits msg from node `from` over the link. The message is
// delivered to the peer's handler after serialization and propagation
// delay. Send reports whether the message was accepted (false if the
// link is down, either endpoint condition rejects it, or from is not
// an endpoint). Injected faults (loss, corruption) still report true:
// the sender cannot tell a frame lost in flight from a delivered one.
func (l *Link) Send(from *Node, msg Message) bool {
	return l.send(from, delivery{msg: msg}, 0)
}

// SendValue is Send for a Value message of the given wire size, which
// travels inside its delivery event and allocates nothing. The peer's
// handler must be a ValueHandler. A Value cannot model bit errors, so an
// injected corruption drops it.
func (l *Link) SendValue(from *Node, v Value, size int) bool {
	return l.send(from, delivery{value: true, val: v}, size)
}

func (l *Link) send(from *Node, d delivery, size int) bool {
	var to *Node
	switch from {
	case l.a:
		d.dir, to = 0, l.b
	case l.b:
		d.dir, to = 1, l.a
	default:
		return false
	}
	d.link = l
	if !l.up || from.crashed {
		l.sim.m.dropped.Inc()
		return false
	}
	ln := l.sim.eng.laneFor(from)
	now := ln.now
	start := now
	if l.busyUntil[d.dir] > start {
		start = l.busyUntil[d.dir]
	}
	if l.MaxBacklog > 0 && start-now > l.MaxBacklog {
		// Finite buffer: the transmit queue is too deep; tail-drop.
		l.sim.m.dropped.Inc()
		return false
	}
	var ser Time
	if l.Bps > 0 {
		if !d.value {
			size = d.msg.Size()
		}
		sec := float64(size) / l.Bps
		if sec > math.MaxInt64/float64(time.Second) {
			sec = math.MaxInt64 / float64(time.Second)
		}
		ser = Time(sec * float64(time.Second))
	}
	l.busyUntil[d.dir] = start + ser
	arrive := start + ser + l.Delay

	// Fault injection: the draw order (loss, corruption, duplication,
	// jitter) is fixed and all draws come from the seeded fault RNG of
	// the sender's lane, in event order — deterministic given the seed
	// and the partition.
	copies := 1
	if f := l.faults; f != nil {
		rng := ln.rng
		if f.Loss > 0 && rng.Float64() < f.Loss {
			l.sim.m.dropped.Inc()
			l.sim.m.lost.Inc()
			return true
		}
		if f.Corrupt > 0 && rng.Float64() < f.Corrupt {
			l.sim.m.corrupted.Inc()
			if cm, ok := d.msg.(Corruptible); ok {
				d.msg = cm.Corrupt(rng.Uint64())
			} else {
				// A message that cannot model bit errors is dropped,
				// as a corrupted frame would fail its checksum anyway.
				l.sim.m.dropped.Inc()
				return true
			}
		}
		if f.Dup > 0 && rng.Float64() < f.Dup {
			copies = 2
			l.sim.m.duplicated.Inc()
		}
		if f.JitterMax > 0 {
			arrive += Time(rng.Int63n(int64(f.JitterMax) + 1))
		}
	}
	for i := 0; i < copies; i++ {
		at := arrive
		if i > 0 {
			// The duplicate takes its own jittered path.
			if f := l.faults; f.JitterMax > 0 {
				at += Time(ln.rng.Int63n(int64(f.JitterMax) + 1))
			}
		}
		if l.sim.eng.deliver(from, to, at, d, ln.inBG) != nil {
			// The destination's clock is already past at; see
			// MetricLateDropped.
			l.sim.m.lateDrop.Inc()
		}
	}
	return true
}

// SendTo is a convenience that sends msg over UpLink(neighbor). It
// reports whether a link was found and the send accepted.
func (n *Node) SendTo(neighbor *Node, msg Message) bool {
	l := n.UpLink(neighbor)
	return l != nil && l.Send(n, msg)
}

// UpLink returns the first up link from n to neighbor, or nil. The
// common case — one link to the neighbor, link up — is one LinkTo
// lookup; only parallel links with the first one down fall back to
// scanning.
func (n *Node) UpLink(neighbor *Node) *Link {
	l := n.LinkTo(neighbor)
	if l == nil {
		return nil
	}
	if l.up {
		return l
	}
	for _, l := range n.links {
		if l.Neighbor(n) == neighbor && l.up {
			return l
		}
	}
	return nil
}
