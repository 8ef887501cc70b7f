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
	"time"

	"discs/internal/obs"
)

// Time is a simulated timestamp measured as a duration since the start
// of the simulation.
type Time = time.Duration

// Metric names the simulator registers (see Stats). Exported so
// consumers of the snapshot do not hard-code strings.
const (
	MetricDelivered    = "netsim.delivered"
	MetricDropped      = "netsim.dropped"
	MetricEvents       = "netsim.events"
	MetricQueueDepth   = "netsim.queue_depth"
	MetricLost         = "netsim.faults.lost"
	MetricDuplicated   = "netsim.faults.duplicated"
	MetricCorrupted    = "netsim.faults.corrupted"
	MetricCrashDropped = "netsim.faults.crash_dropped"
	// MetricLateDropped counts sends lost because their arrival time was
	// already behind the destination's clock: a driver-context send from
	// a node whose shard clock lags the receiver's. Send still reports
	// true for them.
	MetricLateDropped = "netsim.late_dropped"
)

// TraceEventKind is the obs event kind emitted per executed event when
// execution tracing is enabled (SetExecTrace). The trace is the
// determinism oracle: two runs of the same scenario must produce
// byte-identical sequences of (At, AS, Serial) triples.
const TraceEventKind = "sim.event"

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
		dropped:    reg.Counter(MetricDropped),
		events:     reg.Counter(MetricEvents),
		lost:       reg.Counter(MetricLost),
		duplicated: reg.Counter(MetricDuplicated),
		corrupted:  reg.Counter(MetricCorrupted),
		crashDrop:  reg.Counter(MetricCrashDropped),
		lateDrop:   reg.Counter(MetricLateDropped),
		epochs:     reg.Counter(MetricEpochs),
		stall:      reg.Counter(MetricStallNS),
		queueDepth: reg.Gauge(MetricQueueDepth),
	}
}

// Simulator owns the network structure and, through its engine, the
// simulated clocks and event queues.
type Simulator struct {
	nodes     map[string]*Node
	links     []*Link
	defFaults *LinkFaults // fault.go
	// Observability: all counters live in reg; m caches the handles.
	reg *obs.Registry
	m   simMetrics
	// execTrace, when non-nil, receives one obs event per executed
	// simulator event (determinism oracle; see TraceEventKind).
	execTrace *obs.Tracer
	eng       *Engine
}

// New creates an empty simulator at time zero with a private metrics
// registry; use NewWithRegistry (or MoveToRegistry) to share one.
func New() *Simulator { return NewWithRegistry(nil) }

// NewWithRegistry creates an empty simulator publishing its metrics
// into reg (nil creates a private registry), run by one shard and one
// inline worker. The registry clock is pointed at the simulated clock,
// so snapshots and trace events are stamped in simulated time.
func NewWithRegistry(reg *obs.Registry) *Simulator {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Simulator{nodes: make(map[string]*Node), reg: reg, m: newSimMetrics(reg)}
	s.eng, _ = newEngine(s, Options{Shards: 1, Workers: 1}, 0) // one shard is within MaxShards
	reg.SetClock(func() int64 { return int64(s.Now()) })
	return s
}

// Registry returns the registry the simulator publishes into.
func (s *Simulator) Registry() *obs.Registry { return s.reg }

// SetExecTrace enables (non-nil) or disables per-event execution
// tracing into tr. Each executed event emits an obs.Event with kind
// TraceEventKind, At = its timestamp, AS = its creating lane + 1 and
// Serial = that lane's creation sequence number.
func (s *Simulator) SetExecTrace(tr *obs.Tracer) { s.execTrace = tr }

// ExecTrace returns the tracer installed with SetExecTrace, or nil.
func (s *Simulator) ExecTrace() *obs.Tracer { return s.execTrace }

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
	depth := reg.Gauge(MetricQueueDepth)
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
// ScheduleBackground).
func (s *Simulator) Schedule(at Time, fn func()) (Timer, error) {
	return s.eng.schedule(nil, at, fn, s.eng.global.inBG)
}

// ScheduleBackground schedules a housekeeping event: it runs in
// timestamp order like any other event, but pending background events
// do not keep RunAll alive. Use it for periodic liveness tasks
// (heartbeats, purge sweeps) that would otherwise make a
// run-to-quiescence loop spin forever.
func (s *Simulator) ScheduleBackground(at Time, fn func()) (Timer, error) {
	return s.eng.schedule(nil, at, fn, true)
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

// AfterBackground is After for background events (see
// ScheduleBackground).
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
	// shard is the logical partition (engine lane) the node belongs to.
	shard int32
	links []*Link
	// nbr indexes the first link per neighbor so SendTo is O(1) on the
	// common single-link case instead of scanning links (which is
	// O(degree) — ruinous for tier-1 nodes with thousands of links).
	nbr     map[*Node]*Link
	handler Handler
	values  ValueHandler // handler, when it also takes Value messages
	crashed bool
	// epoch increments on every crash; node-scoped timers capture it so
	// a crash invalidates everything armed before it.
	epoch uint64
}

// AddNode registers a node with a unique name.
func (s *Simulator) AddNode(name string) (*Node, error) {
	if name == "" {
		return nil, errors.New("netsim: empty node name")
	}
	if _, dup := s.nodes[name]; dup {
		return nil, fmt.Errorf("netsim: duplicate node %q", name)
	}
	n := &Node{Name: name, sim: s}
	s.nodes[name] = n
	return n, nil
}

// Node returns the node with the given name, or nil.
func (s *Simulator) Node(name string) *Node { return s.nodes[name] }

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

// Crashed reports whether the node is down.
func (n *Node) Crashed() bool { return n.crashed }

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
// Simulator.ScheduleBackground).
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
// Links(), in O(1).
func (n *Node) LinkTo(neighbor *Node) *Link { return n.nbr[neighbor] }

// Sim returns the owning simulator.
func (n *Node) Sim() *Simulator { return n.sim }

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
	l := &Link{a: a, b: b, id: int32(len(s.links)), Delay: delay, up: true, sim: s}
	if s.defFaults != nil {
		f := *s.defFaults
		l.faults = &f
	}
	a.links = append(a.links, l)
	b.links = append(b.links, l)
	a.addNbr(b, l)
	b.addNbr(a, l)
	s.links = append(s.links, l)
	s.eng.connected(l)
	return l, nil
}

// addNbr records the first link toward a neighbor (parallel links keep
// SendTo's "first up link" semantics via the slow-path scan).
func (n *Node) addNbr(peer *Node, l *Link) {
	if n.nbr == nil {
		n.nbr = make(map[*Node]*Link, 4)
	}
	if _, dup := n.nbr[peer]; !dup {
		n.nbr[peer] = l
	}
}

// Reserve sizes the node and link tables for a known topology so a
// paper-scale build (44k nodes, ~70k links) does not rehash and
// re-grow its way up. Safe to call on a fresh or partially built
// simulator; existing nodes and links are preserved.
func (s *Simulator) Reserve(nodes, links int) {
	if nodes > len(s.nodes) {
		m := make(map[string]*Node, nodes)
		for k, v := range s.nodes {
			m[k] = v
		}
		s.nodes = m
	}
	if links > cap(s.links) {
		grown := make([]*Link, len(s.links), links)
		copy(grown, s.links)
		s.links = grown
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
// common case — one link to the neighbor, link up — is an O(1) map
// lookup; only parallel links with the first one down fall back to
// scanning.
func (n *Node) UpLink(neighbor *Node) *Link {
	l, ok := n.nbr[neighbor]
	if !ok {
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
