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
// Execution is pluggable: by default a Simulator runs every event on
// one goroutine through a single Queue, but a Backend (see
// internal/parsim) can take over time and execution, sharding nodes
// across worker goroutines under conservative synchronization, with one
// Queue per shard. All structural state (nodes, links, metrics) stays
// here. The Scheduler interface is the surface both engines satisfy.
//
// The zero value of Simulator is not usable; create one with New.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"discs/internal/obs"
)

// Time is a simulated timestamp measured as a duration since the start
// of the simulation.
type Time = time.Duration

// Scheduler is the event-scheduling surface shared by the serial
// Simulator and parallel engines driving one (internal/parsim.Engine).
// Protocol code that only needs to arm timers and advance time can
// accept a Scheduler instead of a concrete engine.
type Scheduler interface {
	Now() Time
	Schedule(at Time, fn func()) (Timer, error)
	ScheduleBackground(at Time, fn func()) (Timer, error)
	After(d Time, fn func()) Timer
	AfterBackground(d Time, fn func()) Timer
	EveryBackground(d Time, fn func()) *Ticker
	Step() bool
	Run(deadline Time) int
	RunAll() (int, error)
}

// Backend replaces the serial event core of a Simulator: it owns the
// clock(s) and the event queues while the Simulator keeps all
// structural state (nodes, links, fault configuration, metrics).
// Methods taking a *Node receive the execution context — the node on
// whose behalf the call is made — so a sharded backend can resolve the
// owning shard; ctx is nil for calls from the driver goroutine.
type Backend interface {
	// Now returns the simulated time visible to ctx (nil = driver).
	Now(ctx *Node) Time
	// Schedule arms the timer fn at the absolute time at, as an event of
	// ctx's shard (nil = engine-global housekeeping).
	Schedule(ctx *Node, at Time, fn func(), background bool) (Timer, error)
	// Deliver queues d, sent by from (the execution context) to to, to
	// arrive at the absolute time at.
	Deliver(from, to *Node, at Time, d Delivery, background bool) error
	// FaultRNG returns the fault-injection RNG stream for ctx.
	FaultRNG(ctx *Node) *rand.Rand
	// InBackground reports whether ctx is currently executing a
	// background event (background status is inherited by events
	// scheduled from one).
	InBackground(ctx *Node) bool
	// SeedFaults reseeds the backend's fault RNG streams.
	SeedFaults(seed int64)
	Step() bool
	Run(deadline Time) int
	RunAll() (int, error)
	// QueueLen returns the number of pending events across all queues.
	QueueLen() int
	// Reserved is a capacity hint mirroring Simulator.Reserve.
	Reserved(nodes, links int)
	// Connected notifies the backend of a new link so it can refresh
	// its cross-shard lookahead bound.
	Connected(l *Link)
}

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
	// already behind the destination's clock: under a sharded backend, a
	// driver-context send from a node whose shard clock lags the
	// receiver's. Send still reports true for them.
	MetricLateDropped = "netsim.late_dropped"
)

// TraceEventKind is the obs event kind emitted per executed event when
// execution tracing is enabled (SetExecTrace). The trace is the
// determinism oracle: two runs of the same scenario must produce
// byte-identical sequences of (At, Serial) pairs.
const TraceEventKind = "sim.event"

// simMetrics holds the simulator's pre-resolved metric handles; all
// increments on the event path go through these, never through raw
// fields, so any registry sharing the simulator sees them.
type simMetrics struct {
	delivered, dropped, events             *obs.Counter
	lost, duplicated, corrupted, crashDrop *obs.Counter
	lateDrop                               *obs.Counter
	queueDepth                             *obs.Gauge
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
		queueDepth: reg.Gauge(MetricQueueDepth),
	}
}

// Simulator owns the simulated clock and the event queue.
type Simulator struct {
	now Time
	seq uint64 // the next event's key
	// q is the serial event queue; RunAll stops when it holds no
	// foreground event even if background events remain queued.
	q     Queue
	nodes map[string]*Node
	links []*Link
	// inBG is true while a background event executes. Events scheduled
	// while a background event executes inherit the flag, so a whole
	// heartbeat-induced cascade (send, delivery, ack) counts as
	// background.
	inBG bool
	// Fault injection (fault.go). frng draws from fsrc, a counting
	// source, so a checkpoint can record the exact stream position as
	// (seed, draws) — see checkpoint.go.
	frng      *rand.Rand
	fsrc      *CountingSource
	defFaults *LinkFaults
	// Observability: all counters live in reg; m caches the handles.
	reg *obs.Registry
	m   simMetrics
	// execTrace, when non-nil, receives one obs event per executed
	// simulator event (determinism oracle; see TraceEventKind).
	execTrace *obs.Tracer
	// backend, when non-nil, owns time and event execution.
	backend Backend
}

var _ Scheduler = (*Simulator)(nil)

// New creates an empty simulator at time zero with a private metrics
// registry; use NewWithRegistry (or MoveToRegistry) to share one.
func New() *Simulator { return NewWithRegistry(nil) }

// NewWithRegistry creates an empty simulator publishing its metrics
// into reg (nil creates a private registry). The registry clock is
// pointed at the simulated clock, so snapshots and trace events are
// stamped in simulated time.
func NewWithRegistry(reg *obs.Registry) *Simulator {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Simulator{nodes: make(map[string]*Node), reg: reg, m: newSimMetrics(reg)}
	s.q.sim = s
	reg.SetClock(func() int64 { return int64(s.Now()) })
	return s
}

// Registry returns the registry the simulator publishes into.
func (s *Simulator) Registry() *obs.Registry { return s.reg }

// SetBackend installs (or, with nil, removes) a replacement event
// core. Install while the simulator is parked — no events pending and
// no run in progress; pending serial events do not migrate.
func (s *Simulator) SetBackend(b Backend) {
	s.backend = b
}

// Backend returns the installed backend, or nil when the serial core
// is active.
func (s *Simulator) Backend() Backend { return s.backend }

// Sharded reports whether a parallel backend drives this simulator.
// Layers that must provision deterministically for sharded execution
// (e.g. eager controller-mesh links instead of on-demand Connect from
// inside events) branch on this.
func (s *Simulator) Sharded() bool { return s.backend != nil }

// SetExecTrace enables (non-nil) or disables per-event execution
// tracing into tr. Each executed event emits an obs.Event with kind
// TraceEventKind, At = its timestamp and Serial = its sequence number.
func (s *Simulator) SetExecTrace(tr *obs.Tracer) { s.execTrace = tr }

// ExecTrace returns the tracer installed with SetExecTrace, or nil.
func (s *Simulator) ExecTrace() *obs.Tracer { return s.execTrace }

// MoveToRegistry re-homes the simulator's metrics into reg, carrying
// the counts accumulated so far. Layers that build a simulator first
// and an observability plan later (core.NewSystemWithOptions adopting
// a BGP network's simulator) use this to unify on one registry.
func (s *Simulator) MoveToRegistry(reg *obs.Registry) {
	if reg == nil || reg == s.reg {
		return
	}
	old := s.m
	s.reg = reg
	s.m = newSimMetrics(reg)
	s.m.delivered.Add(old.delivered.Value())
	s.m.dropped.Add(old.dropped.Value())
	s.m.events.Add(old.events.Value())
	s.m.lost.Add(old.lost.Value())
	s.m.duplicated.Add(old.duplicated.Value())
	s.m.corrupted.Add(old.corrupted.Value())
	s.m.crashDrop.Add(old.crashDrop.Value())
	s.m.lateDrop.Add(old.lateDrop.Value())
	s.m.queueDepth.Set(old.queueDepth.Value())
	reg.SetClock(func() int64 { return int64(s.Now()) })
}

// Stats returns the simulator's unified metrics snapshot: message
// delivery, drop and injected-fault counters plus the live queue
// depth, stamped with the simulated time. It replaces the old
// Delivered/Dropped/FaultStats getters.
func (s *Simulator) Stats() obs.Snapshot {
	return s.reg.SnapshotPrefix("netsim.", "")
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time {
	if s.backend != nil {
		return s.backend.Now(nil)
	}
	return s.now
}

// nowCtx returns the simulated time visible to node n — under a
// sharded backend, the clock of n's shard.
func (s *Simulator) nowCtx(n *Node) Time {
	if s.backend != nil {
		return s.backend.Now(n)
	}
	return s.now
}

// inBackground reports whether n's execution context is currently
// inside a background event (see ScheduleBackground).
func (s *Simulator) inBackground(n *Node) bool {
	if s.backend != nil {
		return s.backend.InBackground(n)
	}
	return s.inBG
}

// Schedule runs fn at the given absolute simulated time. Scheduling in
// the past is an error. Events scheduled while a background event
// executes are background themselves (see ScheduleBackground).
func (s *Simulator) Schedule(at Time, fn func()) (Timer, error) {
	return s.schedule(nil, at, fn, s.inBackground(nil))
}

// ScheduleBackground schedules a housekeeping event: it runs in
// timestamp order like any other event, but pending background events
// do not keep RunAll alive. Use it for periodic liveness tasks
// (heartbeats, purge sweeps) that would otherwise make a
// run-to-quiescence loop spin forever.
func (s *Simulator) ScheduleBackground(at Time, fn func()) (Timer, error) {
	return s.schedule(nil, at, fn, true)
}

// schedule is the timer funnel: ctx is the node on whose execution
// context the timer is armed (nil for driver-level timers).
func (s *Simulator) schedule(ctx *Node, at Time, fn func(), background bool) (Timer, error) {
	if s.backend != nil {
		return s.backend.Schedule(ctx, at, fn, background)
	}
	if at < s.now {
		return Timer{}, fmt.Errorf("netsim: schedule at %v before now %v", at, s.now)
	}
	t := s.q.Schedule(at, s.seq, fn, background)
	s.seq++
	s.m.queueDepth.Set(int64(s.q.Len()))
	return t, nil
}

// deliver is the delivery funnel behind Link.Send and Link.SendValue.
func (s *Simulator) deliver(from, to *Node, at Time, d Delivery, background bool) error {
	if s.backend != nil {
		return s.backend.Deliver(from, to, at, d, background)
	}
	if at < s.now {
		return fmt.Errorf("netsim: deliver at %v before now %v", at, s.now)
	}
	s.q.Deliver(at, s.seq, background, d)
	s.seq++
	s.m.queueDepth.Set(int64(s.q.Len()))
	return nil
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

// After runs fn after delay d. It panics if d is negative, which always
// indicates a programming error in a protocol implementation.
func (s *Simulator) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	t, _ := s.schedule(nil, s.Now()+d, fn, s.inBackground(nil))
	return t
}

// AfterBackground is After for background events (see
// ScheduleBackground).
func (s *Simulator) AfterBackground(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	t, _ := s.schedule(nil, s.Now()+d, fn, true)
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
// when the queue is empty.
func (s *Simulator) Step() bool {
	if s.backend != nil {
		return s.backend.Step()
	}
	if s.q.Compact() {
		s.m.queueDepth.Set(int64(s.q.Len()))
	}
	if _, ok := s.q.Head(); !ok {
		return false
	}
	e := s.q.Pop()
	s.now = e.At
	if s.execTrace != nil {
		s.execTrace.Emit(obs.Event{Kind: TraceEventKind, At: int64(e.At), Serial: e.Key})
	}
	s.inBG = e.bg
	s.q.Exec(e)
	s.inBG = false
	s.m.events.Inc()
	s.m.queueDepth.Set(int64(s.q.Len()))
	return true
}

// Run executes events (foreground and background) until the queue
// drains or the simulated clock would pass deadline. It returns the
// number of events executed.
func (s *Simulator) Run(deadline Time) int {
	if s.backend != nil {
		return s.backend.Run(deadline)
	}
	n := 0
	for {
		if e, ok := s.q.Head(); !ok || e.At > deadline {
			break
		}
		if s.Step() {
			n++
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
	return n
}

// RunAll executes pending events in timestamp order until no
// foreground events remain, with a safety cap to convert accidental
// event storms into a detectable error. Background events run when
// they precede a pending foreground event but never keep RunAll alive
// on their own; they stay queued for a later Run. This is what lets a
// system with periodic heartbeats still "settle".
func (s *Simulator) RunAll() (int, error) {
	if s.backend != nil {
		return s.backend.RunAll()
	}
	const cap = 50_000_000
	n := 0
	for s.q.Pending() > 0 {
		if !s.Step() {
			break
		}
		n++
		if n >= cap {
			return n, errors.New("netsim: event cap exceeded (livelock?)")
		}
	}
	return n, nil
}

// QueueLen returns the number of pending events (including
// lazily-cancelled ones not yet compacted away).
func (s *Simulator) QueueLen() int {
	if s.backend != nil {
		return s.backend.QueueLen()
	}
	return s.q.Len()
}

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
	// shard is the logical partition the node belongs to under a
	// sharded backend; 0 (the only shard) in serial execution.
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

// Shard returns the node's logical shard (0 in serial execution).
func (n *Node) Shard() int { return int(n.shard) }

// Now returns the simulated time from the node's execution context —
// inside an event handler under a sharded backend, this is the owning
// shard's clock, exact to the executing event's timestamp. Protocol
// code running on a node must use this (not Simulator.Now) for
// timestamps it stores or compares.
func (n *Node) Now() Time { return n.sim.nowCtx(n) }

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
	epoch := n.epoch
	t, _ := n.sim.schedule(n, n.Now()+d, func() {
		if n.epoch == epoch && !n.crashed {
			fn()
		}
	}, n.sim.inBackground(n))
	return t
}

// AfterBackground is the background-event variant of Node.After (see
// Simulator.ScheduleBackground).
func (n *Node) AfterBackground(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	epoch := n.epoch
	t, _ := n.sim.schedule(n, n.Now()+d, func() {
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
	// Under a sharded backend each direction is written only from its
	// sender's shard, so the two slots never race.
	busyUntil [2]Time
	sim       *Simulator
}

// Connect creates a link between two nodes with the given propagation
// delay and unlimited bandwidth. Under a sharded backend, creating a
// link whose endpoints live in different shards is a structural change
// — do it while the simulator is parked (the backend is notified so it
// can refresh its lookahead bound).
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
	if s.backend != nil {
		s.backend.Connected(l)
	}
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
// simulator; existing nodes and links are preserved. A sharded
// backend receives the same hint for its per-shard queues.
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
	if s.backend != nil {
		s.backend.Reserved(nodes, links)
	}
}

// Links returns all links in creation order. The slice must not be
// modified; backends use it to derive the cross-shard lookahead bound.
func (s *Simulator) Links() []*Link { return s.links }

// SetUp marks the link up or down. Messages in flight when a link goes
// down are still delivered (they already left the interface); new sends
// are dropped. Under a sharded backend, flip link state only from the
// driver goroutine or scheduled (driver-lane) events — both endpoints'
// shards read it.
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
	return l.send(from, Delivery{msg: msg}, 0)
}

// SendValue is Send for a Value message of the given wire size, which
// travels inside its delivery event and allocates nothing. The peer's
// handler must be a ValueHandler. A Value cannot model bit errors, so an
// injected corruption drops it.
func (l *Link) SendValue(from *Node, v Value, size int) bool {
	return l.send(from, Delivery{value: true, val: v}, size)
}

func (l *Link) send(from *Node, d Delivery, size int) bool {
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
	now := l.sim.nowCtx(from)
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
	// the sender's execution context, in event order — deterministic
	// given the seed (and, under a sharded backend, the partition).
	copies := 1
	if f := l.faults; f != nil {
		rng := l.sim.faultRNGCtx(from)
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
	bg := l.sim.inBackground(from)
	for i := 0; i < copies; i++ {
		at := arrive
		if i > 0 {
			// The duplicate takes its own jittered path.
			if f := l.faults; f.JitterMax > 0 {
				at += Time(l.sim.faultRNGCtx(from).Int63n(int64(f.JitterMax) + 1))
			}
		}
		if l.sim.deliver(from, to, at, d, bg) != nil {
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
