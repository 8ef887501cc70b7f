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
// one goroutine through a single heap, but a Backend (see
// internal/parsim) can take over event storage and execution, sharding
// nodes across worker goroutines under conservative synchronization.
// All structural state (nodes, links, metrics) stays here; the Backend
// owns only time and the event queues. The Scheduler interface is the
// surface both engines satisfy.
//
// The zero value of Simulator is not usable; create one with New.
package netsim

import (
	"container/heap"
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
	// Schedule arms fn at the absolute time at. src is the node from
	// whose execution context the call is made (nil = driver), dst the
	// node the event belongs to (nil = engine-global housekeeping).
	Schedule(src, dst *Node, at Time, fn func(), background bool) (Timer, error)
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

// Event is a scheduled callback. Events are pooled: once executed or
// cancelled they return to the owning simulator's free list, so the
// steady-state event path does not allocate. gen guards pooled reuse —
// a Timer captured against an earlier generation can no longer cancel
// the event's successor.
type event struct {
	at  Time
	seq uint64 // tie-breaker for deterministic ordering
	gen uint64 // reuse generation, see Timer
	idx int32  // heap position, -1 when not queued
	fn  func()
	// background marks housekeeping events (heartbeats, periodic
	// purges) that keep a live system ticking but must not keep RunAll
	// from reaching quiescence. Events scheduled while a background
	// event executes inherit the flag, so a whole heartbeat-induced
	// cascade (send, delivery, ack) counts as background.
	background bool
}

// eventQueue is a min-heap of events ordered by (at, seq). It
// maintains each event's idx so cancellation can remove eagerly.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = int32(i)
	q[j].idx = int32(j)
}
func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.idx = int32(len(*q))
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*q = old[:n-1]
	return e
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
		queueDepth: reg.Gauge(MetricQueueDepth),
	}
}

// Simulator owns the simulated clock and the event queue.
type Simulator struct {
	now   Time
	seq   uint64
	queue eventQueue
	free  []*event // pooled events; see event.gen
	// dead counts lazily-cancelled events still sitting in the heap.
	// Step skips them; compact rebuilds the heap once they outnumber
	// the live half.
	dead  int
	nodes map[string]*Node
	links []*Link
	// fgPending counts queued foreground events; RunAll stops when it
	// reaches zero even if background events remain queued.
	fgPending int
	// inBG is true while a background event executes (see event).
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
	return s.scheduleCtx(nil, nil, at, fn, s.inBackground(nil))
}

// ScheduleBackground schedules a housekeeping event: it runs in
// timestamp order like any other event, but pending background events
// do not keep RunAll alive. Use it for periodic liveness tasks
// (heartbeats, purge sweeps) that would otherwise make a
// run-to-quiescence loop spin forever.
func (s *Simulator) ScheduleBackground(at Time, fn func()) (Timer, error) {
	return s.scheduleCtx(nil, nil, at, fn, true)
}

// scheduleCtx is the single scheduling funnel: src is the node on
// whose execution context the call is made, dst the node the event
// belongs to (both nil for driver-level events).
func (s *Simulator) scheduleCtx(src, dst *Node, at Time, fn func(), background bool) (Timer, error) {
	if s.backend != nil {
		return s.backend.Schedule(src, dst, at, fn, background)
	}
	if at < s.now {
		return Timer{}, fmt.Errorf("netsim: schedule at %v before now %v", at, s.now)
	}
	e := s.newEvent(at, fn, background)
	heap.Push(&s.queue, e)
	if !background {
		s.fgPending++
	}
	s.m.queueDepth.Set(int64(s.queue.Len()))
	return Timer{sim: s, ev: e, gen: e.gen}, nil
}

// newEvent takes an event from the free list (or allocates one) and
// initializes it for scheduling.
func (s *Simulator) newEvent(at Time, fn func(), background bool) *event {
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{}
	}
	e.at, e.seq, e.fn, e.background, e.idx = at, s.seq, fn, background, -1
	s.seq++
	return e
}

// recycle returns an event to the free list. Bumping gen invalidates
// every Timer handed out for the event's previous life.
func (s *Simulator) recycle(e *event) {
	e.gen++
	e.fn = nil
	s.free = append(s.free, e)
}

// compact rebuilds the heap without the lazily-cancelled events once
// they outnumber the live ones — Stop is O(1), and the queue stays
// within 2× of its live size.
func (s *Simulator) compact() {
	if s.dead <= len(s.queue)/2 || len(s.queue) < 64 {
		return
	}
	live := s.queue[:0]
	for _, e := range s.queue {
		if e.fn == nil {
			s.recycle(e)
			continue
		}
		live = append(live, e)
	}
	// Zero the tail so the dropped slots do not pin recycled events.
	for i := len(live); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = live
	s.dead = 0
	heap.Init(&s.queue)
	s.m.queueDepth.Set(int64(s.queue.Len()))
}

// After runs fn after delay d. It panics if d is negative, which always
// indicates a programming error in a protocol implementation.
func (s *Simulator) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	t, _ := s.scheduleCtx(nil, nil, s.Now()+d, fn, s.inBackground(nil))
	return t
}

// AfterBackground is After for background events (see
// ScheduleBackground).
func (s *Simulator) AfterBackground(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	t, _ := s.scheduleCtx(nil, nil, s.Now()+d, fn, true)
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

// Ticker is a handle to a repeating background event armed with
// EveryBackground.
type Ticker struct {
	timer   Timer
	stopped bool
}

// Stop cancels the ticker; no further ticks fire. The pending tick
// event is removed from the heap eagerly — a stopped ticker leaves no
// residue in the queue (visible as an immediate MetricQueueDepth
// drop), unlike plain Timer.Stop which cancels lazily.
func (t *Ticker) Stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	t.timer.stopEager()
}

// Timer is a handle to a scheduled event that can be cancelled. It is
// a value: copies share the underlying event. The zero Timer is inert
// (Stop reports false).
type Timer struct {
	sim *Simulator
	ev  *event
	gen uint64
	// c/h bind the handle to a Backend's own event storage instead;
	// h is a pointer-shaped handle so wrapping it allocates nothing.
	c Canceller
	h any
}

// Canceller is implemented by Backends to cancel events in their own
// storage. h is the handle the backend passed to NewBackendTimer, gen
// the generation the timer was armed against (pooled-reuse guard);
// eager requests immediate queue removal rather than lazy marking.
type Canceller interface {
	CancelEvent(h any, gen uint64, eager bool) bool
}

// NewBackendTimer builds a Timer over backend-owned event storage.
// Pass a pointer-shaped handle to keep the wrap allocation-free.
func NewBackendTimer(c Canceller, h any, gen uint64) Timer {
	return Timer{c: c, h: h, gen: gen}
}

// Stop cancels the timer. It is safe to call Stop on an already-fired
// or already-stopped timer. It reports whether the call prevented the
// event from firing. Cancellation is lazy — the dead event stays in
// the heap until it surfaces or a compaction sweep removes it — so
// Stop is O(1) even on deep queues (retry timers re-arm constantly).
// Under a sharded backend, stop a timer only from the execution
// context of the node it was armed on (or while the engine is
// parked): the handle mutates that node's shard-local queue.
func (t Timer) Stop() bool {
	if t.c != nil {
		return t.c.CancelEvent(t.h, t.gen, false)
	}
	e := t.ev
	if e == nil || t.sim == nil || e.gen != t.gen || e.fn == nil {
		return false
	}
	e.fn = nil
	if !e.background {
		t.sim.fgPending--
	}
	t.sim.dead++
	return true
}

// stopEager cancels like Stop but also removes the event from the
// heap immediately (O(log n)).
func (t Timer) stopEager() bool {
	if t.c != nil {
		return t.c.CancelEvent(t.h, t.gen, true)
	}
	e := t.ev
	if e == nil || t.sim == nil || e.gen != t.gen || e.fn == nil {
		return false
	}
	if !e.background {
		t.sim.fgPending--
	}
	if e.idx >= 0 {
		heap.Remove(&t.sim.queue, int(e.idx))
		t.sim.recycle(e)
		t.sim.m.queueDepth.Set(int64(t.sim.queue.Len()))
	} else {
		e.fn = nil
		t.sim.dead++
	}
	return true
}

// Step executes the single earliest pending event. It reports false
// when the queue is empty.
func (s *Simulator) Step() bool {
	if s.backend != nil {
		return s.backend.Step()
	}
	s.compact()
	for s.queue.Len() > 0 {
		e := heap.Pop(&s.queue).(*event)
		fn := e.fn
		if fn == nil {
			s.dead--
			s.recycle(e)
			continue
		}
		if !e.background {
			s.fgPending--
		}
		s.now = e.at
		bg := e.background
		if s.execTrace != nil {
			s.execTrace.Emit(obs.Event{Kind: TraceEventKind, At: int64(e.at), Serial: e.seq})
		}
		// Recycle before running: fn may schedule, reusing this slot
		// for a fresh event (its own Timer generation).
		s.recycle(e)
		s.inBG = bg
		fn()
		s.inBG = false
		s.m.events.Inc()
		s.m.queueDepth.Set(int64(s.queue.Len()))
		return true
	}
	return false
}

// Run executes events (foreground and background) until the queue
// drains or the simulated clock would pass deadline. It returns the
// number of events executed.
func (s *Simulator) Run(deadline Time) int {
	if s.backend != nil {
		return s.backend.Run(deadline)
	}
	n := 0
	for s.queue.Len() > 0 {
		e := s.queue[0]
		if e.fn == nil {
			heap.Pop(&s.queue)
			s.dead--
			s.recycle(e)
			continue
		}
		if e.at > deadline {
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
	for s.fgPending > 0 {
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
	return s.queue.Len()
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

// Burst is a Message carrying several messages that cross a link as
// one back-to-back train. Its wire size is the sum of its members', so
// bandwidth serialization and backlog accounting charge the same bytes
// as sending the members individually — in a single event. Receivers
// type-switch on *Burst and process the members in order. The member
// slice is owned by the current holder: a receiver may filter it in
// place before forwarding.
type Burst struct {
	Msgs []Message
	size int
}

// NewBurst wraps msgs (the slice is retained, not copied).
func NewBurst(msgs []Message) *Burst {
	b := &Burst{Msgs: msgs}
	for _, m := range msgs {
		b.size += m.Size()
	}
	return b
}

// Size returns the summed wire size of the member messages.
func (b *Burst) Size() int { return b.size }

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

// SetHandler installs the receive callback for the node.
func (n *Node) SetHandler(h Handler) { n.handler = h }

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
	t, _ := n.sim.scheduleCtx(n, n, n.Now()+d, func() {
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
	t, _ := n.sim.scheduleCtx(n, n, n.Now()+d, func() {
		if n.epoch == epoch && !n.crashed {
			fn()
		}
	}, true)
	return t
}

// Links returns the links attached to this node.
func (n *Node) Links() []*Link { return n.links }

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
	l := &Link{a: a, b: b, Delay: delay, up: true, sim: s}
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

// Send transmits msg from node `from` over the link. The message is
// delivered to the peer's handler after serialization and propagation
// delay. Send reports whether the message was accepted (false if the
// link is down, either endpoint condition rejects it, or from is not
// an endpoint). Injected faults (loss, corruption) still report true:
// the sender cannot tell a frame lost in flight from a delivered one.
func (l *Link) Send(from *Node, msg Message) bool {
	var dir int
	var to *Node
	switch from {
	case l.a:
		dir, to = 0, l.b
	case l.b:
		dir, to = 1, l.a
	default:
		return false
	}
	if !l.up || from.crashed {
		l.sim.m.dropped.Inc()
		return false
	}
	now := l.sim.nowCtx(from)
	start := now
	if l.busyUntil[dir] > start {
		start = l.busyUntil[dir]
	}
	if l.MaxBacklog > 0 && start-now > l.MaxBacklog {
		// Finite buffer: the transmit queue is too deep; tail-drop.
		l.sim.m.dropped.Inc()
		return false
	}
	var ser Time
	if l.Bps > 0 {
		sec := float64(msg.Size()) / l.Bps
		if sec > math.MaxInt64/float64(time.Second) {
			sec = math.MaxInt64 / float64(time.Second)
		}
		ser = Time(sec * float64(time.Second))
	}
	l.busyUntil[dir] = start + ser
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
			if cm, ok := msg.(Corruptible); ok {
				msg = cm.Corrupt(rng.Uint64())
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
				at += Time(l.sim.faultRNGCtx(from).Int63n(int64(f.JitterMax) + 1))
			}
		}
		l.sim.scheduleCtx(from, to, at, func() {
			if to.crashed {
				l.sim.m.dropped.Inc()
				l.sim.m.crashDrop.Inc()
				return
			}
			l.sim.m.delivered.Inc()
			if to.handler != nil {
				to.handler.Receive(from, l, msg)
			}
		}, l.sim.inBackground(from))
	}
	return true
}

// SendTo is a convenience that finds the first up link from n to the
// named neighbor and sends msg over it. It reports whether a link was
// found and the send accepted. The common case — one link to the
// neighbor, link up — is an O(1) map lookup; only parallel links with
// the first one down fall back to scanning.
func (n *Node) SendTo(neighbor *Node, msg Message) bool {
	l, ok := n.nbr[neighbor]
	if !ok {
		return false
	}
	if l.up {
		return l.Send(n, msg)
	}
	for _, l := range n.links {
		if l.Neighbor(n) == neighbor && l.up {
			return l.Send(n, msg)
		}
	}
	return false
}
