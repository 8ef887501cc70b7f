// Package parsim executes a netsim event graph across worker
// goroutines under conservative (lookahead-window) synchronization,
// while producing results bit-identical to running the same engine
// with one worker.
//
// # Model
//
// Nodes are partitioned into a fixed number of logical shards (set at
// construction, independent of the worker count — see
// topology.PartitionCones for the topology-aware assignment). Each
// shard is a lane: it owns an event queue (a netsim.Queue), a clock, a
// fault-RNG stream and an event-creation counter. A sixteenth-plus-one lane — the
// global lane — holds driver-scheduled events (flap/partition
// schedules, interval recorders, grace timers); it executes on the
// coordinator goroutine with every shard parked, so global events can
// safely touch cross-shard state (link status, registry snapshots).
//
// Simulation advances in epochs. Let tS be the earliest pending shard
// event and tG the earliest pending global event. If tG <= tS the
// coordinator runs the global event. Otherwise all lanes execute their
// events with timestamp strictly below
//
//	windowEnd = min(tS + lookahead, tG, deadline+1)
//
// in parallel, where lookahead is the minimum delay of any link whose
// endpoints live in different shards. A message sent at time t over a
// cross-shard link arrives no earlier than t + lookahead >= windowEnd,
// so cross-shard deliveries are buffered in per-(src,dst) SPSC queues
// during the epoch and merged into the destination queues at the next
// barrier — always before the destination's clock reaches them. The
// coordinator merges them with every lane parked, so a Value crossing
// shards is imported into its receiver's shard there.
//
// # Determinism
//
// Every event carries the key (at, origin, originSeq): origin is the
// lane that created it (global = -1, ordered first) and originSeq that
// lane's monotonic creation counter, packed into one netsim.Event key as
// (origin+1)<<56 | originSeq. Lane heaps order by this key, so
// each lane executes a deterministic sequence, which makes its
// creation counter — and therefore every key it assigns —
// deterministic by induction. Crucially the key is fixed at creation,
// not at delivery, so the total order does not depend on the epoch
// window structure or on which worker ran which lane: runs with 1 and
// N workers are bit-identical. Per-lane fault RNG streams are seeded
// from the fault seed and the lane id and drawn in lane-execution
// order, so injected faults are equally reproducible (though they
// differ from the serial Simulator's single-stream schedule — see
// DESIGN.md §11).
//
// # Serial fallback
//
// If any cross-shard link has zero delay there is no usable lookahead;
// the engine then executes the merged key order one event at a time on
// the coordinator. Because the key order is window-independent this
// produces the same results a parallel run would, just without the
// parallelism. workers <= 1 keeps the epoch structure and simply runs
// the lanes inline.
package parsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"discs/internal/netsim"
	"discs/internal/obs"
)

// DefaultShards is the default number of logical shards. It is part of
// the deterministic inputs of a run: changing it changes event
// interleavings (changing Workers does not).
const DefaultShards = 16

// Metric names published by the engine. Everything under "parsim." is
// diagnostic: epoch and per-shard counts are deterministic, stall and
// per-worker attribution are wall-clock/scheduling dependent — so
// differential tests compare snapshots with the whole parsim.*
// namespace stripped.
const (
	MetricEpochs  = "parsim.epochs"
	MetricStallNS = "parsim.stall_ns"
)

// MetricWorkerEvents names the executed-event counter for one worker.
func MetricWorkerEvents(w int) string { return fmt.Sprintf("parsim.worker%d.events", w) }

// MetricShardEvents names the executed-event counter for one shard.
func MetricShardEvents(s int) string { return fmt.Sprintf("parsim.shard%d.events", s) }

const (
	maxTime = netsim.Time(math.MaxInt64)
	// defaultStride bounds epoch windows when no cross-shard links
	// exist (lanes fully independent, any window is safe) so that
	// self-re-arming background events cannot spin a lane forever.
	defaultStride = 100 * time.Millisecond
	// eventCap mirrors the serial RunAll livelock guard.
	eventCap = 50_000_000
)

// An event key is (origin+1)<<originShift | oseq: origin is the
// creating lane (-1 global, 0..S-1 shards) and oseq that lane's creation
// counter, so keys order by (origin, oseq) as long as origin+1 fits in
// the bits above originShift — hence MaxShards.
const (
	originShift = 56
	oseqMask    = 1<<originShift - 1
)

// MaxShards is the largest shard count an Engine accepts.
const MaxShards = 1<<(64-originShift) - 1

// lane is one shard's event state (or the global lane, id -1). During
// an epoch a lane is touched by exactly one worker; between epochs
// only the coordinator touches it.
type lane struct {
	id  int32
	now netsim.Time
	ctr uint64 // creation counter, source of oseq
	q   *netsim.Queue
	// fgMax is the latest timestamp any foreground event was ever
	// scheduled at on this lane (monotone; cancellations do not lower
	// it). RunAll clamps epoch windows to the maximum across lanes so
	// background events far beyond the last foreground event do not
	// run — mirroring the serial RunAll's stop-at-quiescence.
	fgMax netsim.Time
	inBG  bool
	// rng draws from src, a counting source, so checkpoints can record
	// the exact per-lane fault stream position (see checkpoint.go).
	rng *rand.Rand
	src *netsim.CountingSource
	// executed counts events run on this lane (deterministic).
	executed uint64
	err      error
}

// key assigns the lane's next creation key.
func (ln *lane) key() uint64 {
	k := uint64(ln.id+1)<<originShift | ln.ctr
	ln.ctr++
	return k
}

// deliver queues d on the lane under key.
func (ln *lane) deliver(at netsim.Time, key uint64, bg bool, d netsim.Delivery) {
	ln.q.Deliver(at, key, bg, d)
	if !bg {
		ln.fgMax = maxT(ln.fgMax, at)
	}
}

// runWindow executes the lane's events with at < end in key order,
// stopping after maxEvents. It returns the number executed. Called by
// the lane's current executor (a worker mid-epoch, or the coordinator).
func (ln *lane) runWindow(e *Engine, end netsim.Time, maxEvents int) int {
	q := ln.q
	q.Compact()
	executed := 0
	trace := e.trace
	for {
		ev, ok := q.Head()
		if !ok || ev.At >= end {
			break
		}
		if executed >= maxEvents {
			if maxEvents >= eventCap {
				ln.err = fmt.Errorf("parsim: lane %d exceeded %d events in one window (livelock?)", ln.id, maxEvents)
			}
			break
		}
		q.Pop()
		ln.now = ev.At
		if trace != nil {
			trace.Emit(obs.Event{
				Kind:   netsim.TraceEventKind,
				At:     int64(ev.At),
				AS:     uint32(ev.Key >> originShift),
				Serial: ev.Key & oseqMask,
			})
		}
		ln.inBG = ev.Background()
		q.Exec(ev)
		ln.inBG = false
		executed++
	}
	ln.executed += uint64(executed)
	if executed > 0 {
		e.events.Add(uint64(executed))
	}
	return executed
}

// transfer is a delivery one lane created for another during an epoch,
// its key already assigned.
type transfer struct {
	at  netsim.Time
	key uint64
	bg  bool
	d   netsim.Delivery
}

// Options configures an Engine.
type Options struct {
	// Shards is the number of logical shards (default DefaultShards).
	// Part of the deterministic inputs: two runs must use the same
	// value to be comparable.
	Shards int
	// Workers is the number of worker goroutines (default
	// GOMAXPROCS). Never affects results, only wall-clock speed.
	Workers int
}

// Engine is a conservative parallel event core. Create one with New —
// which installs it as the simulator's Backend — after the nodes that
// exist so far have their shards assigned, and before any events are
// scheduled.
type Engine struct {
	sim     *netsim.Simulator
	shards  int
	workers int
	// lookahead is the minimum cross-shard link delay; <0 means no
	// cross-shard links seen yet (unbounded windows, clamped by
	// defaultStride). merged flips on a zero-delay cross-shard link.
	lookahead netsim.Time
	merged    bool
	// faultSeed is the base seed the per-lane fault streams derive
	// from (SeedFaults; default 1), recorded for checkpointing.
	faultSeed int64
	global    *lane
	lanes     []*lane
	// cross buffers the deliveries each source lane creates for each
	// destination lane during an epoch ([dst][src]). Only the source's
	// worker appends; only the coordinator drains, after the barrier.
	cross [][][]transfer

	// Epoch machinery. inEpoch is written by the coordinator strictly
	// before releasing / after collecting workers (the work/done
	// channels provide the happens-before edges).
	inEpoch   bool
	windowEnd netsim.Time
	cursor    atomic.Int64
	work      chan struct{}
	done      chan struct{}
	epochBusy []time.Duration // per-worker busy time in the last epoch
	closed    bool

	// Metrics (registered on the simulator's registry).
	events       *obs.Counter // netsim.events
	queueDepth   *obs.Gauge   // netsim.queue_depth
	epochs       *obs.Counter
	stall        *obs.Counter
	workerEvents []*obs.Counter
	shardEvents  []*obs.Counter
	shardPub     []uint64 // last published per-shard executed counts
	trace        *obs.Tracer
}

var _ netsim.Backend = (*Engine)(nil)

// New builds an engine over sim and installs it as sim's Backend.
// Shard assignments (Node.SetShard) for already-created nodes must be
// final: the cross-shard lookahead is derived from them and from the
// links present now (links added later feed in via Connected). It
// refuses more than MaxShards shards.
func New(sim *netsim.Simulator, opts Options) (*Engine, error) {
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > MaxShards {
		return nil, fmt.Errorf("parsim: %d shards, more than the %d an event key can name", shards, MaxShards)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	e := &Engine{
		sim:       sim,
		shards:    shards,
		workers:   workers,
		lookahead: -1,
		faultSeed: 1,
		global:    &lane{id: -1, q: sim.NewQueue()},
		lanes:     make([]*lane, shards),
		cross:     make([][][]transfer, shards),
		epochBusy: make([]time.Duration, workers),
	}
	e.global.seed(1)
	for i := range e.lanes {
		e.lanes[i] = &lane{id: int32(i), q: sim.NewQueue()}
		e.lanes[i].seed(1)
		e.cross[i] = make([][]transfer, shards)
	}
	reg := sim.Registry()
	e.events = reg.Counter(netsim.MetricEvents)
	e.queueDepth = reg.Gauge(netsim.MetricQueueDepth)
	e.epochs = reg.Counter(MetricEpochs)
	e.stall = reg.Counter(MetricStallNS)
	e.workerEvents = make([]*obs.Counter, workers)
	for i := range e.workerEvents {
		e.workerEvents[i] = reg.Counter(MetricWorkerEvents(i))
	}
	e.shardEvents = make([]*obs.Counter, shards)
	e.shardPub = make([]uint64, shards)
	for i := range e.shardEvents {
		e.shardEvents[i] = reg.Counter(MetricShardEvents(i))
	}
	for _, l := range sim.Links() {
		e.Connected(l)
	}
	if workers > 1 {
		e.work = make(chan struct{}, workers)
		e.done = make(chan struct{}, workers)
		for w := 0; w < workers; w++ {
			go e.worker(w, e.work)
		}
	}
	sim.SetBackend(e)
	return e, nil
}

// laneRNG derives the per-lane fault stream from the base seed via a
// splitmix64 step, so neighbouring lane seeds are decorrelated.
func laneRNG(seed int64, id int32) (*rand.Rand, *netsim.CountingSource) {
	z := uint64(seed) + uint64(id+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	src := netsim.NewCountingSource(int64(z ^ (z >> 31)))
	return rand.New(src), src
}

// seedLane installs the fault stream derived from (seed, lane id).
func (ln *lane) seed(seed int64) {
	ln.rng, ln.src = laneRNG(seed, ln.id)
}

// Workers returns the number of worker goroutines.
func (e *Engine) Workers() int { return e.workers }

// Shards returns the number of logical shards.
func (e *Engine) Shards() int { return e.shards }

// Merged reports whether the engine fell back to merged serial
// execution (a zero-delay cross-shard link exists).
func (e *Engine) Merged() bool { return e.merged }

// Lookahead returns the current cross-shard lookahead bound (negative
// when no cross-shard links exist).
func (e *Engine) Lookahead() netsim.Time { return e.lookahead }

// Close stops the worker goroutines. The engine must be parked (no
// Run/RunAll in progress). Further Run calls fall back to inline lane
// execution; results are unchanged.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.work != nil {
		close(e.work)
		e.work = nil
		e.workers = 1
	}
}

func (e *Engine) laneFor(n *netsim.Node) *lane {
	if n == nil {
		return e.global
	}
	s := n.Shard()
	if s < 0 || s >= e.shards {
		s = ((s % e.shards) + e.shards) % e.shards
	}
	return e.lanes[s]
}

// --- netsim.Backend ---

// Now returns the clock of ctx's lane (the driver clock for nil).
func (e *Engine) Now(ctx *netsim.Node) netsim.Time { return e.laneFor(ctx).now }

// InBackground reports whether ctx's lane is executing a background
// event.
func (e *Engine) InBackground(ctx *netsim.Node) bool { return e.laneFor(ctx).inBG }

// FaultRNG returns ctx's lane-local fault stream.
func (e *Engine) FaultRNG(ctx *netsim.Node) *rand.Rand { return e.laneFor(ctx).rng }

// SeedFaults reseeds every lane's fault stream from seed.
func (e *Engine) SeedFaults(seed int64) {
	e.faultSeed = seed
	e.global.seed(seed)
	for _, ln := range e.lanes {
		ln.seed(seed)
	}
}

// Schedule arms the timer fn at the absolute time at on ctx's lane
// (the global lane for nil, which only the driver may use).
func (e *Engine) Schedule(ctx *netsim.Node, at netsim.Time, fn func(), background bool) (netsim.Timer, error) {
	if e.inEpoch && ctx == nil {
		panic("parsim: driver-context Schedule while an epoch is executing")
	}
	ln := e.laneFor(ctx)
	if at < ln.now {
		return netsim.Timer{}, fmt.Errorf("parsim: schedule at %v before now %v", at, ln.now)
	}
	t := ln.q.Schedule(at, ln.key(), fn, background)
	if !background {
		ln.fgMax = maxT(ln.fgMax, at)
	}
	return t, nil
}

// Deliver queues d, sent by from to to, to arrive at at. During an
// epoch the key comes from the sender's lane, and a delivery to another
// lane waits in a cross buffer for the barrier. Parked, the coordinator
// (or driver) owns every lane: the delivery goes straight to the
// destination, under the destination's key.
func (e *Engine) Deliver(from, to *netsim.Node, at netsim.Time, d netsim.Delivery, background bool) error {
	dst := e.laneFor(to)
	if !e.inEpoch {
		if at < dst.now {
			return fmt.Errorf("parsim: deliver at %v before now %v", at, dst.now)
		}
		dst.deliver(at, dst.key(), background, d)
		return nil
	}
	src := e.laneFor(from)
	if at < src.now {
		return fmt.Errorf("parsim: deliver at %v before now %v", at, src.now)
	}
	key := src.key()
	if dst == src {
		src.deliver(at, key, background, d)
		return nil
	}
	// The key was assigned above, so merge timing cannot affect
	// ordering. (Its fg count and fgMax reach the destination at drain.)
	e.cross[dst.id][src.id] = append(e.cross[dst.id][src.id], transfer{at: at, key: key, bg: background, d: d})
	return nil
}

// Reserved pre-sizes per-lane queues for a known topology.
func (e *Engine) Reserved(nodes, links int) {
	per := (nodes + links) / e.shards
	for _, ln := range e.lanes {
		ln.q.Reserve(per)
	}
}

// Connected refreshes the lookahead bound with a new link. A
// zero-delay cross-shard link forces merged (serial) execution.
func (e *Engine) Connected(l *netsim.Link) {
	a, b := l.Endpoints()
	if e.laneFor(a) == e.laneFor(b) {
		return
	}
	if e.lookahead < 0 || l.Delay < e.lookahead {
		e.lookahead = l.Delay
	}
	if l.Delay <= 0 {
		e.merged = true
	}
}

// QueueLen returns pending events across all lanes (driver-only).
func (e *Engine) QueueLen() int {
	n := e.global.q.Len()
	for _, ln := range e.lanes {
		n += ln.q.Len()
	}
	return n
}

// Step executes the single earliest pending event in merged key order
// on the coordinator. Because the order is window-independent, mixing
// Step with Run/RunAll cannot change results.
func (e *Engine) Step() bool {
	e.trace = e.sim.ExecTrace()
	ln, ev, ok := e.minHead()
	if g, gok := e.global.q.Head(); gok && (!ok || g.Before(ev)) {
		ln, ev, ok = e.global, g, true
	}
	if !ok {
		return false
	}
	if ln != e.global {
		// Epoch semantics for shard events, so keys match Run/RunAll.
		e.inEpoch = true
		ln.runWindow(e, ev.At+1, 1)
		e.inEpoch = false
		e.drainCross()
	} else {
		ln.runWindow(e, ev.At+1, 1)
	}
	e.publish()
	return true
}

// minHead returns the shard lane whose head event is least in key order,
// and that event; ok is false when every shard lane is drained.
func (e *Engine) minHead() (best *lane, head netsim.Event, ok bool) {
	for _, ln := range e.lanes {
		if h, found := ln.q.Head(); found && (!ok || h.Before(head)) {
			best, head, ok = ln, h, true
		}
	}
	return best, head, ok
}

// Run executes events (foreground and background) with at <= deadline,
// then advances every clock to deadline, mirroring the serial
// Simulator.Run.
func (e *Engine) Run(deadline netsim.Time) int {
	n, err := e.loop(deadline, false)
	if err != nil {
		panic(err)
	}
	e.global.now = maxT(e.global.now, deadline)
	for _, ln := range e.lanes {
		ln.now = maxT(ln.now, deadline)
	}
	e.publish()
	return n
}

// RunAll executes events in key order until no foreground events
// remain. Termination is checked at epoch barriers, so background
// events within the final window may still run (bounded by the
// lookahead; deterministic for a given scenario).
func (e *Engine) RunAll() (int, error) {
	n, err := e.loop(maxTime, true)
	e.publish()
	return n, err
}

func maxT(a, b netsim.Time) netsim.Time {
	if a > b {
		return a
	}
	return b
}

func (e *Engine) totalFG() int {
	n := e.global.q.Pending()
	for _, ln := range e.lanes {
		n += ln.q.Pending()
	}
	return n
}

// drainCross merges buffered cross-shard deliveries into their
// destination queues. Coordinator-only, workers parked: this is the one
// point where lanes exchange data, so it is where a Value crossing
// shards is imported (netsim.ValueHandler). Keys were assigned at
// creation, so push order is irrelevant to the event order; the fixed
// (destination, source) order also fixes the order imports write each
// shard's state.
func (e *Engine) drainCross() {
	for d, row := range e.cross {
		ln := e.lanes[d]
		for s, buf := range row {
			if len(buf) == 0 {
				continue
			}
			for i := range buf {
				t := &buf[i]
				ln.deliver(t.at, t.key, t.bg, t.d)
			}
			clear(buf) // drop the boxed messages for the collector
			row[s] = buf[:0]
		}
	}
}

// loop is the shared coordinator loop behind Run and RunAll.
func (e *Engine) loop(deadline netsim.Time, quiesce bool) (int, error) {
	e.trace = e.sim.ExecTrace()
	exDeadline := deadline
	if exDeadline < maxTime {
		exDeadline++ // events at exactly deadline execute
	}
	total := 0
	for {
		e.drainCross()
		e.publish()
		if quiesce && e.totalFG() == 0 {
			return total, nil
		}
		g, okG := e.global.q.Head()
		_, h, okS := e.minHead()
		tG, tS := g.At, h.At
		if !okG && !okS {
			return total, nil
		}
		if !quiesce && (!okG || tG > deadline) && (!okS || tS > deadline) {
			return total, nil
		}
		if okG && (!okS || tG <= tS) {
			// Global events order before shard events at equal time
			// (origin -1); run exactly one, then re-evaluate — it may
			// have scheduled in any lane.
			n := e.global.runWindow(e, tG+1, 1)
			total += n
			if e.global.err != nil {
				return total, e.global.err
			}
			continue
		}
		// Shard epoch.
		stride := e.lookahead
		if stride <= 0 {
			stride = defaultStride
		}
		windowEnd := tS + stride
		if windowEnd < tS { // overflow
			windowEnd = maxTime
		}
		if okG && tG < windowEnd {
			windowEnd = tG
		}
		if exDeadline < windowEnd {
			windowEnd = exDeadline
		}
		if quiesce {
			// Stop-at-quiescence: never run background events beyond
			// the latest foreground timestamp ever scheduled. fgMax is
			// monotone, so this can only shrink the window — safe —
			// and it is derived from deterministic per-lane state.
			fgEnd := e.global.fgMax
			for _, ln := range e.lanes {
				fgEnd = maxT(fgEnd, ln.fgMax)
			}
			if fgEnd+1 < windowEnd {
				windowEnd = fgEnd + 1
			}
		}
		var n int
		var err error
		if e.merged {
			n, err = e.runMergedWindow(windowEnd)
		} else {
			n, err = e.runEpoch(windowEnd)
		}
		total += n
		if err != nil {
			return total, err
		}
		if total >= eventCap {
			return total, errors.New("parsim: event cap exceeded (livelock?)")
		}
	}
}

// runEpoch executes one lookahead window across all lanes — in
// parallel when workers are available, inline otherwise. Identical
// results either way.
func (e *Engine) runEpoch(windowEnd netsim.Time) (int, error) {
	e.epochs.Inc()
	n := 0
	if e.workers <= 1 || e.work == nil {
		// Inline execution still uses epoch semantics (inEpoch): event
		// keys must come from the source lane and cross-shard events
		// must go through the buffers, or the creation counters — and
		// with them every tie-break — would differ from a worker run.
		e.inEpoch = true
		for _, ln := range e.lanes {
			n += ln.runWindow(e, windowEnd, eventCap)
		}
		e.inEpoch = false
		if len(e.workerEvents) > 0 {
			e.workerEvents[0].Add(uint64(n))
		}
	} else {
		e.windowEnd = windowEnd
		e.cursor.Store(0)
		e.inEpoch = true
		start := time.Now()
		for i := 0; i < e.workers; i++ {
			e.work <- struct{}{}
		}
		for i := 0; i < e.workers; i++ {
			<-e.done
		}
		e.inEpoch = false
		wall := time.Since(start)
		var stall time.Duration
		for w := 0; w < e.workers; w++ {
			if busy := e.epochBusy[w]; busy < wall {
				stall += wall - busy
			}
		}
		e.stall.Add(uint64(stall))
		for _, ln := range e.lanes {
			n += int(ln.executed - e.shardPub[ln.id])
		}
	}
	for _, ln := range e.lanes {
		if d := ln.executed - e.shardPub[ln.id]; d > 0 {
			e.shardEvents[ln.id].Add(d)
			e.shardPub[ln.id] = ln.executed
		}
		if ln.err != nil {
			return n, ln.err
		}
	}
	return n, nil
}

// runMergedWindow executes the window in fully merged key order on the
// coordinator — the serial fallback for zero-lookahead topologies.
func (e *Engine) runMergedWindow(windowEnd netsim.Time) (int, error) {
	e.epochs.Inc()
	n := 0
	for {
		best, ev, ok := e.minHead()
		if !ok || ev.At >= windowEnd {
			break
		}
		e.inEpoch = true
		n += best.runWindow(e, ev.At+1, 1)
		e.inEpoch = false
		// Zero-delay cross-shard events land in buffers even though
		// nothing runs concurrently; fold them in immediately so they
		// are visible as candidates.
		e.drainCross()
		if best.err != nil {
			return n, best.err
		}
		if n >= eventCap {
			return n, errors.New("parsim: event cap exceeded (livelock?)")
		}
	}
	if len(e.workerEvents) > 0 {
		e.workerEvents[0].Add(uint64(n))
	}
	for _, ln := range e.lanes {
		if d := ln.executed - e.shardPub[ln.id]; d > 0 {
			e.shardEvents[ln.id].Add(d)
			e.shardPub[ln.id] = ln.executed
		}
	}
	return n, nil
}

// worker is the body of one worker goroutine: per epoch, claim lanes
// off the shared cursor and run their windows.
func (e *Engine) worker(wid int, work <-chan struct{}) {
	for range work {
		start := time.Now()
		n := 0
		for {
			i := int(e.cursor.Add(1)) - 1
			if i >= e.shards {
				break
			}
			n += e.lanes[i].runWindow(e, e.windowEnd, eventCap)
		}
		e.epochBusy[wid] = time.Since(start)
		e.workerEvents[wid].Add(uint64(n))
		e.done <- struct{}{}
	}
}

// publish refreshes driver-visible derived state: the driver clock
// (max of all lane clocks) and the queue-depth gauge. Coordinator-only,
// called at deterministic points, so snapshots taken at global events
// see deterministic values.
func (e *Engine) publish() {
	now := e.global.now
	for _, ln := range e.lanes {
		if ln.now > now {
			now = ln.now
		}
	}
	e.global.now = now
	e.queueDepth.Set(int64(e.QueueLen()))
}
