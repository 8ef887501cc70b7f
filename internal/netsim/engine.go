// Event engine. Every Simulator executes its events on one Engine, a
// conservative (lookahead-window) parallel event core whose results are
// bit-identical at any worker count.
//
// # Model
//
// Nodes are partitioned into a fixed number of logical shards (set with
// Relane, independent of the worker count — see topology.PartitionCones
// for the topology-aware assignment). Each shard is a lane: it owns an
// event queue, a clock, a fault-RNG stream and an event-creation
// counter. One more lane — the global lane — holds driver-scheduled
// events (flap/partition schedules, interval recorders, grace timers);
// it executes on the coordinator goroutine with every shard parked, so
// global events can safely touch cross-shard state (link status,
// registry snapshots). A fresh Simulator has one shard run inline.
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
// lane's monotonic creation counter, packed into one event key as
// (origin+1)<<56 | originSeq. Lane heaps order by this key, so each
// lane executes a deterministic sequence, which makes its creation
// counter — and therefore every key it assigns — deterministic by
// induction. Crucially the key is fixed at creation, not at delivery,
// so the total order does not depend on the epoch window structure or
// on which worker ran which lane: runs with 1 and N workers are
// bit-identical. Per-lane fault RNG streams are seeded from the fault
// seed and the lane id and drawn in lane-execution order, so injected
// faults are equally reproducible (DESIGN.md §11).
//
// # Merged fallback
//
// If any cross-shard link has zero delay there is no usable lookahead;
// the engine then executes the merged key order one event at a time on
// the coordinator. Because the key order is window-independent this
// produces the same results a parallel run would, just without the
// parallelism. One worker keeps the epoch structure and simply runs
// the lanes inline.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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

// metricShardEvents names the executed-event counter for one shard.
func metricShardEvents(s int) string { return fmt.Sprintf("parsim.shard%d.events", s) }

const (
	maxTime = Time(math.MaxInt64)
	// defaultStride bounds epoch windows when no cross-shard links
	// exist (lanes fully independent, any window is safe) so that
	// self-re-arming background events cannot spin a lane forever.
	defaultStride = 100 * time.Millisecond
	// eventCap converts accidental event storms into a detectable error.
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
	now Time
	ctr uint64 // creation counter, source of oseq
	q   *queue
	// fgMax is the latest timestamp any foreground event was ever
	// scheduled at on this lane (monotone; cancellations do not lower
	// it). RunAll clamps epoch windows to the maximum across lanes so
	// background events far beyond the last foreground event do not
	// run.
	fgMax Time
	// inBG is true while a background event executes. Events scheduled
	// meanwhile inherit the flag, so a whole heartbeat-induced cascade
	// (send, delivery, ack) counts as background.
	inBG bool
	// rng draws from src, a counting source, so checkpoints can record
	// the exact per-lane fault stream position (see checkpoint.go).
	rng *rand.Rand
	src *countingSource
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
func (ln *lane) deliver(at Time, key uint64, bg bool, d delivery) {
	ln.q.deliver(at, key, bg, d)
	if !bg {
		ln.fgMax = max(ln.fgMax, at)
	}
}

// runWindow executes the lane's events with at < end in key order,
// stopping after maxEvents. It returns the number executed. Called by
// the lane's current executor (a worker mid-epoch, or the coordinator).
func (ln *lane) runWindow(e *Engine, end Time, maxEvents int) int {
	q := ln.q
	q.compact()
	executed := 0
	trace := e.sim.execTrace
	for {
		ev, ok := q.head()
		if !ok || ev.at >= end {
			break
		}
		if executed >= maxEvents {
			if maxEvents >= eventCap {
				ln.err = fmt.Errorf("netsim: lane %d exceeded %d events in one window (livelock?)", ln.id, maxEvents)
			}
			break
		}
		q.pop()
		ln.now = ev.at
		if trace != nil {
			trace.Emit(obs.Event{
				Kind:   traceEventKind,
				At:     int64(ev.at),
				AS:     uint32(ev.key >> originShift),
				Serial: ev.key & oseqMask,
			})
		}
		ln.inBG = ev.bg
		q.exec(ev)
		ln.inBG = false
		executed++
	}
	ln.executed += uint64(executed)
	if executed > 0 {
		e.sim.m.events.Add(uint64(executed))
	}
	return executed
}

// laneRNG derives the per-lane fault stream from the base seed via a
// splitmix64 step, so neighbouring lane seeds are decorrelated.
func laneRNG(seed int64, id int32) (*rand.Rand, *countingSource) {
	z := uint64(seed) + uint64(id+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	src := newCountingSource(int64(z ^ (z >> 31)))
	return rand.New(src), src
}

// seed installs the fault stream derived from (seed, lane id).
func (ln *lane) seed(seed int64) {
	ln.rng, ln.src = laneRNG(seed, ln.id)
}

// transfer is a delivery one lane created for another during an epoch,
// its key already assigned.
type transfer struct {
	at  Time
	key uint64
	bg  bool
	d   delivery
}

// Options sizes an Engine (see Simulator.Relane).
type Options struct {
	// Shards is the number of logical shards (default DefaultShards).
	// Part of the deterministic inputs: two runs must use the same
	// value to be comparable.
	Shards int
	// Workers is the number of worker goroutines (default
	// GOMAXPROCS). Never affects results, only wall-clock speed.
	Workers int
}

// Engine is a simulator's event core: its lanes, their clocks and
// queues, and the workers that run them. A Simulator starts with a
// one-shard, one-worker engine; Relane replaces it.
type Engine struct {
	sim     *Simulator
	shards  int
	workers int
	// lookahead is the minimum cross-shard link delay; <0 means no
	// cross-shard links seen yet (unbounded windows, clamped by
	// defaultStride). merged flips on a zero-delay cross-shard link.
	lookahead Time
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
	windowEnd Time
	cursor    atomic.Int64
	work      chan struct{}
	done      chan struct{}
	exited    sync.WaitGroup  // the worker goroutines, joined by Close
	epochBusy []time.Duration // per-worker busy time in the last epoch
	closed    bool
	shardPub  []uint64 // last published per-shard executed counts
}

// newEngine builds an engine over s with the lane clocks at now. It
// refuses more than MaxShards shards.
func newEngine(s *Simulator, opts Options, now Time) (*Engine, error) {
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > MaxShards {
		return nil, fmt.Errorf("netsim: %d shards, more than the %d an event key can name", shards, MaxShards)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, shards)
	e := &Engine{
		sim:       s,
		shards:    shards,
		workers:   workers,
		lookahead: -1,
		faultSeed: 1,
		global:    &lane{id: -1, now: now, q: &queue{sim: s}},
		lanes:     make([]*lane, shards),
		cross:     make([][][]transfer, shards),
		epochBusy: make([]time.Duration, workers),
		shardPub:  make([]uint64, shards),
	}
	for i := range e.lanes {
		e.lanes[i] = &lane{id: int32(i), now: now, q: &queue{sim: s}}
		e.cross[i] = make([][]transfer, shards)
	}
	e.seedFaults(1)
	s.m.workerEvents = make([]*obs.Counter, workers)
	for i := range s.m.workerEvents {
		s.m.workerEvents[i] = s.reg.Counter(MetricWorkerEvents(i))
	}
	s.m.shardEvents = make([]*obs.Counter, shards)
	for i := range s.m.shardEvents {
		s.m.shardEvents[i] = s.reg.Counter(metricShardEvents(i))
	}
	for _, l := range s.links {
		e.connected(l)
	}
	if workers > 1 {
		e.work = make(chan struct{}, workers)
		e.done = make(chan struct{}, workers)
		e.exited.Add(workers)
		for w := 0; w < workers; w++ {
			go e.worker(w, e.work)
		}
	}
	return e, nil
}

// Relane replaces the simulator's engine with one of opts.Shards lanes
// run by opts.Workers goroutines, and returns it. Call it while the
// simulator is parked with no event pending, once Node.SetShard is
// final for the nodes that exist so far: the cross-shard lookahead is
// derived from those shards and from the links present now (links
// added later refresh it). The clock and the fault seed carry over.
func (s *Simulator) Relane(opts Options) (*Engine, error) {
	old := s.eng
	for _, ln := range old.all() {
		if _, ok := ln.q.head(); ok {
			return nil, errors.New("netsim: relane with events pending")
		}
	}
	e, err := newEngine(s, opts, old.global.now)
	if err != nil {
		return nil, err
	}
	old.Close()
	e.seedFaults(old.faultSeed)
	s.eng = e
	return e, nil
}

// all returns the global lane followed by the shard lanes.
func (e *Engine) all() []*lane { return append([]*lane{e.global}, e.lanes...) }

// Workers returns the number of worker goroutines.
func (e *Engine) Workers() int { return e.workers }

// Shards returns the number of logical shards.
func (e *Engine) Shards() int { return e.shards }

// Merged reports whether the engine fell back to merged serial
// execution (a zero-delay cross-shard link exists).
func (e *Engine) Merged() bool { return e.merged }

// Lookahead returns the current cross-shard lookahead bound (negative
// when no cross-shard links exist).
func (e *Engine) Lookahead() Time { return e.lookahead }

// Close stops the worker goroutines and waits for them to exit. The
// engine must be parked (no Run/RunAll in progress), so every worker is
// idle and returns at once. Further Run calls fall back to inline lane
// execution; results are unchanged.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.work != nil {
		close(e.work)
		e.exited.Wait()
		e.work = nil
		e.workers = 1
	}
}

func (e *Engine) laneFor(n *Node) *lane {
	if n == nil {
		return e.global
	}
	s := int(n.shard)
	if s < 0 || s >= e.shards {
		s = ((s % e.shards) + e.shards) % e.shards
	}
	return e.lanes[s]
}

// seedFaults reseeds every lane's fault stream from seed.
func (e *Engine) seedFaults(seed int64) {
	e.faultSeed = seed
	for _, ln := range e.all() {
		ln.seed(seed)
	}
}

// schedule arms the timer fn at the absolute time at on ctx's lane
// (the global lane for nil, which only the driver may use).
func (e *Engine) schedule(ctx *Node, at Time, fn func(), background bool) (Timer, error) {
	if e.inEpoch && ctx == nil {
		panic("netsim: driver-context Schedule while an epoch is executing")
	}
	ln := e.laneFor(ctx)
	if at < ln.now {
		return Timer{}, fmt.Errorf("netsim: schedule at %v before now %v", at, ln.now)
	}
	t := ln.q.schedule(at, ln.key(), fn, background)
	if !background {
		ln.fgMax = max(ln.fgMax, at)
	}
	return t, nil
}

// deliver queues d, sent by from to to, to arrive at at. During an
// epoch the key comes from the sender's lane, and a delivery to another
// lane waits in a cross buffer for the barrier. Parked, the coordinator
// (or driver) owns every lane: the delivery goes straight to the
// destination, under the destination's key.
func (e *Engine) deliver(from, to *Node, at Time, d delivery, background bool) error {
	dst := e.laneFor(to)
	if !e.inEpoch {
		if at < dst.now {
			return fmt.Errorf("netsim: deliver at %v before now %v", at, dst.now)
		}
		dst.deliver(at, dst.key(), background, d)
		return nil
	}
	src := e.laneFor(from)
	if at < src.now {
		return fmt.Errorf("netsim: deliver at %v before now %v", at, src.now)
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

// connected refreshes the lookahead bound with a new link. A
// zero-delay cross-shard link forces merged (serial) execution.
func (e *Engine) connected(l *Link) {
	if e.laneFor(l.a) == e.laneFor(l.b) {
		return
	}
	if e.lookahead < 0 || l.Delay < e.lookahead {
		e.lookahead = l.Delay
	}
	if l.Delay <= 0 {
		e.merged = true
	}
}

// queueLen returns pending events across all lanes (driver-only).
func (e *Engine) queueLen() int {
	n := e.global.q.len()
	for _, ln := range e.lanes {
		n += ln.q.len()
	}
	return n
}

// step executes the single earliest pending event in merged key order
// on the coordinator. Because the order is window-independent, mixing
// Simulator.step with Run/RunAll cannot change results.
func (e *Engine) step() bool {
	ln, ev, ok := e.minHead()
	if g, gok := e.global.q.head(); gok && (!ok || g.before(ev)) {
		ln, ev, ok = e.global, g, true
	}
	if !ok {
		return false
	}
	if ln != e.global {
		// Epoch semantics for shard events, so keys match Run/RunAll.
		e.inEpoch = true
		ln.runWindow(e, ev.at+1, 1)
		e.inEpoch = false
		e.drainCross()
	} else {
		ln.runWindow(e, ev.at+1, 1)
	}
	e.publish()
	return true
}

// minHead returns the shard lane whose head event is least in key order,
// and that event; ok is false when every shard lane is drained.
func (e *Engine) minHead() (best *lane, head event, ok bool) {
	for _, ln := range e.lanes {
		if h, found := ln.q.head(); found && (!ok || h.before(head)) {
			best, head, ok = ln, h, true
		}
	}
	return best, head, ok
}

// run executes events (foreground and background) with at <= deadline,
// then advances every clock to deadline.
func (e *Engine) run(deadline Time) int {
	n, err := e.loop(deadline, false)
	if err != nil {
		panic(err)
	}
	e.global.now = max(e.global.now, deadline)
	for _, ln := range e.lanes {
		ln.now = max(ln.now, deadline)
	}
	e.publish()
	return n
}

// runAll executes events in key order until no foreground events
// remain. Termination is checked at epoch barriers, so background
// events within the final window may still run (bounded by the
// lookahead; deterministic for a given scenario).
func (e *Engine) runAll() (int, error) {
	n, err := e.loop(maxTime, true)
	e.publish()
	return n, err
}

func (e *Engine) totalFG() int {
	n := e.global.q.pending()
	for _, ln := range e.lanes {
		n += ln.q.pending()
	}
	return n
}

// drainCross merges buffered cross-shard deliveries into their
// destination queues. Coordinator-only, workers parked: this is the one
// point where lanes exchange data, so it is where a Value crossing
// shards is imported (ValueHandler). Keys were assigned at creation, so
// push order is irrelevant to the event order; the fixed (destination,
// source) order also fixes the order imports write each shard's state.
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

// loop is the shared coordinator loop behind run and runAll.
func (e *Engine) loop(deadline Time, quiesce bool) (int, error) {
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
		g, okG := e.global.q.head()
		_, h, okS := e.minHead()
		tG, tS := g.at, h.at
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
				fgEnd = max(fgEnd, ln.fgMax)
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
			return total, errors.New("netsim: event cap exceeded (livelock?)")
		}
	}
}

// runEpoch executes one lookahead window across all lanes — in
// parallel when workers are available, inline otherwise. Identical
// results either way.
func (e *Engine) runEpoch(windowEnd Time) (int, error) {
	m := &e.sim.m
	m.epochs.Inc()
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
		m.workerEvents[0].Add(uint64(n))
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
		m.stall.Add(uint64(stall))
		for _, ln := range e.lanes {
			n += int(ln.executed - e.shardPub[ln.id])
		}
	}
	e.publishShards()
	for _, ln := range e.lanes {
		if ln.err != nil {
			return n, ln.err
		}
	}
	return n, nil
}

// runMergedWindow executes the window in fully merged key order on the
// coordinator — the serial fallback for zero-lookahead topologies.
func (e *Engine) runMergedWindow(windowEnd Time) (int, error) {
	m := &e.sim.m
	m.epochs.Inc()
	n := 0
	for {
		best, ev, ok := e.minHead()
		if !ok || ev.at >= windowEnd {
			break
		}
		e.inEpoch = true
		n += best.runWindow(e, ev.at+1, 1)
		e.inEpoch = false
		// Zero-delay cross-shard events land in buffers even though
		// nothing runs concurrently; fold them in immediately so they
		// are visible as candidates.
		e.drainCross()
		if best.err != nil {
			return n, best.err
		}
		if n >= eventCap {
			return n, errors.New("netsim: event cap exceeded (livelock?)")
		}
	}
	m.workerEvents[0].Add(uint64(n))
	e.publishShards()
	return n, nil
}

// publishShards adds each lane's events since the last call to its
// per-shard counter.
func (e *Engine) publishShards() {
	for _, ln := range e.lanes {
		if d := ln.executed - e.shardPub[ln.id]; d > 0 {
			e.sim.m.shardEvents[ln.id].Add(d)
			e.shardPub[ln.id] = ln.executed
		}
	}
}

// worker is the body of one worker goroutine: per epoch, claim lanes
// off the shared cursor and run their windows.
func (e *Engine) worker(wid int, work <-chan struct{}) {
	defer e.exited.Done()
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
		e.sim.m.workerEvents[wid].Add(uint64(n))
		e.done <- struct{}{}
	}
}

// publish refreshes driver-visible derived state: the driver clock
// (max of all lane clocks) and the queue-depth gauge. Coordinator-only,
// called at deterministic points, so snapshots taken at global events
// see deterministic values.
func (e *Engine) publish() {
	for _, ln := range e.lanes {
		e.global.now = max(e.global.now, ln.now)
	}
	e.sim.m.queueDepth.Set(int64(e.queueLen()))
}
