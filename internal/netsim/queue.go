// Event queue. A pending event is a small value — its time, its
// ordering key, its kind and a slot in one of the queue's payload
// tables — kept in a 4-ary min-heap. Every engine lane owns one queue
// (DESIGN.md §11, "Event queue").
//
// The three kinds of event are a timer closure, a link delivery of a
// boxed Message, and a link delivery of a Value, whose payload table
// holds no Go pointer. Payload slots are recycled through free lists, so
// at steady state no event allocates, and no pending event is an object
// the collector has to visit.
package netsim

// event is one pending event. Events order by (at, key), and keys are
// unique within a queue's run, so the order is total. A lane's key is
// (origin+1)<<56 | oseq (engine.go).
type event struct {
	at   Time
	key  uint64
	slot uint32 // index into the payload table of kind
	kind eventKind
	bg   bool
}

type eventKind uint8

const (
	kindTimer eventKind = iota // closure in queue.timers
	kindMsg                    // boxed Message delivery in queue.msgs
	kindValue                  // Value delivery in queue.vals
)

// before reports whether e orders before o.
func (e event) before(o event) bool {
	return e.at < o.at || (e.at == o.at && e.key < o.key)
}

// Value is a message small enough to travel inside its delivery event:
// a block of pointer-free words whose meaning belongs to the protocol
// that sends it (Link.SendValue). The receiving node's handler must be a
// ValueHandler.
type Value [6]uint32

// ValueHandler is a Handler that also receives Value messages.
type ValueHandler interface {
	Handler
	ReceiveValue(from *Node, link *Link, v Value)
	// ImportValue returns v, sent by from in another shard, rewritten
	// into the terms of the receiving node's shard (e.g. with its
	// shard-local handles copied). It runs when the value enters the
	// receiver's queue: at the epoch barrier or while the engine is
	// parked — never while another shard's events execute.
	ImportValue(from *Node, v Value) Value
}

// delivery is a message in flight over a link, on its way from
// Link.Send or Link.SendValue into the destination's queue.
type delivery struct {
	link  *Link
	dir   uint8 // 0: a→b, 1: b→a
	value bool  // val, not msg, is the payload
	msg   Message
	val   Value
}

type timerSlot struct {
	fn  func() // nil once cancelled or freed
	gen uint32 // bumped on free; a Timer of an older generation is inert
	bg  bool
}

type msgSlot struct {
	link *Link
	msg  Message
	dir  uint8
}

// valSlot holds no Go pointer: the link is its index in Simulator.links.
type valSlot struct {
	val  Value
	link int32
	dir  uint8
}

// slotTable is a payload table with a free list of its unused slots.
type slotTable[T any] struct {
	s    []T
	free []uint32
}

// alloc returns an unused slot; the caller fills it.
func (t *slotTable[T]) alloc() uint32 {
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		return i
	}
	var zero T
	t.s = append(t.s, zero)
	return uint32(len(t.s) - 1)
}

// release returns slot i to the free list; the caller clears it.
func (t *slotTable[T]) release(i uint32) { t.free = append(t.free, i) }

// queue is one lane's event queue: a 4-ary min-heap of event values and
// the payload tables they index. It is not safe for concurrent use: it
// is touched only by the lane's current executor.
type queue struct {
	sim  *Simulator
	heap []event
	fg   int // queued foreground events, cancelled ones excluded
	dead int // cancelled timers still in the heap

	timers slotTable[timerSlot]
	msgs   slotTable[msgSlot]
	vals   slotTable[valSlot]
}

// len returns the number of queued events, cancelled timers not yet
// discarded included.
func (q *queue) len() int { return len(q.heap) }

// pending returns the number of queued foreground events.
func (q *queue) pending() int { return q.fg }

// schedule queues the timer fn at at under key.
func (q *queue) schedule(at Time, key uint64, fn func(), bg bool) Timer {
	i := q.timers.alloc()
	t := &q.timers.s[i]
	t.fn, t.bg = fn, bg
	q.push(event{at: at, key: key, slot: i, kind: kindTimer, bg: bg})
	return Timer{q: q, slot: i, gen: t.gen}
}

// deliver queues d to arrive at at under key. A Value crossing shards is
// imported into the receiver's shard first (ValueHandler.ImportValue), so
// the caller must be entitled to touch both shards' state.
func (q *queue) deliver(at Time, key uint64, bg bool, d delivery) {
	e := event{at: at, key: key, bg: bg}
	if d.value {
		if from, to := d.link.ends(d.dir); from.shard != to.shard && to.values != nil {
			d.val = to.values.ImportValue(from, d.val)
		}
		e.kind, e.slot = kindValue, q.vals.alloc()
		q.vals.s[e.slot] = valSlot{val: d.val, link: d.link.id, dir: d.dir}
	} else {
		e.kind, e.slot = kindMsg, q.msgs.alloc()
		q.msgs.s[e.slot] = msgSlot{link: d.link, msg: d.msg, dir: d.dir}
	}
	q.push(e)
}

// head returns the earliest live event without removing it, discarding
// the cancelled timers that surfaced.
func (q *queue) head() (event, bool) {
	for len(q.heap) > 0 {
		e := q.heap[0]
		if e.kind != kindTimer || q.timers.s[e.slot].fn != nil {
			return e, true
		}
		q.removeAt(0)
		q.dead--
		q.freeTimer(e.slot)
	}
	return event{}, false
}

// pop removes and returns the head event, which head just returned.
func (q *queue) pop() event {
	e := q.heap[0]
	q.removeAt(0)
	if !e.bg {
		q.fg--
	}
	return e
}

// exec runs e, which pop just returned. Its slot is freed first, so what
// the event schedules may reuse it.
func (q *queue) exec(e event) {
	switch e.kind {
	case kindTimer:
		fn := q.timers.s[e.slot].fn
		q.freeTimer(e.slot)
		fn()
	case kindMsg:
		m := q.msgs.s[e.slot]
		q.msgs.s[e.slot] = msgSlot{}
		q.msgs.release(e.slot)
		if from, to := m.link.ends(m.dir); q.sim.arrive(to) && to.handler != nil {
			to.handler.Receive(from, m.link, m.msg)
		}
	case kindValue:
		v := q.vals.s[e.slot]
		q.vals.release(e.slot)
		l := q.sim.links[v.link]
		if from, to := l.ends(v.dir); q.sim.arrive(to) && to.values != nil {
			to.values.ReceiveValue(from, l, v.val)
		}
	}
}

// compact rebuilds the heap without its cancelled timers once they
// outnumber the live events, so Stop stays O(1) and the heap within 2×
// of its live size.
func (q *queue) compact() {
	if q.dead <= len(q.heap)/2 || len(q.heap) < 64 {
		return
	}
	live := q.heap[:0]
	for _, e := range q.heap {
		if e.kind == kindTimer && q.timers.s[e.slot].fn == nil {
			q.freeTimer(e.slot)
			continue
		}
		live = append(live, e)
	}
	q.heap, q.dead = live, 0
	if n := len(live); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			q.down(i, live[i])
		}
	}
}

func (q *queue) freeTimer(i uint32) {
	t := &q.timers.s[i]
	t.fn = nil
	t.gen++
	q.timers.release(i)
}

// cancel stops the timer in slot i armed as generation gen. Lazily, the
// event stays in the heap until it surfaces or Compact drops it; eagerly,
// it is found and removed now.
func (q *queue) cancel(i, gen uint32, eager bool) bool {
	t := &q.timers.s[i]
	if t.gen != gen || t.fn == nil {
		return false
	}
	if !t.bg {
		q.fg--
	}
	if eager {
		for at, e := range q.heap {
			if e.kind == kindTimer && e.slot == i {
				q.removeAt(at)
				q.freeTimer(i)
				return true
			}
		}
	}
	t.fn = nil
	q.dead++
	return true
}

func (q *queue) push(e event) {
	if !e.bg {
		q.fg++
	}
	q.heap = append(q.heap, e)
	q.up(len(q.heap)-1, e)
}

// removeAt deletes the event at heap index i.
func (q *queue) removeAt(i int) {
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap = q.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(q.heap[(i-1)/4]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// up places e, bound for index i, at or above i.
func (q *queue) up(i int, e event) {
	h := q.heap
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// down places e, bound for index i, at or below i.
func (q *queue) down(i int, e event) {
	h := q.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// Timer is a handle to a scheduled timer event that can be cancelled.
// It is a value: copies share the underlying event. The zero Timer is
// inert (Stop reports false).
type Timer struct {
	q    *queue
	slot uint32
	gen  uint32
}

// Stop cancels the timer. It is safe to call Stop on an already-fired
// or already-stopped timer. It reports whether the call prevented the
// event from firing. Cancellation is lazy — the dead event stays in
// the heap until it surfaces or a compaction sweep removes it — so
// Stop is O(1) even on deep queues (retry timers re-arm constantly).
// Stop a timer only from the execution context of the node it was
// armed on (or while the engine is parked): the handle mutates that
// node's shard-local queue.
func (t Timer) Stop() bool {
	return t.q != nil && t.q.cancel(t.slot, t.gen, false)
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
	q := t.timer.q
	// Mid-epoch, the depth is published at the next barrier.
	if q != nil && q.cancel(t.timer.slot, t.timer.gen, true) && !q.sim.eng.inEpoch {
		q.sim.m.queueDepth.Set(int64(q.sim.eng.queueLen()))
	}
}
