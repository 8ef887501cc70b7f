// Package obs is the unified observability layer of the DISCS
// reproduction: a metrics registry (counters, gauges, histograms)
// cheap enough for the lock-free data-plane hot path, plus a
// simulated-clock-aware event tracer (trace.go) and JSON exporters
// (export.go).
//
// Design constraints, in order:
//
//  1. Hot-path updates must be wait-free and allocation-free. Counters
//     are sharded across cache-line-padded atomic cells so concurrent
//     forwarding goroutines do not bounce one cache line; handles are
//     resolved once at construction, never per update.
//  2. Snapshots may be taken while updates are in flight. A snapshot
//     is a point-in-time sum, not a consistent cut — exactly the
//     semantics of reading per-CPU counters on real hardware.
//  3. The package depends on nothing else in this repository, so every
//     layer (netsim, securechan, core, cmd) can use it without import
//     cycles. Time is injected as a clock function; in simulations it
//     is the netsim clock, so exported series are in simulated time.
package obs

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// numShards is the per-counter shard count: enough to spread
// GOMAXPROCS writers, capped so thousands of registered counters stay
// cheap. Power of two for mask indexing.
var numShards = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 16 {
		n <<= 1
	}
	return n
}()

// shard is one padded counter cell. The padding keeps two shards from
// sharing a cache line, which is the entire point of sharding.
type shard struct {
	v atomic.Uint64
	_ [56]byte
}

// shardIndex distributes concurrent writers across shards. Goroutine
// stacks live in different allocations, so the address of a local is
// a cheap, stable-per-goroutine discriminator — no runtime hooks, no
// thread IDs, no allocation.
func shardIndex() uint32 {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return uint32(p>>9) ^ uint32(p>>17)
}

// lineCells is the number of 8-byte cells in a cache line: the stride
// between two shards of a counter.
const lineCells = 8

// Counter is a monotonically increasing metric. The zero value is not
// usable; obtain counters from a Registry (or Scope) so snapshots see
// them.
//
// Shard s of the counter is cells[s*stride]. A counter of its own
// gives each shard a cache line; a counter of a CounterBlock shares
// each shard's line with the block's other counters.
type Counter struct {
	name    string
	cells   []atomic.Uint64
	stride  uint32
	mask    uint32
	inBlock bool
}

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n. Wait-free, allocation-free, safe
// from any number of goroutines.
func (c *Counter) Add(n uint64) {
	c.cells[(shardIndex()&c.mask)*c.stride].Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. Concurrent with updates; the result is a
// point-in-time lower bound, exact once writers quiesce.
func (c *Counter) Value() uint64 {
	var t uint64
	for s := uint32(0); s <= c.mask; s++ {
		t += c.cells[s*c.stride].Load()
	}
	return t
}

// CounterBlock is a set of counters registered together whose shards
// share rows: shard s of every counter in the block lies in one run of
// cache lines. A component that updates several counters at once — a
// border router flushing one packet's counts — picks its shard once
// and touches one row, where separate counters cost a shard pick and a
// cache line each. Every counter of the block is an ordinary registry
// counter: snapshots, Absorb and Counter(name) see it under its name.
type CounterBlock struct {
	cells  []atomic.Uint64
	stride uint32 // cells per row: the block's width rounded up to lines
	mask   uint32
	ctrs   []*Counter
}

// Counter returns the block's i-th counter, in registration order.
func (b *CounterBlock) Counter(i int) *Counter { return b.ctrs[i] }

// Add adds deltas[i] to the block's i-th counter, skipping zeros, all
// in the calling goroutine's row. Wait-free and allocation-free;
// deltas must not be longer than the block.
func (b *CounterBlock) Add(deltas []uint64) {
	row := b.cells[(shardIndex()&b.mask)*b.stride:]
	row = row[:len(deltas)]
	for i, d := range deltas {
		if d != 0 {
			row[i].Add(d)
		}
	}
}

// Gauge is a last-value-wins metric (queue depths, peer counts).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the current value by d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value loads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets with inclusive
// upper bounds; the last bucket is +Inf. Buckets are atomic, so
// Observe is safe from any goroutine.
type Histogram struct {
	name   string
	bounds []int64 // sorted upper bounds; len(counts) == len(bounds)+1
	counts []shard
	sum    atomic.Int64
	n      atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].v.Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// HistSnapshot is the exported state of one histogram.
type HistSnapshot struct {
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Sum    int64    `json:"sum"`
	Count  uint64   `json:"count"`
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.n.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].v.Load()
	}
	return s
}

// Registry owns a namespace of metrics and the trace ring. Metric
// registration is idempotent by name: two components asking for the
// same name share the metric, which is how per-subsystem views stay
// cheap aggregations instead of copies.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	blocks   map[string]*CounterBlock // by their names, NUL-joined
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	clock atomic.Value // func() int64, simulated nanoseconds

	traceOnce sync.Once
	traceCap  int
	tracer    *Tracer
}

// NewRegistry creates an empty registry with a zero clock (snapshots
// and events stamp t=0 until SetClock installs a real one).
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		blocks:   make(map[string]*CounterBlock),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// SetClock installs the time source for snapshots and trace events —
// in simulations, the netsim clock in nanoseconds. Safe to call while
// metrics are updated.
func (r *Registry) SetClock(fn func() int64) { r.clock.Store(fn) }

func (r *Registry) nowNanos() int64 {
	if fn, ok := r.clock.Load().(func() int64); ok && fn != nil {
		return fn()
	}
	return 0
}

// Counter returns the counter registered under name, creating it on
// first use. The returned handle is what hot paths must cache.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c != nil {
		return c
	}
	c = &Counter{name: name, cells: make([]atomic.Uint64, numShards*lineCells), stride: lineCells, mask: uint32(numShards - 1)}
	r.counters[name] = c
	return c
}

// counterBlock returns the block of counters registered under names,
// in order, creating it on first use; asking again for the same names
// returns the same block. A name already registered as a counter of its
// own joins the block with its value, and its existing handle is moved
// onto the block's storage, so the block must be registered before
// that handle is updated concurrently. A name that already belongs to a
// different block panics: that is two components disagreeing about
// one metric's layout.
func (r *Registry) counterBlock(names ...string) *CounterBlock {
	key := strings.Join(names, "\x00")
	r.mu.RLock()
	b := r.blocks[key]
	r.mu.RUnlock()
	if b != nil {
		return b
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if b = r.blocks[key]; b != nil {
		return b
	}
	stride := (len(names) + lineCells - 1) / lineCells * lineCells
	b = &CounterBlock{
		cells:  make([]atomic.Uint64, numShards*stride),
		stride: uint32(stride),
		mask:   uint32(numShards - 1),
		ctrs:   make([]*Counter, len(names)),
	}
	for i, name := range names {
		col := b.cells[i:]
		c := r.counters[name]
		if c == nil {
			c = &Counter{name: name}
			r.counters[name] = c
		} else if c.inBlock {
			panic("obs: counter " + name + " already belongs to another block")
		} else {
			col[0].Store(c.Value())
		}
		c.cells, c.stride, c.mask, c.inBlock = col, b.stride, b.mask, true
		b.ctrs[i] = c
	}
	r.blocks[key] = b
	return b
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g != nil {
		return g
	}
	g = &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given inclusive upper bounds on first use (later calls
// ignore bounds and share the first registration).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h != nil {
		return h
	}
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	h = &Histogram{name: name, bounds: b, counts: make([]shard, len(b)+1)}
	r.hists[name] = h
	return h
}

// SetTraceCapacity sizes the trace ring before first use (default
// defaultTraceCapacity). No effect once the tracer exists.
func (r *Registry) SetTraceCapacity(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tracer == nil {
		r.traceCap = n
	}
}

// Tracer returns the registry's event tracer, creating it on first
// use. All subsystems sharing the registry share the ring, so the
// exported event log interleaves control-plane and data-plane events
// in simulated-time order.
func (r *Registry) Tracer() *Tracer {
	r.traceOnce.Do(func() {
		r.mu.Lock()
		n := r.traceCap
		r.mu.Unlock()
		if n <= 0 {
			n = defaultTraceCapacity
		}
		r.tracer = newTracer(n, r)
	})
	return r.tracer
}

// Snapshot captures every registered metric at the registry clock's
// current time. Counters sum their shards while writers may still be
// adding; see Counter.Value for the semantics.
func (r *Registry) Snapshot() Snapshot {
	return r.SnapshotPrefix("", "")
}

// Absorb merges a previously captured Snapshot into the registry:
// counters are added on top of current values (find-or-create), gauges
// are set. It is the restore half of the checkpoint seam — a restored
// world starts from a fresh registry and absorbs the image's metric
// state so counters continue exactly where the checkpointed run left
// off. Histograms are not restored: they are diagnostic distributions,
// excluded from the determinism differential, and restart empty.
func (r *Registry) Absorb(s Snapshot) {
	for name, v := range s.Counters {
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Set(v)
	}
}

// SnapshotPrefix captures only metrics whose name starts with prefix,
// removing trim from the front of each kept name. It is how a scoped
// component (one controller, one router) exposes a Stats() view over
// the shared registry.
func (r *Registry) SnapshotPrefix(prefix, trim string) Snapshot {
	s := Snapshot{
		AtNanos:  r.nowNanos(),
		Counters: make(map[string]uint64),
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		if keep, ok := cutPrefix(name, prefix, trim); ok {
			s.Counters[keep] = c.Value()
		}
	}
	for name, g := range r.gauges {
		if keep, ok := cutPrefix(name, prefix, trim); ok {
			if s.Gauges == nil {
				s.Gauges = make(map[string]int64)
			}
			s.Gauges[keep] = g.Value()
		}
	}
	for name, h := range r.hists {
		if keep, ok := cutPrefix(name, prefix, trim); ok {
			if s.Histograms == nil {
				s.Histograms = make(map[string]HistSnapshot)
			}
			s.Histograms[keep] = h.snapshot()
		}
	}
	return s
}

func cutPrefix(name, prefix, trim string) (string, bool) {
	if len(name) < len(prefix) || name[:len(prefix)] != prefix {
		return "", false
	}
	if len(trim) > 0 && len(name) >= len(trim) && name[:len(trim)] == trim {
		return name[len(trim):], true
	}
	return name, true
}

// Scope prefixes metric names, giving each component (one AS's
// controller, one border router) its own namespace inside a shared
// registry.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope returns a scoped view creating metrics named prefix+name.
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix} }

// Counter returns the scoped counter prefix+name.
func (s Scope) Counter(name string) *Counter { return s.r.Counter(s.prefix + name) }

// Gauge returns the scoped gauge prefix+name.
func (s Scope) Gauge(name string) *Gauge { return s.r.Gauge(s.prefix + name) }

// CounterBlock returns the scoped block of counters prefix+name, one
// per name.
func (s Scope) CounterBlock(names ...string) *CounterBlock {
	full := make([]string, len(names))
	for i, name := range names {
		full[i] = s.prefix + name
	}
	return s.r.counterBlock(full...)
}
