package topology

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"discs/internal/obs"
)

// This file implements valley-free (Gao-Rexford) inter-AS routing: a
// legal AS path is a sequence of customer→provider hops, followed by
// at most one peer hop, followed by provider→customer hops. Path
// computes the shortest such path; it is used by the packet-level
// end-to-end simulations, by the uRPF/DPF baselines (which reason
// about forwarding paths) and by examples.
//
// Representation. Routing no longer runs a per-(src,dst) BFS with an
// unbounded pair cache. Instead the graph is frozen into a dense
// index (ASN → contiguous int32, adjacency in CSR form) and routes
// are materialized as shortest-path trees rooted at the DESTINATION:
// one backward BFS over the two-phase state graph
//
//	(AS, up)   — the forward path may still climb (c2p hops legal)
//	(AS, down) — the forward path is descending (only p2c remains)
//
// labels every AS with its next hop toward the root, which makes a
// warm NextHop lookup O(1) and Path an O(len) pointer walk. A tree is
// the per-source SPF of the reversed graph — valley-free paths are
// reversal-symmetric — and rooting at the destination means one tree
// answers NextHop(at, dst) for EVERY at, which is exactly the access
// pattern of hop-by-hop forwarding. Trees are computed lazily per
// destination (or eagerly via WarmRoutes' worker pool), cached in a
// bounded FIFO, and dropped whenever the graph changes.

// Phases of a valley-free path, used as the second dimension of the
// routing-tree arrays.
const (
	stUp   = 0 // still climbing: customer→provider hops are legal
	stDown = 1 // descending: only provider→customer hops remain
)

// Metric names the routing cache publishes once PublishMetrics is
// called. Exported so consumers of snapshots do not hard-code strings.
const (
	metricRouteTrees     = "topology.route_trees"
	metricRouteCapacity  = "topology.route_tree_capacity"
	metricRouteHits      = "topology.route_tree_hits"
	metricRouteMisses    = "topology.route_tree_misses"
	metricRouteEvictions = "topology.route_tree_evictions"
)

// defaultRouteEntryBudget bounds the default tree-cache size in state
// entries (two per AS per tree, 4 bytes each): ~33 MB at full budget,
// which at paper scale (44 036 ASes) holds ~47 trees.
const defaultRouteEntryBudget = 4 << 20

// routingIndex is an immutable dense view of the relationship graph:
// adjacency lists in CSR form over the topology's dense AS indices, so
// tree construction is an O(V+E) scan over flat arrays instead of map
// walks. It is rebuilt whenever the graph changes; an AS added since
// has an index past len(asns) and no routes.
type routingIndex struct {
	asns []ASN // dense index → ASN (t.order at freeze time)

	provOff, custOff, peerOff []int32 // CSR offsets, len n+1
	prov, cust, peer          []int32 // CSR neighbor indices
}

func (t *Topology) buildIndex() *routingIndex {
	n := len(t.order)
	ix := &routingIndex{
		asns:    t.order[:n:n],
		provOff: make([]int32, n+1),
		custOff: make([]int32, n+1),
		peerOff: make([]int32, n+1),
	}
	var nProv, nCust, nPeer int32
	for i, as := range t.list {
		nProv += int32(len(as.Providers))
		nCust += int32(len(as.Customers))
		nPeer += int32(len(as.Peers))
		ix.provOff[i+1] = nProv
		ix.custOff[i+1] = nCust
		ix.peerOff[i+1] = nPeer
	}
	ix.prov = make([]int32, nProv)
	ix.cust = make([]int32, nCust)
	ix.peer = make([]int32, nPeer)
	for i, as := range t.list {
		t.fill(ix.prov[ix.provOff[i]:], as.Providers)
		t.fill(ix.cust[ix.custOff[i]:], as.Customers)
		t.fill(ix.peer[ix.peerOff[i]:], as.Peers)
	}
	return ix
}

func (t *Topology) fill(dst []int32, src []ASN) {
	for i, a := range src {
		dst[i], _ = t.index.Get(a)
	}
}

// routeTree is the valley-free shortest-path tree rooted at one
// destination. next[phase][v] packs the next hop of the shortest
// valley-free path from v (entered in `phase`) toward the root as
// neighborIdx<<1 | nextPhase; -1 marks "no valley-free path", -2 the
// root itself.
type routeTree struct {
	root int32
	next [2][]int32
}

// buildTree runs one backward BFS from the root over the reversed
// two-phase state graph. All edges have unit weight, so a FIFO scan
// labels every state with its shortest completion; the first label
// wins, and adjacency order (deterministic, insertion-ordered) breaks
// ties.
func buildTree(ix *routingIndex, root int32) *routeTree {
	n := len(ix.asns)
	tr := &routeTree{root: root}
	for st := 0; st < 2; st++ {
		tr.next[st] = make([]int32, n)
		for i := range tr.next[st] {
			tr.next[st][i] = -1
		}
	}
	tr.next[stUp][root], tr.next[stDown][root] = -2, -2

	queue := make([]int32, 0, 2*n)
	queue = append(queue, root<<1|stUp, root<<1|stDown)
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		v, st := s>>1, s&1
		enc := v<<1 | st
		if st == stUp {
			// Reverse of a c2p hop: a customer of v, still climbing,
			// climbs into v.
			for _, u := range ix.cust[ix.custOff[v]:ix.custOff[v+1]] {
				if tr.next[stUp][u] == -1 {
					tr.next[stUp][u] = enc
					queue = append(queue, u<<1|stUp)
				}
			}
		} else {
			// Reverse of a p2c hop: a provider of v hands down into v,
			// from either phase.
			for _, u := range ix.prov[ix.provOff[v]:ix.provOff[v+1]] {
				if tr.next[stUp][u] == -1 {
					tr.next[stUp][u] = enc
					queue = append(queue, u<<1|stUp)
				}
				if tr.next[stDown][u] == -1 {
					tr.next[stDown][u] = enc
					queue = append(queue, u<<1|stDown)
				}
			}
			// Reverse of the single peer hop: a peer of v, still
			// climbing, crosses into v and starts descending.
			for _, u := range ix.peer[ix.peerOff[v]:ix.peerOff[v+1]] {
				if tr.next[stUp][u] == -1 {
					tr.next[stUp][u] = enc
					queue = append(queue, u<<1|stUp)
				}
			}
		}
	}
	return tr
}

// appendPathFrom appends the full AS path from src to the tree root to
// buf by walking the next-hop pointers. It returns buf unchanged when no
// valley-free path exists. BFS distance strictly decreases along the
// chain, so the walk terminates at the root.
func (tr *routeTree) appendPathFrom(ix *routingIndex, src int32, buf []ASN) ([]ASN, bool) {
	if src != tr.root && tr.next[stUp][src] < 0 {
		return buf, false
	}
	v, st := src, int32(stUp)
	for {
		buf = append(buf, ix.asns[v])
		if v == tr.root {
			return buf, true
		}
		p := tr.next[st][v]
		v, st = p>>1, p&1
	}
}

// routeCache holds the frozen index plus the bounded set of routing
// trees, evicted FIFO. trees is indexed by the root's dense index (nil
// where no tree is cached) and fifo lists the cached roots. Mutations
// are guarded by Topology.routeMu; trees' slots are atomic so that
// treeFor's hit path reads them without the lock.
type routeCache struct {
	ix    *routingIndex
	trees []atomic.Pointer[routeTree]
	fifo  []int32 // insertion order, for eviction
	cap   int
}

func (t *Topology) newRouteCache() *routeCache {
	n := len(t.order)
	c := t.routeCap
	if c <= 0 {
		c = defaultRouteEntryBudget / (2 * max(n, 1))
		if c < 4 {
			c = 4
		}
		if c > 4096 {
			c = 4096
		}
	}
	return &routeCache{
		ix:    t.buildIndex(),
		trees: make([]atomic.Pointer[routeTree], n),
		cap:   c,
	}
}

// insert adds a tree, evicting oldest-first past capacity, and
// reports how many trees were evicted.
func (rc *routeCache) insert(root int32, tr *routeTree) int {
	evicted := 0
	for len(rc.fifo) >= rc.cap {
		old := rc.fifo[0]
		rc.fifo = rc.fifo[1:]
		rc.trees[old].Store(nil)
		evicted++
	}
	rc.trees[root].Store(tr)
	rc.fifo = append(rc.fifo, root)
	return evicted
}

// routeMetrics holds optional obs handles for the routing cache; all
// methods are nil-safe so an unattached topology pays only a nil
// check.
type routeMetrics struct {
	trees, capacity       *obs.Gauge
	hits, misses, evicted *obs.Counter
}

func (m *routeMetrics) hit() {
	if m.hits != nil {
		m.hits.Inc()
	}
}

func (m *routeMetrics) miss() {
	if m.misses != nil {
		m.misses.Inc()
	}
}

func (m *routeMetrics) evict(n int) {
	if m.evicted != nil && n > 0 {
		m.evicted.Add(uint64(n))
	}
}

func (m *routeMetrics) size(trees, capacity int) {
	if m.trees != nil {
		m.trees.Set(int64(trees))
		m.capacity.Set(int64(capacity))
	}
}

// PublishMetrics registers the routing-cache gauges and counters
// (topology.route_*) in reg: cached-tree count and capacity, plus
// hit/miss/eviction counters from which a hit rate falls out.
// core.NewSystemWithOptions wires the system registry through here.
func (t *Topology) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t.routeMu.Lock()
	defer t.routeMu.Unlock()
	t.rm = routeMetrics{
		trees:    reg.Gauge(metricRouteTrees),
		capacity: reg.Gauge(metricRouteCapacity),
		hits:     reg.Counter(metricRouteHits),
		misses:   reg.Counter(metricRouteMisses),
		evicted:  reg.Counter(metricRouteEvictions),
	}
	if rc := t.routes.Load(); rc != nil {
		t.rm.size(len(rc.fifo), rc.cap)
	}
}

// cachedRouteTrees reports how many routing trees are currently
// cached (tests and capacity planning).
func (t *Topology) cachedRouteTrees() int {
	t.routeMu.RLock()
	defer t.routeMu.RUnlock()
	rc := t.routes.Load()
	if rc == nil {
		return 0
	}
	return len(rc.fifo)
}

// invalidateRoutes drops the frozen index and every cached tree; the
// graph changed. Caller must not hold routeMu.
func (t *Topology) invalidateRoutes() {
	t.routeMu.Lock()
	if t.routes.Swap(nil) != nil {
		t.rm.size(0, 0)
	}
	t.routeMu.Unlock()
}

// treeFor returns the routing tree rooted at the AS of dense index
// root plus the index it was built against, computing and caching it
// on miss. A nil tree means root is not part of the frozen graph (it
// was added after the last link change and has no links, hence no
// valley-free routes).
//
// A hit takes no lock: the cache and its tree slots are published
// atomically, and a tree is immutable once built, so a reader that
// loads a tree just before an eviction or an invalidation still walks
// a complete one.
func (t *Topology) treeFor(root int32) (*routeTree, *routingIndex) {
	if rc := t.routes.Load(); rc != nil && int(root) < len(rc.trees) {
		if tr := rc.trees[root].Load(); tr != nil {
			t.rm.hit()
			return tr, rc.ix
		}
	}
	t.rm.miss()

	t.routeMu.Lock()
	rc := t.routes.Load()
	if rc == nil {
		rc = t.newRouteCache()
		t.routes.Store(rc)
	}
	ix := rc.ix
	if int(root) >= len(rc.trees) {
		t.routeMu.Unlock()
		return nil, ix
	}
	if tr := rc.trees[root].Load(); tr != nil {
		t.routeMu.Unlock()
		return tr, ix
	}
	// Build outside the lock: tree construction is O(V+E) and other
	// readers (and Warm workers) must not stall behind it.
	t.routeMu.Unlock()
	tr := buildTree(ix, root)
	t.routeMu.Lock()
	if t.routes.Load() == rc { // not invalidated while building
		if cur := rc.trees[root].Load(); cur != nil {
			tr = cur // another goroutine won the race
		} else {
			t.rm.evict(rc.insert(root, tr))
			t.rm.size(len(rc.fifo), rc.cap)
		}
	}
	t.routeMu.Unlock()
	return tr, ix
}

// WarmRoutes precomputes routing trees for the given destinations
// with a pool of `workers` goroutines (≤0 means GOMAXPROCS) — the
// bulk path for paper-scale runs, where lazy per-miss computation
// would serialize. Destinations beyond the cache capacity are
// skipped. It returns the number of trees cached afterwards.
func (t *Topology) WarmRoutes(dsts []ASN, workers int) int {
	t.routeMu.Lock()
	rc := t.routes.Load()
	if rc == nil {
		rc = t.newRouteCache()
		t.routes.Store(rc)
	}
	ix := rc.ix
	roots := make([]int32, 0, len(dsts))
	queued := make(map[int32]bool, len(dsts))
	for _, d := range dsts {
		if len(roots) >= rc.cap {
			break
		}
		root, ok := t.index.Get(d)
		if !ok || int(root) >= len(ix.asns) || queued[root] {
			continue
		}
		queued[root] = true
		if rc.trees[root].Load() != nil {
			continue
		}
		roots = append(roots, root)
	}
	t.routeMu.Unlock()

	if len(roots) > 0 {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(roots) {
			workers = len(roots)
		}
		built := make([]*routeTree, len(roots))
		jobs := make(chan int, len(roots))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					built[j] = buildTree(ix, roots[j])
				}
			}()
		}
		for j := range roots {
			jobs <- j
		}
		close(jobs)
		wg.Wait()

		t.routeMu.Lock()
		if t.routes.Load() == rc { // graph unchanged while building
			evicted := 0
			for j, root := range roots {
				if rc.trees[root].Load() == nil {
					evicted += rc.insert(root, built[j])
				}
			}
			t.rm.evict(evicted)
			t.rm.size(len(rc.fifo), rc.cap)
		}
		t.routeMu.Unlock()
	}
	return t.cachedRouteTrees()
}

// Path returns the shortest valley-free AS path from src to dst,
// inclusive of both endpoints. ok is false when no valley-free path
// exists. The slice is freshly allocated on every call; callers own
// it. Safe for concurrent use; the underlying tree is cached until
// the graph changes (Link invalidates).
func (t *Topology) Path(src, dst ASN) (path []ASN, ok bool) {
	path, ok = t.PathInto(src, dst, make([]ASN, 0, 8))
	if !ok {
		return nil, false
	}
	return path, true
}

// PathInto is Path appending to buf (pass a reused or stack buffer's
// buf[:0] to walk a path without allocating). On !ok it returns buf
// unchanged.
func (t *Topology) PathInto(src, dst ASN, buf []ASN) (path []ASN, ok bool) {
	si, sok := t.index.Get(src)
	di, dok := t.index.Get(dst)
	if !sok || !dok {
		return buf, false
	}
	if src == dst {
		return append(buf, src), true
	}
	tr, ix := t.treeFor(di)
	if tr == nil || int(si) >= len(ix.asns) {
		return buf, false
	}
	return tr.appendPathFrom(ix, si, buf)
}

// NextHop returns the next AS after `at` on the shortest valley-free
// path from `at` to dst. With the tree for dst cached (warm), this is
// an O(1) array read.
func (t *Topology) NextHop(at, dst ASN) (ASN, bool) {
	ai, aok := t.index.Get(at)
	di, dok := t.index.Get(dst)
	if at == dst || !aok || !dok {
		return 0, false
	}
	tr, ix := t.treeFor(di)
	if tr == nil || int(ai) >= len(ix.asns) {
		return 0, false
	}
	p := tr.next[stUp][ai]
	if p < 0 {
		return 0, false
	}
	return ix.asns[p>>1], true
}

// ValidateValleyFree checks that a path obeys the valley-free rule and
// uses only existing links; used by tests and by the DPF baseline.
func (t *Topology) ValidateValleyFree(path []ASN) error {
	if len(path) == 0 {
		return fmt.Errorf("topology: empty path")
	}
	descending := false
	peerUsed := false
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		rel, ok := t.relOf(a, b)
		if !ok {
			return fmt.Errorf("topology: no link %d-%d", a, b)
		}
		switch rel {
		case CustomerToProvider:
			if descending {
				return fmt.Errorf("topology: uphill hop %d→%d after descent", a, b)
			}
		case PeerToPeer:
			if descending || peerUsed {
				return fmt.Errorf("topology: peer hop %d→%d after descent/peer", a, b)
			}
			peerUsed = true
			descending = true
		case ProviderToCustomer:
			descending = true
		}
	}
	return nil
}

// relOf returns the relationship of the directed hop a→b.
func (t *Topology) relOf(a, b ASN) (Relationship, bool) {
	asA := t.AS(a)
	if asA == nil {
		return 0, false
	}
	for _, n := range asA.Providers {
		if n == b {
			return CustomerToProvider, true
		}
	}
	for _, n := range asA.Peers {
		if n == b {
			return PeerToPeer, true
		}
	}
	for _, n := range asA.Customers {
		if n == b {
			return ProviderToCustomer, true
		}
	}
	return 0, false
}
