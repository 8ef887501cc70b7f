package topology

import (
	"sync"
	"testing"

	"discs/internal/obs"
)

// TestRouteCacheCorrectness: repeated lookups are consistent, graph
// changes invalidate cached trees, and Path hands out fresh slices.
func TestRouteCacheCorrectness(t *testing.T) {
	tp := New()
	for i := ASN(1); i <= 4; i++ {
		mustAS(t, tp, i)
	}
	mustLink(t, tp, 1, 2, CustomerToProvider)
	mustLink(t, tp, 3, 2, CustomerToProvider)

	p1, ok := tp.Path(1, 3)
	if !ok || len(p1) != 3 {
		t.Fatalf("path = %v", p1)
	}
	// Second call hits the cached tree but returns a fresh slice the
	// caller owns.
	p2, ok := tp.Path(1, 3)
	if !ok || len(p2) != 3 {
		t.Fatalf("second path = %v", p2)
	}
	if &p1[0] == &p2[0] {
		t.Fatal("Path must return a freshly allocated slice per call")
	}
	if tp.cachedRouteTrees() != 1 {
		t.Fatalf("cached trees = %d, want 1", tp.cachedRouteTrees())
	}
	// Negative results come from the same cached tree.
	if _, ok := tp.Path(1, 4); ok {
		t.Fatal("no path to isolated AS4 expected")
	}
	if _, ok := tp.Path(1, 4); ok {
		t.Fatal("repeated negative lookup changed")
	}
	// Adding a link invalidates: AS4 becomes reachable.
	mustLink(t, tp, 4, 2, CustomerToProvider)
	if tp.cachedRouteTrees() != 0 {
		t.Fatalf("cache not invalidated: %d trees", tp.cachedRouteTrees())
	}
	p3, ok := tp.Path(1, 4)
	if !ok || len(p3) != 3 {
		t.Fatalf("post-invalidation path = %v %v", p3, ok)
	}
	// And the old path is recomputed consistently.
	p4, ok := tp.Path(1, 3)
	if !ok || len(p4) != len(p1) {
		t.Fatalf("recomputed path = %v", p4)
	}
}

// TestRouteCacheEviction: the FIFO cache never exceeds its capacity
// and evicts oldest-first.
func TestRouteCacheEviction(t *testing.T) {
	tp := New()
	// Star: hub AS1 provides transit to stubs 2..8.
	for i := ASN(1); i <= 8; i++ {
		mustAS(t, tp, i)
	}
	for i := ASN(2); i <= 8; i++ {
		mustLink(t, tp, i, 1, CustomerToProvider)
	}
	setRouteCacheCapacity(tp, 3)
	for dst := ASN(2); dst <= 8; dst++ {
		if _, ok := tp.Path(2%dst+1, dst); !ok && dst != 2 {
			t.Fatalf("no path to %d", dst)
		}
		if n := tp.cachedRouteTrees(); n > 3 {
			t.Fatalf("cache grew to %d trees, cap 3", n)
		}
	}
	if n := tp.cachedRouteTrees(); n != 3 {
		t.Fatalf("cached trees = %d, want 3", n)
	}
	// The oldest roots were evicted; looking one up again must still
	// give a correct path (rebuilt on miss).
	p, ok := tp.Path(3, 2)
	if !ok || len(p) != 3 {
		t.Fatalf("path after eviction = %v %v", p, ok)
	}
}

// TestWarmRoutes: the worker pool precomputes trees for the requested
// destinations and warm NextHop lookups agree with Path.
func TestWarmRoutes(t *testing.T) {
	tp, err := GenerateInternet(GenConfig{
		NumASes: 150, NumPrefixes: 300, ZipfExponent: 1.0, TierOneCount: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dsts := []ASN{10, 20, 30, 40, 10, 9999} // dup and unknown are skipped
	if got := tp.WarmRoutes(dsts, 4); got != 4 {
		t.Fatalf("WarmRoutes cached %d trees, want 4", got)
	}
	for _, dst := range dsts[:4] {
		for src := ASN(1); src <= 150; src++ {
			p, ok := tp.Path(src, dst)
			hop, hok := tp.NextHop(src, dst)
			if ok != hok && src != dst {
				t.Fatalf("Path/NextHop disagree for %d→%d", src, dst)
			}
			if ok && src != dst && hop != p[1] {
				t.Fatalf("NextHop(%d,%d) = %d, path %v", src, dst, hop, p)
			}
		}
	}
}

// TestWarmNextHopBudget: the route_trees gauge counts exactly the trees
// WarmRoutes built, and a warm NextHop — the forwarding hot path — does
// not allocate.
func TestWarmNextHopBudget(t *testing.T) {
	tp, err := GenerateInternet(GenConfig{
		NumASes: 500, NumPrefixes: 1000, ZipfExponent: 1.0, TierOneCount: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tp.PublishMetrics(reg)
	const trees = 32
	dsts := tp.BySizeDesc()[:trees]
	if got := tp.WarmRoutes(dsts, 0); got != trees {
		t.Fatalf("warmed %d trees, want %d", got, trees)
	}
	if g := reg.Snapshot().GetGauge(metricRouteTrees); g != trees {
		t.Fatalf("%s gauge = %d, want %d", metricRouteTrees, g, trees)
	}
	asns := tp.ASNs()
	if allocs := testing.AllocsPerRun(1000, func() { tp.NextHop(asns[1], dsts[0]) }); allocs != 0 {
		t.Fatalf("warm NextHop allocates %.1f/op, want 0", allocs)
	}
}

// TestPathCacheConcurrentReaders: Path is safe for concurrent use on a
// static topology (the baselines' Monte-Carlo runs depend on this).
func TestPathCacheConcurrentReaders(t *testing.T) {
	tp, err := GenerateInternet(GenConfig{
		NumASes: 150, NumPrefixes: 300, ZipfExponent: 1.0, TierOneCount: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		w := w
		go func() {
			for i := 0; i < 300; i++ {
				src := ASN(1 + (i*7+w)%150)
				dst := ASN(1 + (i*13+w*3)%150)
				tp.Path(src, dst)
			}
			done <- true
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// TestWarmRoutesConcurrentWithReaders: warming and reading race-free.
func TestWarmRoutesConcurrentWithReaders(t *testing.T) {
	tp, err := GenerateInternet(GenConfig{
		NumASes: 150, NumPrefixes: 300, ZipfExponent: 1.0, TierOneCount: 5, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool)
	go func() {
		dsts := make([]ASN, 0, 50)
		for d := ASN(1); d <= 50; d++ {
			dsts = append(dsts, d)
		}
		tp.WarmRoutes(dsts, 4)
		done <- true
	}()
	for w := 0; w < 4; w++ {
		w := w
		go func() {
			for i := 0; i < 200; i++ {
				tp.NextHop(ASN(1+(i*7+w)%150), ASN(1+(i*13+w*3)%150))
			}
			done <- true
		}()
	}
	for w := 0; w < 5; w++ {
		<-done
	}
}

// TestPathConcurrentWithEviction: readers find trees without the lock
// while other readers' misses evict them from a four-tree cache; every
// path a reader gets is a complete valley-free path between its ends.
func TestPathConcurrentWithEviction(t *testing.T) {
	tp, err := GenerateInternet(GenConfig{
		NumASes: 150, NumPrefixes: 300, ZipfExponent: 1.0, TierOneCount: 5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	setRouteCacheCapacity(tp, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				src, dst := ASN(1+(i*7+w)%150), ASN(1+(i%12)*11)
				path, ok := tp.Path(src, dst)
				if !ok {
					continue
				}
				if path[0] != src || path[len(path)-1] != dst {
					t.Errorf("Path(%d, %d) = %v", src, dst, path)
					return
				}
				if err := tp.ValidateValleyFree(path); err != nil {
					t.Errorf("Path(%d, %d) = %v: %v", src, dst, path, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := tp.cachedRouteTrees(); n > 4 {
		t.Fatalf("%d trees cached, capacity 4", n)
	}
}

func BenchmarkPathCold(b *testing.B) {
	tp, err := GenerateInternet(GenConfig{
		NumASes: 500, NumPrefixes: 1000, ZipfExponent: 1.0, TierOneCount: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Different destination every time defeats the tree cache.
		src := ASN(1 + i%500)
		dst := ASN(1 + (i*271+13)%500)
		b.StopTimer()
		tp.invalidateRoutes()
		b.StartTimer()
		tp.Path(src, dst)
	}
}

func BenchmarkPathCached(b *testing.B) {
	tp, err := GenerateInternet(GenConfig{
		NumASes: 500, NumPrefixes: 1000, ZipfExponent: 1.0, TierOneCount: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tp.Path(100, 400) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Path(100, 400)
	}
}

func BenchmarkNextHopWarm(b *testing.B) {
	tp, err := GenerateInternet(GenConfig{
		NumASes: 500, NumPrefixes: 1000, ZipfExponent: 1.0, TierOneCount: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tp.NextHop(100, 400) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.NextHop(ASN(1+i%500), 400)
	}
}

// setRouteCacheCapacity overrides the number of routing trees t keeps
// in memory (default: a ~33 MB entry budget divided by topology
// size). Existing cached trees are dropped.
func setRouteCacheCapacity(t *Topology, trees int) {
	t.routeMu.Lock()
	defer t.routeMu.Unlock()
	t.routeCap = trees
	t.routes.Store(nil)
	t.rm.size(0, trees)
}
