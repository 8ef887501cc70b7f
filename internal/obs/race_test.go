package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestSnapshotWhileUpdateStress is the registry's concurrency gate:
// writer goroutines hammer counters, gauges, histograms and the
// tracer while readers continuously snapshot and drain events. Run
// under -race (make check), it proves snapshots never require
// stopping the world and updates never tear.
func TestSnapshotWhileUpdateStress(t *testing.T) {
	r := NewRegistry()
	var simNow atomic.Int64
	r.SetClock(simNow.Load)
	r.SetTraceCapacity(256)

	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writers: every metric type plus trace events, plus late metric
	// registration racing the snapshot map walks.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("stress.hits")
			g := r.Gauge("stress.depth")
			h := r.Histogram("stress.lat", []int64{10, 100, 1000})
			blk := r.counterBlock("stress.blk.a", "stress.blk.b")
			tr := r.Tracer()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				blk.Add([]uint64{1, 2})
				g.Set(int64(i))
				h.Observe(int64(i % 1500))
				if i%64 == 0 {
					tr.Emit(Event{Kind: EvPacketSample, Serial: uint64(i)})
				}
				if i%1000 == 0 {
					// Racing registration: a component coming up while
					// snapshots are in flight.
					r.Counter("stress.late").Inc()
				}
				simNow.Add(1)
			}
		}(w)
	}

	// Readers: snapshots, scoped snapshots and event drains.
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot()
				if s.Get("stress.hits") > writers*perWriter {
					t.Error("counter overshot")
					return
				}
				_ = r.SnapshotPrefix("stress.", "stress.")
				_ = r.Tracer().Events()
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	if a, b := r.Counter("stress.blk.a").Value(), r.Counter("stress.blk.b").Value(); a != writers*perWriter || b != 2*writers*perWriter {
		t.Fatalf("block counts %d, %d, want %d, %d", a, b, writers*perWriter, 2*writers*perWriter)
	}
	if got := r.Counter("stress.hits").Value(); got != writers*perWriter {
		t.Fatalf("final count %d, want %d", got, writers*perWriter)
	}
	h := r.Snapshot().Histograms["stress.lat"]
	if h.Count != writers*perWriter {
		t.Fatalf("histogram count %d, want %d", h.Count, writers*perWriter)
	}
}
