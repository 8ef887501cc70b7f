package snapshot

import (
	"bytes"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/netsim"
	"discs/internal/topology"
)

// paperDAS is the number of deploying ASes in the paper image.
const paperDAS = 10

// worldTimes is what one paper-world set-up cost, phase by phase.
type worldTimes struct{ generate, build, engine time.Duration }

// paperWorld sets the paper world up the way every simulator run does:
// generate the 44,036-AS topology, build the BGP network, assign the
// default shards and re-lane the engine.
func paperWorld(tb testing.TB, workers int) (*bgp.Network, *netsim.Engine, worldTimes) {
	tb.Helper()
	var wt worldTimes
	start := time.Now()
	topo, err := topology.GenerateInternet(topology.DefaultGenConfig())
	if err != nil {
		tb.Fatal(err)
	}
	wt.generate = time.Since(start)
	start = time.Now()
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	if err != nil {
		tb.Fatal(err)
	}
	wt.build = time.Since(start)
	start = time.Now()
	net.AssignShards(netsim.DefaultShards)
	eng, err := net.Sim.Relane(netsim.Options{Shards: netsim.DefaultShards, Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	wt.engine = time.Since(start)
	return net, eng, wt
}

// deployedPaperWorld is the paper world with DISCS deployed on its
// paperDAS largest ASes, converged and with their route trees warm. The
// caller closes its engine.
func deployedPaperWorld(tb testing.TB) *World {
	tb.Helper()
	net, eng, _ := paperWorld(tb, 2)
	deployers := net.Topo.BySizeDesc()[:paperDAS]
	net.OriginateFirst(deployers...)
	if err := net.Converge(); err != nil {
		tb.Fatal(err)
	}
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: core.DefaultConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	for i, asn := range deployers {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		tb.Fatal(err)
	}
	net.Topo.WarmRoutes(deployers, 0)
	return &World{Net: net, Eng: eng, Sys: sys}
}

// allocated returns the number of heap allocations f makes and the
// bytes they hold.
func allocated(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter struct{ n uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += uint64(len(p))
	return len(p), nil
}

// TestPaperWorldSetupAllocs holds the construction of the paper world to
// a bounded number of heap allocations: set-up and restore build their
// tables whole, not one object per AS, link or prefix. Writing the
// deployed world's image allocates at most twice the image's size, and
// reading it back from a file at most 16 allocations and 20 MB (one
// buffer of its size per section).
func TestPaperWorldSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("paper-scale world")
	}
	const setupMax, restoreMax = 250_000, 800_000
	const readMax, readBytesMax = 16, 20 << 20
	var eng *netsim.Engine
	n, _ := allocated(func() { _, eng, _ = paperWorld(t, 2) })
	eng.Close()
	t.Logf("set-up: %d allocations", n)
	if n > setupMax {
		t.Errorf("paper-world set-up made %d allocations, want at most %d", n, setupMax)
	}

	world := deployedPaperWorld(t)
	var sink countingWriter
	var err error
	_, b := allocated(func() { err = Write(&sink, world) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("checkpoint: %d bytes allocated for a %d-byte image", b, sink.n)
	if b > 2*sink.n {
		t.Errorf("writing the %d-byte image allocated %d bytes, want at most twice the image", sink.n, b)
	}
	path := filepath.Join(t.TempDir(), "paper.img")
	err = WriteFile(path, world)
	world.Eng.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The runtime's own background work (a GC cycle's clean-ups) can
	// land a few small allocations in the window of one read on a loaded
	// machine; the least of three reads is the read's own count.
	var img *Image
	n, b = math.MaxUint64, math.MaxUint64
	for range 3 {
		rn, rb := allocated(func() { img, err = ReadFile(path) })
		if err != nil {
			t.Fatal(err)
		}
		n, b = min(n, rn), min(b, rb)
	}
	t.Logf("read: %d allocations, %d bytes for a %d-byte image", n, b, sink.n)
	if n > readMax || b > readBytesMax {
		t.Errorf("reading the %d-byte image made %d allocations of %d bytes, want at most %d and %d", sink.n, n, b, readMax, readBytesMax)
	}
	var restored *World
	n, _ = allocated(func() { restored, err = Restore(img, Options{Workers: 2}) })
	if err != nil {
		t.Fatal(err)
	}
	restored.Eng.Close()
	t.Logf("restore: %d allocations", n)
	if n > restoreMax {
		t.Errorf("restoring the %d-DAS paper image made %d allocations, want at most %d", paperDAS, n, restoreMax)
	}
}

// BenchmarkPaperWorldSetup times one paper-world set-up and reports its
// phases: generate-s (topology), build-s (BGP network) and engine-s
// (shards and lanes).
func BenchmarkPaperWorldSetup(b *testing.B) {
	b.ReportAllocs()
	var sum worldTimes
	for i := 0; i < b.N; i++ {
		_, eng, wt := paperWorld(b, 2)
		eng.Close()
		sum.generate += wt.generate
		sum.build += wt.build
		sum.engine += wt.engine
	}
	n := float64(b.N)
	b.ReportMetric(sum.generate.Seconds()/n, "generate-s")
	b.ReportMetric(sum.build.Seconds()/n, "build-s")
	b.ReportMetric(sum.engine.Seconds()/n, "engine-s")
}

// goroutinesBackTo waits, yielding but never sleeping, for the number
// of goroutines to fall back to base, and reports whether it did. A
// joined goroutine has signalled its exit but may still be unwinding.
func goroutinesBackTo(base int) bool {
	for i := 0; i < 10_000; i++ {
		if runtime.NumGoroutine() <= base {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// TestNoGoroutineOutlivesItsEngine: a restore that fails after starting
// its engine's workers closes the engine, and Close joins the workers,
// so neither a failed restore nor a built and closed paper world leaves
// a goroutine behind.
func TestNoGoroutineOutlivesItsEngine(t *testing.T) {
	good, err := Read(bytes.NewReader(encode(t, buildWorld(t, 2, 1))))
	if err != nil {
		t.Fatal(err)
	}
	// Re-frame the image with a cut bgp payload: its checksum is
	// recomputed, so Read accepts it and only Restore can refuse it,
	// after the engine is running.
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{byte(formatVersion), byte(formatVersion >> 8), 0, 0})
	for _, kind := range []uint16{secMeta, secTopo, secBGP, secNetsim, secObs} {
		payload := good.raw(kind)
		if kind == secBGP {
			payload = payload[:len(payload)/2]
		}
		if err := writeSection(&buf, kind, [][]byte{payload}); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := Read(&buf)
	if err != nil {
		t.Fatalf("re-framed image refused by Read: %v", err)
	}

	base := runtime.NumGoroutine()
	if w, err := Restore(bad, Options{Workers: 2}); err == nil {
		w.Eng.Close()
		t.Fatal("restore of an image with a cut bgp section succeeded")
	}
	if !goroutinesBackTo(base) {
		t.Fatalf("%d goroutines after a failed restore, %d before", runtime.NumGoroutine(), base)
	}

	if testing.Short() {
		return
	}
	_, eng, _ := paperWorld(t, 2)
	eng.Close()
	if !goroutinesBackTo(base) {
		t.Fatalf("%d goroutines after building and closing a paper world, %d before", runtime.NumGoroutine(), base)
	}
}
