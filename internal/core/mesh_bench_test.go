package core

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"time"

	"discs/internal/bgp"
	"discs/internal/securechan"
	"discs/internal/topology"
)

// BenchmarkMeshFormation measures how the cost of one control message
// grows with the mesh (§VI-C prices the controller by its N² peerings).
// On the seed-1 300-AS world it deploys the N largest ASes, one serial
// simulator, and settles the control plane: N(N-1)/2 peerings, each a
// full handshake both ways and the key exchange. It reports host µs per
// control message (deploy + settle wall time over ctrl.msgs_sent) and
// X25519's share of the process CPU in that span, estimated as
// 8 scalar multiplications per full handshake at the cost of one
// measured right after the run. (The estimate is only as steady as the
// host; a CPU profile of the same run gives the exact share.) A flat
// us/msg across N means a message costs what it carries, not what the
// mesh holds.
//
//	go test -run '^$' -bench MeshFormation -benchtime 1x ./internal/core
func BenchmarkMeshFormation(b *testing.B) {
	for _, n := range []int{45, 90, 180} {
		b.Run(fmt.Sprintf("das=%d", n), func(b *testing.B) {
			var wall, cpu, mult time.Duration
			var msgs, handshakes uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net := meshWorld(b)
				b.StartTimer()
				t0, c0 := time.Now(), processCPU()
				sys, err := NewSystemWithOptions(SystemOptions{Net: net, Config: DefaultConfig()})
				if err != nil {
					b.Fatal(err)
				}
				deployers := net.Topo.BySizeDesc()[:n]
				for j, asn := range deployers {
					if _, err := sys.Deploy(asn, int64(j+1)); err != nil {
						b.Fatal(err)
					}
				}
				if err := sys.Settle(); err != nil {
					b.Fatal(err)
				}
				wall += time.Since(t0)
				cpu += processCPU() - c0
				st := sys.Stats()
				msgs += st.Sum(MetricCtrlMsgsSent)
				handshakes += st.Sum(metricCtrlHandshakesInitiated)
				if got := len(sys.Controllers[deployers[0]].Peers()); got != n-1 {
					b.Fatalf("AS%d peers with %d DAS, want %d", deployers[0], got, n-1)
				}
				b.StopTimer()
				mult += x25519Cost(b) // right after the run, under the same load
				b.StartTimer()
			}
			mult /= time.Duration(b.N)
			b.ReportMetric(float64(wall.Microseconds())/float64(msgs), "us/msg")
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
			b.ReportMetric(float64(handshakes)/float64(b.N), "handshakes/op")
			b.ReportMetric(float64(mult.Nanoseconds()), "x25519_ns")
			b.ReportMetric(8*float64(handshakes)*float64(mult)/float64(cpu), "x25519_share")
		})
	}
}

// meshWorld builds and converges the seed-1 300-AS world.
func meshWorld(tb testing.TB) *bgp.Network {
	tb.Helper()
	topo, err := topology.GenerateInternet(topology.GenConfig{NumASes: 300, NumPrefixes: 300, ZipfExponent: 1.0, Seed: 1, TierOneCount: 6})
	if err != nil {
		tb.Fatal(err)
	}
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	if err != nil {
		tb.Fatal(err)
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		tb.Fatal(err)
	}
	return net
}

// x25519Cost times one X25519 scalar multiplication as the handshake
// runs it: securechan.NewIdentity with a seeded reader, which draws a
// scalar and makes exactly one base-point multiplication. It reports the
// fastest of several batches, so a descheduled batch does not inflate it.
func x25519Cost(tb testing.TB) time.Duration {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	const batches, ops = 8, 250
	best := time.Duration(1<<63 - 1)
	for range batches {
		start := time.Now()
		for range ops {
			if _, err := securechan.NewIdentity("x25519", rng); err != nil {
				tb.Fatal(err)
			}
		}
		best = min(best, time.Since(start)/ops)
	}
	return best
}

// processCPU is the user+system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
