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
// the full handshakes' share of the process CPU in that span, estimated
// as the handshakes initiated times the cost of one measured right after
// the run (its X25519 multiplications and key schedule). (The estimate
// is only as steady as the host; a CPU profile of the same run gives the
// exact share.) A flat
// us/msg across N means a message costs what it carries, not what the
// mesh holds.
//
//	go test -run '^$' -bench MeshFormation -benchtime 1x ./internal/core
func BenchmarkMeshFormation(b *testing.B) {
	for _, n := range []int{45, 90, 180} {
		b.Run(fmt.Sprintf("das=%d", n), func(b *testing.B) {
			var wall, cpu, hs time.Duration
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
				hs += handshakeCost(b) // right after the run, under the same load
				b.StartTimer()
			}
			hs /= time.Duration(b.N)
			b.ReportMetric(float64(wall.Microseconds())/float64(msgs), "us/msg")
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
			b.ReportMetric(float64(handshakes)/float64(b.N), "handshakes/op")
			b.ReportMetric(float64(hs.Nanoseconds()), "handshake_ns")
			b.ReportMetric(float64(handshakes)*float64(hs)/float64(cpu), "handshake_share")
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

// handshakeCost times one full handshake as a peering runs it:
// securechan.NewInitiator, Respond and Finish between two fixed
// identities with a seeded reader. It reports the fastest of several
// batches, so a descheduled batch does not inflate it.
func handshakeCost(tb testing.TB) time.Duration {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	a, err := securechan.NewIdentity("a", rng)
	if err != nil {
		tb.Fatal(err)
	}
	z, err := securechan.NewIdentity("z", rng)
	if err != nil {
		tb.Fatal(err)
	}
	apub, zpub := a.Public(), z.Public()
	const batches, ops = 8, 60
	best := time.Duration(1<<63 - 1)
	for range batches {
		start := time.Now()
		for range ops {
			ini, err := securechan.NewInitiator(a, zpub, rng)
			if err != nil {
				tb.Fatal(err)
			}
			reply, _, err := securechan.Respond(z, apub, ini.Hello(), rng)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := ini.Finish(reply); err != nil {
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
