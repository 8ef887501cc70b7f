package core

import (
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentForwarding hammers one border router from many
// goroutines (line cards) while the control plane concurrently
// installs/expires windows, rekeys, and toggles alarm mode. Run with
// -race; correctness assertions check counter conservation.
func TestConcurrentForwarding(t *testing.T) {
	peer, victim := peerVictimSetup(t)
	now := t0.Add(time.Minute)
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	const perWorker = 500

	var wg sync.WaitGroup
	// Forwarding goroutines: a mix of genuine and spoofed traffic.
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p := samplePacketV4()
				if w%2 == 0 {
					p.Src = netip.MustParseAddr("10.1.0.10") // genuine peer source
					if peer.ProcessOutbound(V4{p}, now) == VerdictPassStamped {
						victim.ProcessInbound(V4{p}, now)
					}
				} else {
					// Spoofed at the peer: dropped by DP.
					peer.ProcessOutbound(V4{p}, now)
				}
			}
		}()
	}
	// Control-plane goroutine: concurrent installs, purges, rekeys and
	// alarm toggles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v2 := netip.MustParsePrefix("10.4.0.0/16")
		for i := 0; i < 200; i++ {
			victim.Tables.In[TableInDst].Install(v2, OpCDPVerify, t0, time.Hour, 0)
			removeOp(victim.Tables.In[TableInDst], v2, OpCDPVerify)
			victim.Tables.In[TableInDst].purge(now)
			victim.Tables.Keys.SetVerifyKey(9, make([]byte, 16))
			victim.SetAlarmMode(i%2 == 0)
		}
		victim.SetAlarmMode(false)
	}()
	wg.Wait()

	ps, vs := peer.Stats(), victim.Stats()
	half := uint64(workers/2) * perWorker
	if ps.OutProcessed != uint64(workers)*perWorker {
		t.Fatalf("peer processed %d, want %d", ps.OutProcessed, uint64(workers)*perWorker)
	}
	if ps.OutDropped != half {
		t.Fatalf("peer dropped %d, want %d", ps.OutDropped, half)
	}
	if ps.OutStamped != half {
		t.Fatalf("peer stamped %d, want %d", ps.OutStamped, half)
	}
	// Every stamped packet reached the victim; with alarm flapping the
	// outcome is verified either way (marks are valid), so all must be
	// verified.
	if vs.InVerified != half {
		t.Fatalf("victim verified %d, want %d", vs.InVerified, half)
	}
}

// TestConcurrentBurstForwarding is TestConcurrentForwarding through
// the burst entry points: many line cards each pushing bursts through
// ProcessOutboundBatch/ProcessInboundBatch (pooled pipelines) while
// the control plane churns snapshots, rekeys and flips alarm mode.
// Run with -race; assertions check counter conservation across bursts.
func TestConcurrentBurstForwarding(t *testing.T) {
	peer, victim := peerVictimSetup(t)
	now := t0.Add(time.Minute)
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	const bursts = 30
	const burstLen = 32

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkts := make([]MarkCarrier, burstLen)
			verdicts := make([]Verdict, 0, burstLen)
			in := make([]MarkCarrier, 0, burstLen)
			for b := 0; b < bursts; b++ {
				for i := range pkts {
					p := samplePacketV4()
					if w%2 == 0 {
						p.Src = netip.MustParseAddr("10.1.0.10") // genuine
					}
					pkts[i] = V4{p}
				}
				verdicts = peer.ProcessOutboundBatch(pkts, now, verdicts[:0])
				in = in[:0]
				for i, v := range verdicts {
					if v == VerdictPassStamped {
						in = append(in, pkts[i])
					}
				}
				victim.ProcessInboundBatch(in, now, nil)
			}
		}()
	}
	// Control-plane churn: table snapshot swaps, rekeys, alarm flaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v2 := netip.MustParsePrefix("10.4.0.0/16")
		for i := 0; i < 200; i++ {
			victim.Tables.In[TableInDst].Install(v2, OpCDPVerify, t0, time.Hour, 0)
			removeOp(victim.Tables.In[TableInDst], v2, OpCDPVerify)
			victim.Tables.In[TableInDst].purge(now)
			victim.Tables.Keys.SetVerifyKey(9, make([]byte, 16))
			victim.SetAlarmMode(i%2 == 0)
		}
		victim.SetAlarmMode(false)
	}()
	wg.Wait()

	ps, vs := peer.Stats(), victim.Stats()
	total := uint64(workers) * bursts * burstLen
	half := total / 2
	if ps.OutProcessed != total {
		t.Fatalf("peer processed %d, want %d", ps.OutProcessed, total)
	}
	if ps.OutDropped != half || ps.OutStamped != half {
		t.Fatalf("peer dropped/stamped %d/%d, want %d/%d", ps.OutDropped, ps.OutStamped, half, half)
	}
	// Marks are always valid, so every stamped packet verifies whether
	// or not alarm mode was on at the instant it arrived.
	if vs.InVerified != half {
		t.Fatalf("victim verified %d, want %d", vs.InVerified, half)
	}
	if vs.MACsComputed != half {
		t.Fatalf("victim MACs %d, want %d", vs.MACsComputed, half)
	}
}

// TestConcurrentBurstKeyRotation is TestConcurrentKeyRotation through
// the burst entry points: a rotating two-key window must never fail a
// verification, including through the burst path's previous-key retry.
func TestConcurrentBurstKeyRotation(t *testing.T) {
	peer, victim := peerVictimSetup(t)
	now := t0.Add(time.Minute)
	oldKey := make([]byte, 16)
	oldKey[3] = 0x42
	newKey := make([]byte, 16)
	newKey[3] = 0x43

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			victim.Tables.Keys.SetVerifyKey(1, newKey)
			victim.Tables.Keys.SetVerifyKey(1, oldKey)
		}
	}()

	const bursts = 150
	const burstLen = 32
	pkts := make([]MarkCarrier, burstLen)
	failures := 0
	for b := 0; b < bursts; b++ {
		for i := range pkts {
			p := samplePacketV4()
			p.Src = netip.MustParseAddr("10.1.0.10")
			pkts[i] = V4{p}
		}
		for _, v := range peer.ProcessOutboundBatch(pkts, now, nil) {
			if v != VerdictPassStamped {
				t.Fatal("stamping failed")
			}
		}
		for _, v := range victim.ProcessInboundBatch(pkts, now, nil) {
			if v == VerdictDrop {
				failures++
			}
		}
	}
	close(stop)
	wg.Wait()
	if failures != 0 {
		t.Fatalf("%d verification failures during rotation", failures)
	}
}

// TestConcurrentKeyRotation rotates verification keys while verifiers
// run; every packet must verify against old or new key (the §IV-D
// two-key window) with no torn reads.
func TestConcurrentKeyRotation(t *testing.T) {
	peer, victim := peerVictimSetup(t)
	now := t0.Add(time.Minute)
	oldKey := make([]byte, 16)
	oldKey[3] = 0x42 // key installed by peerVictimSetup
	newKey := make([]byte, 16)
	newKey[3] = 0x43

	stop := make(chan struct{})
	var rotations int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			victim.Tables.Keys.SetVerifyKey(1, newKey)
			victim.Tables.Keys.SetVerifyKey(1, oldKey)
			rotations++
		}
	}()

	failures := 0
	for i := 0; i < 5000; i++ {
		p := samplePacketV4()
		p.Src = netip.MustParseAddr("10.1.0.10")
		if peer.ProcessOutbound(V4{p}, now) != VerdictPassStamped {
			t.Fatal("stamping failed")
		}
		if victim.ProcessInbound(V4{p}, now) == VerdictDrop {
			failures++
		}
	}
	close(stop)
	wg.Wait()
	// The rotation always keeps oldKey as either current or previous,
	// so marks stamped with oldKey never fail.
	if failures != 0 {
		t.Fatalf("%d verification failures during rotation (%d rotations)", failures, rotations)
	}
}
