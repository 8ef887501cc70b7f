package core

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"discs/internal/cmac"
	"discs/internal/packet"
)

// TestSnapshotChurnNoTornVerdicts hammers the forwarding path (both
// families, single-packet and batch entry points) while a controller
// goroutine churns the function tables and key tables. It asserts the
// snapshot coherence the lock-free rework guarantees:
//
//   - a packet reported stamped always carries a mark made with the one
//     key the controller ever installs (no stamp decided against one key
//     snapshot and executed against another);
//   - a correctly stamped packet is never dropped at the verification
//     end, whatever interleaving of install, withdrawal, purge,
//     SetVerifyKey and peer removal it races with (either verification is active and the
//     mark matches, or it is inactive/unkeyed and the packet passes).
//
// Run with -race to also catch data races between the mutators and the
// lock-free readers.
func TestSnapshotChurnNoTornVerdicts(t *testing.T) {
	key := make([]byte, 16)
	key[5] = 0xaa
	kmac, err := cmac.New(key)
	if err != nil {
		t.Fatal(err)
	}

	pfx := testPfx2AS(t)
	pfx.Insert(netip.MustParsePrefix("2001:db8:1::/48"), 1)
	pfx.Insert(netip.MustParsePrefix("2001:db8:3::/48"), 3)
	v4pfx := netip.MustParsePrefix("10.3.0.0/16")
	v6pfx := netip.MustParsePrefix("2001:db8:3::/48")

	peerTables := NewTables(1, pfx)
	peerTables.Keys.SetStampKey(3, key)
	peer := testRouter(peerTables, 1)

	victimTables := NewTables(3, pfx)
	victimTables.Keys.SetVerifyKey(1, key)
	victim := testRouter(victimTables, 2)

	now := t0.Add(time.Minute)
	done := make(chan struct{})

	// Controller: continuous invocation/expiry/rekey churn. Every state
	// it ever publishes keeps the invariants above satisfiable: the only
	// stamp key is `key`, and whenever the victim knows a verify key for
	// AS1 it is `key` (possibly in both rekey slots).
	var ctl sync.WaitGroup
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		scratch := netip.MustParsePrefix("10.9.0.0/16")
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			switch i % 8 {
			case 0:
				peerTables.In[TableOutDst].Install(v4pfx, OpCDPStamp, t0, time.Hour, 0)
				peerTables.In[TableOutDst].Install(v6pfx, OpCDPStamp, t0, time.Hour, 0)
			case 1:
				victimTables.In[TableInDst].Install(v4pfx, OpCDPVerify, t0, time.Hour, 0)
				victimTables.In[TableInDst].Install(v6pfx, OpCDPVerify, t0, time.Hour, 0)
			case 2:
				removeOp(peerTables.In[TableOutDst], v4pfx, OpCDPStamp)
			case 3:
				removeOp(victimTables.In[TableInDst], v6pfx, OpCDPVerify)
			case 4:
				peerTables.Keys.removePeer(3)
				peerTables.Keys.SetStampKey(3, key)
			case 5:
				// Rekey window with the same key in both slots, then close it.
				demoted, _ := victimTables.Keys.setVerifyKey(1, key)
				victimTables.Keys.dropVerifyKey(1, demoted)
			case 6:
				victimTables.Keys.removePeer(1)
				victimTables.Keys.SetVerifyKey(1, key)
			case 7:
				// Exercise Purge's rebuild with a short-lived entry that is
				// already expired at `now`.
				victimTables.In[TableInSrc].Install(scratch, OpSPFilter, t0, time.Millisecond, 0)
				victimTables.In[TableInSrc].purge(now)
			}
		}
	}()

	const perG = 3000
	var fwd sync.WaitGroup
	for g := 0; g < 4; g++ {
		fwd.Add(1)
		go func(g int) {
			defer fwd.Done()
			for n := 0; n < perG; n++ {
				p := &packet.IPv4{
					TTL: 64, Protocol: packet.ProtoUDP,
					Src:     netip.AddrFrom4([4]byte{10, 1, byte(g), byte(n)}),
					Dst:     netip.AddrFrom4([4]byte{10, 3, 0, byte(n)}),
					Payload: []byte("churn"),
				}
				q := samplePacketV6()
				q.Src = netip.MustParseAddr("2001:db8:1::10")

				var verdicts []Verdict
				if n%2 == 0 {
					verdicts = append(verdicts,
						peer.ProcessOutbound(V4{p}, now),
						peer.ProcessOutbound(V6{q}, now))
				} else {
					verdicts = peer.ProcessOutboundBatch([]MarkCarrier{V4{p}, V6{q}}, now, verdicts)
				}
				for i, carrier := range []MarkCarrier{V4{p}, V6{q}} {
					switch verdicts[i] {
					case VerdictPass:
						// Stamp op uninstalled or key missing in that snapshot.
					case VerdictPassStamped:
						if ok, _ := carrier.verify(kmac); !ok {
							t.Errorf("g%d n%d pkt%d: stamped mark does not match the only installed key", g, n, i)
							return
						}
						if w := victim.ProcessInbound(carrier, now); w == VerdictDrop {
							t.Errorf("g%d n%d pkt%d: genuine stamped packet dropped (torn verify state)", g, n, i)
							return
						}
					default:
						t.Errorf("g%d n%d pkt%d: verdict %v for genuine local traffic", g, n, i, verdicts[i])
						return
					}
				}
			}
		}(g)
	}

	fwd.Wait()
	close(done)
	ctl.Wait()
}
