package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"discs/internal/cmac"
	"discs/internal/topology"
)

// KeyTable holds the Key-S and Key-V tables of a DAS (§V-A): for each
// peer j, Key-S(j) = key_{i,j} (we stamp packets to j with it) and
// Key-V(j) = key_{j,i} (we verify packets from j with it).
//
// Re-keying (§IV-D) is supported on the verification side by keeping
// the previous key live alongside the new one: a mark is valid if it
// conforms with either. The stamping side switches atomically once the
// peer has confirmed deployment of the new key.
//
// The table is copy-on-write: mutators serialize on mu and publish a
// new immutable snapshot; the forwarding path loads the snapshot once
// and reads it without locks. A snapshot is a peer→slot index plus one
// slice of per-slot key records. The index is a topology.ASNIndex, so
// a lookup is a multiply, a shift and usually one probe instead of a Go
// map read. A peer's first join copies the index's slot array once and
// gives the peer the next slot; a leave keeps the peer's index entry
// and clears its slot, which a rejoin fills again. Nothing else
// rehashes: a key change for a known peer (§IV-D: verify key, stamp
// key, end of the overlap — three per peering), a leave or a rejoin
// copies the slot slice, one pointer per peer.
type KeyTable struct {
	mu   sync.Mutex // serializes mutators; readers never take it
	snap atomic.Pointer[keySnapshot]
}

// keySnapshot is an immutable view of both key tables. Neither the
// index, the slot slice nor the records are mutated after publication;
// snapshots that differ only in a key share the index's slot array.
type keySnapshot struct {
	index topology.ASNIndex // every peer that ever held a key
	slots []*peerKeys       // nil at the slots of departed peers
}

// peerKeys is one peer's key record: Key-S and Key-V with the rekey
// overlap's previous Key-V.
type peerKeys struct {
	stamp    *cmac.CMAC
	current  *cmac.CMAC
	previous *cmac.CMAC // non-nil only during a rekey window
}

var emptyKeySnapshot = &keySnapshot{}

// newKeyTable creates empty key tables.
func newKeyTable() *KeyTable {
	kt := &KeyTable{}
	kt.snap.Store(emptyKeySnapshot)
	return kt
}

// keys returns peer's record, or nil when peer has no key state.
func (ks *keySnapshot) keys(peer topology.ASN) *peerKeys {
	if i, ok := ks.index.Get(peer); ok {
		return ks.slots[i]
	}
	return nil
}

// stampKey is Key-S(peer), nil when peer is not a peer DAS.
func (ks *keySnapshot) stampKey(peer topology.ASN) *cmac.CMAC {
	if pk := ks.keys(peer); pk != nil {
		return pk.stamp
	}
	return nil
}

// verifyKeys returns peer's record when it holds a verification key.
func (ks *keySnapshot) verifyKeys(peer topology.ASN) *peerKeys {
	if pk := ks.keys(peer); pk != nil && pk.current != nil {
		return pk
	}
	return nil
}

// update replaces peer's record with fn's result and publishes the new
// snapshot. An all-nil result removes peer. fn sees the zero record
// when peer has no key state.
func (kt *KeyTable) update(peer topology.ASN, fn func(pk *peerKeys)) {
	kt.mu.Lock()
	defer kt.mu.Unlock()
	old := kt.snap.Load()
	var cur *peerKeys
	i, indexed := old.index.Get(peer)
	if indexed {
		cur = old.slots[i]
	}
	var next peerKeys
	if cur != nil {
		next = *cur
	}
	fn(&next)
	empty := next == peerKeys{}
	if (cur == nil && empty) || (cur != nil && next == *cur) {
		return // nothing changes
	}
	s := &keySnapshot{index: old.index}
	if !indexed { // first join
		i = int32(len(old.slots))
		s.index = old.index.Clone()
		s.index.Put(peer, i)
	}
	s.slots = make([]*peerKeys, max(len(old.slots), int(i)+1))
	copy(s.slots, old.slots)
	if empty {
		s.slots[i] = nil
	} else {
		s.slots[i] = &next
	}
	kt.snap.Store(s)
}

// SetStampKey installs (or replaces) the stamping key toward peer.
func (kt *KeyTable) SetStampKey(peer topology.ASN, key []byte) error {
	c, err := cmac.New(key)
	if err != nil {
		return fmt.Errorf("core: stamp key for AS%d: %w", peer, err)
	}
	kt.update(peer, func(pk *peerKeys) { pk.stamp = c })
	return nil
}

// SetVerifyKey installs a verification key for packets from peer. If a
// key is already present it is retained as the previous key so that
// in-flight packets stamped with it keep verifying until the controller
// ends the overlap (§IV-D rekey tolerance).
func (kt *KeyTable) SetVerifyKey(peer topology.ASN, key []byte) error {
	_, err := kt.setVerifyKey(peer, key)
	return err
}

// setVerifyKey is SetVerifyKey returning the key it demoted to
// previous (nil if there was none), so that the end of this overlap
// can drop exactly that key (dropVerifyKey).
func (kt *KeyTable) setVerifyKey(peer topology.ASN, key []byte) (demoted *cmac.CMAC, err error) {
	c, err := cmac.New(key)
	if err != nil {
		return nil, fmt.Errorf("core: verify key for AS%d: %w", peer, err)
	}
	kt.update(peer, func(pk *peerKeys) {
		demoted = pk.current
		pk.current, pk.previous = c, pk.current
	})
	return demoted, nil
}

// dropVerifyKey ends one rekey window: it drops the previous key only
// if it is still k. A newer deploy has already pushed k out and made
// the key the stamper uses until its ack the previous one; that key
// stays for its own overlap.
func (kt *KeyTable) dropVerifyKey(peer topology.ASN, k *cmac.CMAC) {
	if k == nil {
		return
	}
	kt.update(peer, func(pk *peerKeys) {
		if pk.previous == k {
			pk.previous = nil
		}
	})
}

// removePeer deletes all key state for peer (peer teardown or key
// compromise recovery, §VI-E3).
func (kt *KeyTable) removePeer(peer topology.ASN) {
	kt.update(peer, func(pk *peerKeys) { *pk = peerKeys{} })
}

// verify checks carrier's mark against the current Key-V and, during a
// rekey window, the previous one (§IV-D), returning the CMACs computed.
func (pk *peerKeys) verify(carrier MarkCarrier) (valid bool, macs int) {
	ok, n := carrier.verify(pk.current)
	if ok || pk.previous == nil {
		return ok, n
	}
	ok, m := carrier.verify(pk.previous)
	return ok, n + m
}
