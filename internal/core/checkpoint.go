// Checkpoint/restore seam. The core layer serializes exactly its
// durable state — the same state that survives a controller crash:
//
//   - the deploy ledger (which ASes deployed, in what order, with what
//     seed), from which restore rebuilds controllers with identical
//     node names, mesh-link creation order and RNG streams;
//   - each controller's campaign journal (serial, invocations, end
//     times) and resumption-secret cache — the two fields a crash
//     deliberately keeps;
//   - each border router's function tables (prefix → op → window).
//
// Volatile state is deliberately absent, with crash semantics: peer
// sessions, heartbeat timers and the purge schedule are rebuilt by
// Restart's journal replay, and session keys are renegotiated — the
// KeyTable only ever holds derived CMAC subkeys, so raw key material
// never touches the image. (The resumption secrets do; a deployment
// that persisted images to hostile storage would seal them, which is
// out of scope for a simulator.)
package core

import (
	"fmt"
	"net/netip"
	"sort"

	"discs/internal/snapcodec"
	"discs/internal/topology"
)

// tableKinds is the serialization order of the four function tables.
var tableKinds = []TableKind{TableInSrc, TableInDst, TableOutSrc, TableOutDst}

// checkpoint serializes the function table's entries.
func (ft *FuncTable) checkpoint(w *snapcodec.Writer) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	prefixes := make([]netip.Prefix, 0, len(ft.entries))
	for p := range ft.entries {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool {
		if c := prefixes[i].Addr().Compare(prefixes[j].Addr()); c != 0 {
			return c < 0
		}
		return prefixes[i].Bits() < prefixes[j].Bits()
	})
	w.Uvarint(uint64(len(prefixes)))
	for _, p := range prefixes {
		w.Prefix(p)
		wins := ft.entries[p]
		ops := make([]Op, 0, len(wins))
		for op := range wins {
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
		w.Uvarint(uint64(len(ops)))
		for _, op := range ops {
			win := wins[op]
			w.U8(uint8(op))
			w.Time(win.start)
			w.Time(win.end)
			w.Duration(win.grace)
		}
	}
}

// restore loads entries written by checkpoint and rebuilds the lookup
// snapshot once.
func (ft *FuncTable) restore(r *snapcodec.Reader) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	np := r.Count(6)
	for i := 0; i < np; i++ {
		p := r.Prefix()
		nops := r.Count(4)
		wins := make(map[Op]window, nops)
		for j := 0; j < nops; j++ {
			op := Op(r.U8())
			wins[op] = window{start: r.Time(), end: r.Time(), grace: r.Duration()}
		}
		if r.Err() != nil {
			return r.Err()
		}
		ft.entries[p] = wins
	}
	ft.rebuildLocked()
	return r.Err()
}

// checkpointJournal serializes the controller's durable state: the
// campaign journal and the resumption-secret cache.
func (c *Controller) checkpointJournal(w *snapcodec.Writer) error {
	w.Uvarint(c.campaignSerial)
	w.Uvarint(uint64(len(c.campaigns)))
	for _, cp := range c.campaigns {
		w.Uvarint(cp.serial)
		w.Time(cp.end)
		w.Uvarint(uint64(len(cp.invs)))
		for _, inv := range cp.invs {
			writeInvocation(w, inv)
		}
	}

	asns := make([]topology.ASN, 0, len(c.resumeCache))
	for a := range c.resumeCache {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	w.Uvarint(uint64(len(asns)))
	for _, a := range asns {
		secret := c.resumeCache[a]
		w.Uvarint(uint64(a))
		w.Bytes(secret[:])
	}
	return nil
}

// restoreJournal loads state written by checkpointJournal into a
// freshly deployed controller.
func (c *Controller) restoreJournal(r *snapcodec.Reader) error {
	c.campaignSerial = r.Uvarint()
	nc := r.Count(3)
	for i := 0; i < nc; i++ {
		cp := campaign{serial: r.Uvarint(), end: r.Time()}
		ni := r.Count(minInvocationLen)
		for j := 0; j < ni; j++ {
			cp.invs = append(cp.invs, readInvocation(r))
		}
		if r.Err() != nil {
			return r.Err()
		}
		c.campaigns = append(c.campaigns, cp)
	}
	ns := r.Count(3)
	for i := 0; i < ns; i++ {
		a := topology.ASN(r.Uvarint())
		b := r.Bytes()
		if r.Err() != nil {
			return r.Err()
		}
		if len(b) != 16 {
			return fmt.Errorf("core: restore: AS%d resumption secret is %d bytes, want 16", a, len(b))
		}
		var secret [16]byte
		copy(secret[:], b)
		c.resumeCache[a] = secret
	}
	return r.Err()
}

// Checkpoint serializes the system's durable control-plane state: the
// deploy ledger and, per deployed AS, the controller journal and the
// router's function tables.
func (s *System) Checkpoint(w *snapcodec.Writer) error {
	w.Uvarint(uint64(len(s.deploys)))
	for _, d := range s.deploys {
		w.Uvarint(uint64(d.asn))
		w.Varint(d.seed)
		if err := s.Controllers[d.asn].checkpointJournal(w); err != nil {
			return err
		}
		tables := s.Router(d.asn).Tables
		for _, kind := range tableKinds {
			tables.In[kind].checkpoint(w)
		}
	}
	return nil
}

// RestoreCheckpoint replays the deploy ledger written by Checkpoint
// against a restored network: each AS is re-deployed structurally
// (deployNode — no Ad replay, no re-origination; the restored RIBs
// already carry the Ads) and its durable state injected. The caller
// completes recovery by calling Restart per AS, which re-drives the
// journal replay exactly as a post-crash restart does, then Settle.
func (s *System) RestoreCheckpoint(r *snapcodec.Reader) error {
	n := r.Count(4)
	if r.Err() != nil {
		return r.Err()
	}
	for i := 0; i < n; i++ {
		asn := topology.ASN(r.Uvarint())
		seed := r.Varint()
		if r.Err() != nil {
			return r.Err()
		}
		ctrl, sp, err := s.deployNode(asn, seed)
		if err != nil {
			return err
		}
		sp.OnAd(ctrl.HandleAd)
		if err := ctrl.restoreJournal(r); err != nil {
			return err
		}
		tables := s.Router(asn).Tables
		for _, kind := range tableKinds {
			if err := tables.In[kind].restore(r); err != nil {
				return err
			}
		}
	}
	return r.Err()
}

// Deployed returns the deployed ASNs in deploy order (the ledger a
// checkpoint serializes). A restored scenario uses it to recover the
// DAS set — and the victim, by convention the last deployer — without
// re-deriving them from the topology.
func (s *System) Deployed() []topology.ASN {
	out := make([]topology.ASN, len(s.deploys))
	for i, d := range s.deploys {
		out[i] = d.asn
	}
	return out
}

// RestartAll re-runs the crash-recovery path on every deployed
// controller in deploy order — the final step of a snapshot restore.
func (s *System) RestartAll() error {
	for _, d := range s.deploys {
		if err := s.Restart(d.asn); err != nil {
			return err
		}
	}
	return nil
}
