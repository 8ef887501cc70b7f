// Checkpoint/restore seam. The data plane's durable state is its
// accounting — delivery/drop totals and directed per-link byte
// counters. The Deliveries list is a transient measurement buffer
// (per-packet pointers into live packet objects) and is not
// serialized: like the obs histograms, it is a diagnostic view that
// restarts empty. Restored totals land in shard slot 0; the accessors
// sum slots, so the counters continue exactly where the checkpointed
// run left off. The image does not carry an egress (SetEgress), so a
// data plane with one refuses to checkpoint.
package wire

import (
	"cmp"
	"errors"
	"slices"

	"discs/internal/snapcodec"
	"discs/internal/topology"
)

// Checkpoint serializes the aggregated data-plane counters.
func (dn *DataNet) Checkpoint(w *snapcodec.Writer) error {
	if len(dn.egress) > 0 {
		return errors.New("wire: cannot checkpoint a data plane with an egress")
	}
	w.Uvarint(dn.delivered())
	w.Uvarint(dn.droppedDISCS())
	w.Uvarint(dn.droppedNet())

	totals := make(map[[2]topology.ASN]uint64)
	for i := range dn.sc {
		for k, v := range dn.sc[i].linkBytes {
			totals[k] += v
		}
	}
	keys := make([][2]topology.ASN, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]topology.ASN) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Uvarint(uint64(k[0]))
		w.Uvarint(uint64(k[1]))
		w.Uvarint(totals[k])
	}
	return nil
}

// RestoreCheckpoint loads counters written by Checkpoint into shard
// slot 0 of a freshly built data plane.
func (dn *DataNet) RestoreCheckpoint(r *snapcodec.Reader) error {
	s := &dn.sc[0]
	s.delivered = r.Uvarint()
	s.droppedDISCS = r.Uvarint()
	s.droppedNet = r.Uvarint()
	n := r.Count(3)
	for i := 0; i < n; i++ {
		a := topology.ASN(r.Uvarint())
		b := topology.ASN(r.Uvarint())
		s.linkBytes[[2]topology.ASN{a, b}] = r.Uvarint()
	}
	return r.Err()
}
