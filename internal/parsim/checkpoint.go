// Checkpoint/restore seam for the parallel engine: per-lane clocks,
// creation counters (the oseq source, i.e. the deterministic
// tie-breaker), foreground high-water marks and fault-stream
// positions. The same quiescence contract as the serial simulator
// applies — foreground-pending lanes refuse to checkpoint, queued
// background events are dropped with crash semantics and re-armed by
// the restart path.
package parsim

import (
	"fmt"

	"discs/internal/netsim"
	"discs/internal/snapcodec"
)

// Checkpoint serializes the engine's resumable state. All lanes must
// be foreground-quiescent (run RunAll first); pending background
// events are not serialized.
func (e *Engine) Checkpoint(w *snapcodec.Writer) error {
	if e.inEpoch {
		return netsim.ErrNotQuiescent
	}
	lanes := append([]*lane{e.global}, e.lanes...)
	for _, ln := range lanes {
		if ln.q.Pending() > 0 {
			return netsim.ErrNotQuiescent
		}
	}
	w.Uvarint(uint64(e.shards))
	w.Varint(e.faultSeed)
	for _, ln := range lanes {
		w.Duration(ln.now)
		w.Uvarint(ln.ctr)
		w.Duration(ln.fgMax)
		w.Uvarint(ln.src.Draws())
	}
	return nil
}

// RestoreCheckpoint loads lane state written by Checkpoint into an
// engine built with the same shard count (the worker count is free to
// differ — determinism does not depend on it).
func (e *Engine) RestoreCheckpoint(r *snapcodec.Reader) error {
	shards := int(r.Uvarint())
	seed := r.Varint()
	if err := r.Err(); err != nil {
		return err
	}
	if shards != e.shards {
		return fmt.Errorf("%w: image has %d shards, engine has %d",
			netsim.ErrStateMismatch, shards, e.shards)
	}
	e.SeedFaults(seed)
	for _, ln := range append([]*lane{e.global}, e.lanes...) {
		ln.now = r.Duration()
		ln.ctr = r.Uvarint()
		ln.fgMax = r.Duration()
		ln.src.Skip(r.Uvarint())
		if err := r.Err(); err != nil {
			return err
		}
	}
	return nil
}
