// Checkpoint/restore seam. The simulator serializes exactly the state
// a crash-consistent snapshot needs to resume bit-identically:
//
//   - the engine's shard count and, per lane, its clock, its creation
//     counter (the oseq source, i.e. the deterministic tie-breaker, so
//     restored runs emit the same determinism-oracle trace a
//     straight-through run does) and its foreground high-water mark,
//   - the fault RNGs as (seed, per-lane draw count) — replayable
//     because every fault draw advances the underlying source exactly
//     one step (see countingSource),
//   - per-link configuration, direction backlogs and up/down state,
//     and per-node crash state.
//
// Pending events are deliberately NOT serialized. A checkpoint
// requires foreground quiescence on every lane (ErrNotQuiescent
// otherwise), and queued background events — heartbeats, periodic
// purges, reconnect timers — are dropped with crash semantics: the
// layers that armed them re-arm on restart, exactly as they do after a
// node crash.
// Closures cannot be serialized; quiescence is the point at which the
// world is closure-free by construction.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"discs/internal/snapcodec"
)

// ErrNotQuiescent is returned by Checkpoint while foreground events
// are pending: the world still holds in-flight closures that cannot be
// serialized. Run the simulator to quiescence (RunAll) first.
var ErrNotQuiescent = errors.New("netsim: checkpoint requires foreground quiescence")

// errStateMismatch is returned by RestoreCheckpoint when the live
// world the image is being restored into does not structurally match
// the world that was checkpointed (shard count, node or link tables
// differ).
var errStateMismatch = errors.New("netsim: restore target does not match image")

// countingSource is a rand.Source64 that counts how many times the
// underlying generator stepped. math/rand generator state is opaque,
// but every draw the simulator performs (Int63, Uint64, Float64,
// Int63n — never Read) advances the source exactly one step per
// source call, so (seed, draws) reconstructs the exact stream
// position: reseed and skip. Every lane's fault RNG is built over a
// countingSource for this reason.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

// Uint64 implements rand.Source64.
func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

// Seed implements rand.Source, resetting the draw count.
func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// skip advances the generator n steps (restore-side replay of a
// checkpointed draw count).
func (c *countingSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.n += n
}

// writeFaults serializes an optional LinkFaults configuration.
func writeFaults(w *snapcodec.Writer, f *LinkFaults) {
	if f == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.F64(f.Loss)
	w.F64(f.Dup)
	w.F64(f.Corrupt)
	w.Duration(f.JitterMax)
}

// readFaults decodes what writeFaults wrote.
func readFaults(r *snapcodec.Reader) *LinkFaults {
	if !r.Bool() {
		return nil
	}
	f := &LinkFaults{
		Loss:      r.F64(),
		Dup:       r.F64(),
		Corrupt:   r.F64(),
		JitterMax: r.Duration(),
	}
	return f
}

// Checkpoint serializes the simulator's resumable state, starting with
// the engine's shard count (a restore reads it first, to re-lane the
// rebuilt world before anything is scheduled). It is non-mutating: the
// live world keeps running afterwards, which is what makes the
// restore-vs-straight-through differential possible.
func (s *Simulator) Checkpoint(w *snapcodec.Writer) error {
	e := s.eng
	if e.inEpoch || e.totalFG() > 0 {
		return ErrNotQuiescent
	}
	w.Uvarint(uint64(e.shards))
	w.Varint(e.faultSeed)
	for _, ln := range e.all() {
		w.Duration(ln.now)
		w.Uvarint(ln.ctr)
		w.Duration(ln.fgMax)
		w.Uvarint(ln.src.n)
	}
	writeFaults(w, s.defFaults)

	names := make([]string, 0, len(s.nodes))
	for name := range s.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		n := s.nodes[name]
		w.String(name)
		w.Bool(n.crashed)
		w.Uvarint(n.epoch)
		w.Uvarint(uint64(n.shard))
	}

	// Links are serialized positionally: creation order is
	// deterministic (BuildNetwork, then the deploy sequence), and the
	// endpoint names double as an integrity check on restore.
	w.Uvarint(uint64(len(s.links)))
	for _, l := range s.links {
		w.String(l.a.Name)
		w.String(l.b.Name)
		w.Duration(l.Delay)
		w.F64(l.Bps)
		w.Duration(l.MaxBacklog)
		w.Bool(l.up)
		writeFaults(w, l.faults)
		w.Duration(l.busyUntil[0])
		w.Duration(l.busyUntil[1])
	}
	return nil
}

// RestoreCheckpoint loads state written by Checkpoint into a freshly
// rebuilt world whose node and link tables must already exist (the
// snapshot layer reconstructs them from the topology and deploy
// sections before calling this), re-laned to the image's shard count
// (the worker count is free to differ — determinism does not depend on
// it). The event queues start empty: background housekeeping re-arms
// through the restart path.
func (s *Simulator) RestoreCheckpoint(r *snapcodec.Reader) error {
	e := s.eng
	shards := int(r.Uvarint())
	seed := r.Varint()
	if err := r.Err(); err != nil {
		return err
	}
	if shards != e.shards {
		return fmt.Errorf("%w: image has %d shards, engine has %d", errStateMismatch, shards, e.shards)
	}
	e.seedFaults(seed)
	for _, ln := range e.all() {
		ln.now = r.Duration()
		ln.ctr = r.Uvarint()
		ln.fgMax = r.Duration()
		ln.src.skip(r.Uvarint())
		if err := r.Err(); err != nil {
			return err
		}
	}
	s.defFaults = readFaults(r)

	nn := int(r.Uvarint())
	if r.Err() != nil {
		return r.Err()
	}
	if nn != len(s.nodes) {
		return fmt.Errorf("%w: image has %d nodes, world has %d", errStateMismatch, nn, len(s.nodes))
	}
	for i := 0; i < nn; i++ {
		name := r.String()
		crashed := r.Bool()
		epoch := r.Uvarint()
		shard := r.Uvarint()
		if r.Err() != nil {
			return r.Err()
		}
		n := s.nodes[name]
		if n == nil {
			return fmt.Errorf("%w: image node %q absent from world", errStateMismatch, name)
		}
		if n.shard != int32(shard) {
			return fmt.Errorf("%w: node %q shard %d, image %d", errStateMismatch, name, n.shard, shard)
		}
		n.crashed = crashed
		n.epoch = epoch
	}

	nl := int(r.Uvarint())
	if r.Err() != nil {
		return r.Err()
	}
	if nl != len(s.links) {
		return fmt.Errorf("%w: image has %d links, world has %d", errStateMismatch, nl, len(s.links))
	}
	for i := 0; i < nl; i++ {
		a, b := r.String(), r.String()
		l := s.links[i]
		l.Delay = r.Duration()
		l.Bps = r.F64()
		l.MaxBacklog = r.Duration()
		l.up = r.Bool()
		l.faults = readFaults(r)
		l.busyUntil[0] = r.Duration()
		l.busyUntil[1] = r.Duration()
		if r.Err() != nil {
			return r.Err()
		}
		if l.a.Name != a || l.b.Name != b {
			return fmt.Errorf("%w: link %d is %s<->%s, image %s<->%s",
				errStateMismatch, i, l.a.Name, l.b.Name, a, b)
		}
	}
	return r.Err()
}
