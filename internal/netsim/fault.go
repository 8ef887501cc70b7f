// Fault injection. DISCS is an on-demand defense: the control plane
// runs exactly when a DAS is under attack, which is when links are
// congested, frames are lost and controllers crash. This file gives
// the simulator a seeded, deterministic failure model so every
// protocol in the repository can be exercised under those conditions:
//
//   - per-link probabilistic loss, duplication, corruption and jitter
//     (LinkFaults, Link.SetFaults, Simulator.SetDefaultLinkFaults),
//   - scheduled outages: link flaps and network partitions
//     (scheduleFlap, schedulePartition),
//   - node crash and restart with timer invalidation (Node.Crash,
//     Node.Restart in netsim.go).
//
// Determinism contract: all randomness comes from per-lane RNGs
// seeded via SeedFaults, drawn in event-execution order, which is
// itself fully deterministic. Two runs with the same inputs, partition
// and fault seed execute the same failures at the same simulated times.
package netsim

// LinkFaults configures probabilistic per-send fault injection on one
// link. Probabilities are in [0, 1] and evaluated independently per
// send, in the fixed order loss, corruption, duplication, jitter.
type LinkFaults struct {
	// Loss is the probability a frame vanishes in flight. Unlike a
	// down link, the sender still sees the send accepted.
	Loss float64
	// Dup is the probability a frame is delivered twice (each copy
	// with its own jitter draw).
	Dup float64
	// Corrupt is the probability a frame suffers bit errors. Messages
	// implementing Corruptible are delivered mutated; others are
	// dropped, as a corrupted frame would fail its checksum anyway.
	Corrupt float64
	// JitterMax adds a uniform random extra delay in [0, JitterMax]
	// to each delivery. Jitter can reorder frames, so channels that
	// require ordering (securechan records) must tolerate gaps.
	JitterMax Time
}

// enabled reports whether any fault is configured.
func (f LinkFaults) enabled() bool {
	return f.Loss > 0 || f.Dup > 0 || f.Corrupt > 0 || f.JitterMax > 0
}

// SetFaults installs (or, with a zero LinkFaults, clears) fault
// injection on the link.
func (l *Link) SetFaults(f LinkFaults) {
	if !f.enabled() {
		l.faults = nil
		return
	}
	l.faults = &f
}

// SetDefaultLinkFaults sets the fault configuration applied to every
// link created by Connect from now on. Existing links are untouched,
// which lets a test fault only the on-demand controller links created
// after a BGP network was built fault-free.
func (s *Simulator) SetDefaultLinkFaults(f LinkFaults) {
	if !f.enabled() {
		s.defFaults = nil
		return
	}
	s.defFaults = &f
}

// SeedFaults seeds the fault RNGs. Call it before the first faulted
// send for a reproducible failure schedule; without it the RNGs use a
// fixed default seed (still deterministic, just not chosen). Each
// shard owns an independent stream derived from this seed, drawn in
// that shard's event order — deterministic given the seed and the
// partition.
func (s *Simulator) SeedFaults(seed int64) { s.eng.seedFaults(seed) }

// Corruptible is implemented by messages that can model in-flight bit
// errors. Corrupt must return a mutated copy and leave the receiver
// intact (the sender may hold a reference for retransmission); r is a
// random draw from the seeded fault RNG.
type Corruptible interface {
	Message
	Corrupt(r uint64) Message
}

// CorruptBytes flips one to three bits of b in place, chosen from the
// random word r, and returns b. It is the corruption primitive used
// by the injector; parsers' fuzz corpora seed from it so the fuzzer
// starts exactly where the simulator's corrupted frames live.
func CorruptBytes(b []byte, r uint64) []byte {
	if len(b) == 0 {
		return b
	}
	flips := 1 + int(r%3)
	x := r
	seen := make(map[uint64]bool, flips)
	for i := 0; i < flips; i++ {
		// splitmix64 step per draw; redraw on collision so two flips
		// never cancel on the same bit.
		var bit uint64
		for {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			bit = z % uint64(len(b)*8)
			if !seen[bit] {
				break
			}
		}
		seen[bit] = true
		b[bit/8] ^= 1 << (bit % 8)
	}
	return b
}

// Corrupt implements Corruptible for bytesMsg.
func (b bytesMsg) Corrupt(r uint64) Message {
	c := append(bytesMsg(nil), b...)
	CorruptBytes(c, r)
	return c
}

// scheduleFlap takes the link down at time `at` and restores it after
// `down`. Frames already in flight are still delivered (they left the
// interface); sends during the outage are rejected.
func (s *Simulator) scheduleFlap(l *Link, at, down Time) error {
	if _, err := s.Schedule(at, func() { l.SetUp(false) }); err != nil {
		return err
	}
	_, err := s.Schedule(at+down, func() { l.SetUp(true) })
	return err
}

// schedulePartition cuts the network at time `at` and heals it after
// `dur`: every link with exactly one endpoint in group goes down, so
// group and its complement cannot exchange new frames until the heal.
func (s *Simulator) schedulePartition(at, dur Time, group ...*Node) error {
	inGroup := make(map[*Node]bool, len(group))
	for _, n := range group {
		inGroup[n] = true
	}
	var cut []*Link
	for _, l := range s.links {
		if inGroup[l.a] != inGroup[l.b] {
			cut = append(cut, l)
		}
	}
	if _, err := s.Schedule(at, func() {
		for _, l := range cut {
			l.SetUp(false)
		}
	}); err != nil {
		return err
	}
	_, err := s.Schedule(at+dur, func() {
		for _, l := range cut {
			l.SetUp(true)
		}
	})
	return err
}
