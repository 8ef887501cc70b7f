// Package pulse is the scenario engine's pacing primitive: it injects
// pre-materialized packet bursts into a core.System from driver
// context, advancing the simulated clock between bursts. It paces
// every simulated campaign: attack.RunPaced and every internal/scenario
// phase (pulse-wave trains, carpet sweeps, adaptive rounds) are thin
// layers over Run. The off-simulator fleet (internal/service) paces
// its own pulses in real time.
//
// Determinism: packets are injected serially from driver context (the
// same place attack.Run always injected from), and the clock advances
// via Simulator.Run, so a burst train is bit-identical at any parallel
// worker count and identical whether the world was built straight
// through or restored from a snapshot.
package pulse

import (
	"time"

	"discs/internal/core"
	"discs/internal/packet"
	"discs/internal/topology"
)

// Packet is one injection: Pkt enters the system at From's border.
// Flow carries a caller-defined flow index through to the Sink so
// tallies can be grouped without re-deriving the flow from addresses.
type Packet struct {
	From topology.ASN
	Pkt  *packet.IPv4
	Flow int
}

// Burst is one pulse of a wave train: its packets are injected
// back-to-back at a single simulated instant, then the clock advances
// by Gap (firing any timers due in that window — heartbeats, interval
// recorders, expiries). A zero Gap injects the next burst at the same
// instant.
type Burst struct {
	Packets []Packet
	Gap     time.Duration
}

// Sink observes the fate of every injected packet, in injection order.
type Sink func(p Packet, d core.DeliveryResult)

// Run injects the bursts in order. sink may be nil when the caller
// only wants the side effects (counters, traces).
func Run(sys *core.System, bursts []Burst, sink Sink) {
	sim := sys.Net.Sim
	for _, b := range bursts {
		for _, p := range b.Packets {
			d := sys.SendV4(p.From, p.Pkt)
			if sink != nil {
				sink(p, d)
			}
		}
		if b.Gap > 0 {
			sim.Run(sim.Now() + b.Gap)
		}
	}
}

// Train builds the canonical pulse-wave burst layout over a per-flow
// packet matrix: pkts[i] holds flow i's packets for the whole train,
// and every burst takes each flow's next contiguous slice — so the
// injection order inside a burst is flow-major, matching the historic
// attack.RunPaced wave loop exactly.
//
// The train has `pulses` pulses separated by interGap; each pulse is
// split into subWaves bursts separated by intraGap (a pulse of width W
// sampled at S points uses intraGap = W/S). A flow's n packets are
// floor-split over the W = pulses·subWaves bursts, burst w taking
// [w·n/W, (w+1)·n/W), so a remainder lands in the later bursts — for
// subWaves = 1, intraGap = 0 this is byte-for-byte the RunPaced
// schedule. No gap follows the final burst: the train ends at the
// instant of its last injection.
//
// Train allocates the bursts afresh; a caller that builds a train per
// pulse keeps a Trainer instead.
func Train(from func(flow int) topology.ASN, pkts [][]*packet.IPv4, pulses, subWaves int, intraGap, interGap time.Duration) []Burst {
	var tr Trainer
	return tr.Train(from, pkts, pulses, subWaves, intraGap, interGap)
}

// Trainer builds trains into storage it keeps from call to call: the
// burst slice and one array behind every burst's packets, grown only
// when a train outgrows them. The bursts a call returns are valid until
// the next call.
type Trainer struct {
	bursts  []Burst
	packets []Packet
}

// Train is the package-level Train built in tr's storage.
func (tr *Trainer) Train(from func(flow int) topology.ASN, pkts [][]*packet.IPv4, pulses, subWaves int, intraGap, interGap time.Duration) []Burst {
	if pulses < 1 {
		pulses = 1
	}
	if subWaves < 1 {
		subWaves = 1
	}
	waves := pulses * subWaves
	total := 0
	for _, ps := range pkts {
		total += len(ps)
	}
	if cap(tr.packets) < total {
		tr.packets = make([]Packet, total)
	}
	if cap(tr.bursts) < waves {
		tr.bursts = make([]Burst, waves)
	}
	buf, bursts := tr.packets[:0], tr.bursts[:waves]
	for w := range bursts {
		lo := len(buf)
		for i, ps := range pkts {
			src := from(i)
			for _, p := range ps[w*len(ps)/waves : (w+1)*len(ps)/waves] {
				buf = append(buf, Packet{From: src, Pkt: p, Flow: i})
			}
		}
		b := Burst{Packets: buf[lo:len(buf):len(buf)]}
		if w < waves-1 {
			if (w+1)%subWaves == 0 {
				b.Gap = interGap
			} else {
				b.Gap = intraGap
			}
		}
		bursts[w] = b
	}
	return bursts
}
