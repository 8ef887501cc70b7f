package attack

import (
	"math/rand"
	"time"

	"discs/internal/core"
	"discs/internal/packet"
	"discs/internal/scenario/pulse"
	"discs/internal/topology"
)

// Result aggregates the fate of attack traffic injected through a
// DISCS system.
type Result struct {
	Sent      int
	Delivered int
	Dropped   int
	// AmplifiedDelivered weighs delivered s-DDoS requests by the
	// amplification factor; for d-DDoS it equals Delivered.
	AmplifiedDelivered float64
}

// tally records the fate of one packet of flow f.
func (r *Result) tally(f Flow, d core.DeliveryResult) {
	r.Sent++
	if d.Delivered {
		r.Delivered++
		if f.Kind == SDDoS {
			r.AmplifiedDelivered += AmplificationFactor
		} else {
			r.AmplifiedDelivered++
		}
	} else {
		r.Dropped++
	}
}

// Run injects `perFlow` packets for each flow into the system at the
// flow's agent AS and tallies the outcome. For s-DDoS, a delivered
// request reaches the reflector and its (amplified) reply floods the
// victim; the reply path is not simulated because reflector replies
// are legitimate traffic no defense filters.
//
// Run injects everything at a single simulated instant. Use RunPaced
// when interval observers (examples/observability) should see the attack
// unfold over simulated time.
func Run(sys *core.System, flows []Flow, perFlow int, seed int64) (Result, error) {
	return RunPaced(sys, flows, perFlow, seed, 1, 0)
}

// RunPaced injects the same traffic as Run but spread over simulated
// time: the packets of every flow are split into `waves` contiguous
// batches, and the simulated clock advances by `gap` between waves
// (firing any timers due in that window — heartbeats, interval
// recorders). With waves <= 1 or gap <= 0 it degenerates to Run.
//
// It is a thin shim over the scenario engine's pulse phase (see
// internal/scenario/pulse): the historic wave loop that lived here is
// now the single pacing implementation shared with internal/scenario,
// and the schedule is identical — a train of `waves` single-sub-wave
// pulses separated by `gap`.
func RunPaced(sys *core.System, flows []Flow, perFlow int, seed int64, waves int, gap time.Duration) (Result, error) {
	if waves < 1 {
		waves = 1
	}
	if gap < 0 {
		gap = 0
	}
	rng := rand.New(rand.NewSource(seed))
	var res Result
	// Draw every packet up front so the rng consumption — and with it
	// the generated traffic — is identical for any wave count.
	pkts := make([][]*packet.IPv4, len(flows))
	for i, f := range flows {
		ps, err := f.Packets(sys.Net.Topo, perFlow, rng)
		if err != nil {
			return res, err
		}
		pkts[i] = ps
	}
	bursts := pulse.Train(func(i int) topology.ASN { return flows[i].Agent },
		pkts, waves, 1, 0, gap)
	pulse.Run(sys, bursts, func(p pulse.Packet, d core.DeliveryResult) {
		res.tally(flows[p.Flow], d)
	})
	return res, nil
}

// DropRate returns the fraction of attack packets filtered.
func (r Result) DropRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(r.Sent)
}
