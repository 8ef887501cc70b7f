package attack

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"discs/internal/core"
	"discs/internal/packet"
)

// referencePaced is the wave loop exactly as it lived here before the
// pacing moved into internal/scenario/pulse: draw every packet up
// front, then inject each flow's w-th contiguous slice per wave,
// advancing the clock by gap between waves. RunPaced must stay
// byte-identical to this schedule — same packets, same injection
// order, same simulated instants.
func referencePaced(sys *core.System, flows []Flow, perFlow int, seed int64, waves int, gap time.Duration) (Result, error) {
	if waves < 1 {
		waves = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var res Result
	pkts := make([][]*packet.IPv4, len(flows))
	for i, f := range flows {
		ps, err := f.Packets(sys.Net.Topo, perFlow, rng)
		if err != nil {
			return res, err
		}
		pkts[i] = ps
	}
	sim := sys.Net.Sim
	for w := 0; w < waves; w++ {
		for i, f := range flows {
			lo, hi := w*len(pkts[i])/waves, (w+1)*len(pkts[i])/waves
			for _, p := range pkts[i][lo:hi] {
				res.tally(f, sys.SendV4(f.Agent, p))
			}
		}
		if gap > 0 && w < waves-1 {
			sim.Run(sim.Now() + gap)
		}
	}
	return res, nil
}

func TestRunPacedMatchesReferenceLoop(t *testing.T) {
	flows := []Flow{
		{Kind: DDDoS, Agent: 2, Innocent: 4, Victim: 3},
		{Kind: DDDoS, Agent: 4, Innocent: 2, Victim: 3},
		{Kind: SDDoS, Agent: 4, Innocent: 1, Victim: 3},
	}
	for _, tc := range []struct {
		name    string
		perFlow int
		waves   int
		gap     time.Duration
	}{
		{"single wave", 12, 1, 0},
		{"even split", 12, 4, 10 * time.Millisecond},
		{"ragged split", 7, 3, time.Millisecond},
		{"more waves than packets", 2, 5, time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refSys, _ := runnerWorld(t)
			newSys, _ := runnerWorld(t)

			want, err := referencePaced(refSys, flows, tc.perFlow, 42, tc.waves, tc.gap)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunPaced(newSys, flows, tc.perFlow, 42, tc.waves, tc.gap)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("results diverge:\nreference %+v\nshim      %+v", want, got)
			}
			// The verdict counters of the two worlds must be identical —
			// same packets through the same tables at the same instants.
			ref, shim := refSys.Registry().Snapshot(), newSys.Registry().Snapshot()
			for name, v := range ref.Counters {
				if shim.Counters[name] != v {
					t.Errorf("counter %s: reference %d, shim %d", name, v, shim.Counters[name])
				}
			}
			for name, v := range shim.Counters {
				if _, ok := ref.Counters[name]; !ok && v != 0 {
					t.Errorf("counter %s only in shim run: %d", name, v)
				}
			}
			if refSys.Net.Sim.Now() != newSys.Net.Sim.Now() {
				t.Errorf("clocks diverge: reference %v, shim %v", refSys.Net.Sim.Now(), newSys.Net.Sim.Now())
			}
		})
	}
}
