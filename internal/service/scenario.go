package service

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"discs/internal/core"
	"discs/internal/packet"
	"discs/internal/scenario"
)

// ScenarioPhaseReport tallies one phase of a fleet scenario run. The
// fleet is the off-simulator deployment, so outcomes are verdicts at
// real border routers over real sockets, not simulated deliveries.
type ScenarioPhaseReport struct {
	Name string
	Kind scenario.PhaseKind
	// Sent packets entered a source node's border router; Stamped left
	// it with a CDP stamp (legit traffic), Blocked died there (spoofed
	// traffic after DP deploys).
	Sent, Stamped, Blocked int
	// Invoked counts peers that accepted an invoke phase's functions.
	Invoked int
}

// RunScenario drives the fleet through the service-compatible phases
// of a declarative scenario spec: pulse trains of spoofed traffic
// claiming the victim's space (the DP/CDP loadgen shape, paced in real
// time), legit phases of genuine stamped flows, invoke phases through
// the victim node's controller, and quiet phases as wall-clock gaps.
//
// Topology-dependent phases (carpet, adaptive, deploy) and reflective
// vectors need the simulated internet; they fail with an error telling
// the caller to use discs-sim -scenario.
func (f *Fleet) RunScenario(spec *scenario.Spec, victim int, timeout time.Duration) ([]ScenarioPhaseReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if victim < 0 || victim >= len(f.Nodes) {
		return nil, fmt.Errorf("service: victim node %d out of range [0, %d)", victim, len(f.Nodes))
	}
	deadline := time.Now().Add(timeout)
	var out []ScenarioPhaseReport
	for i := range spec.Phases {
		ph := &spec.Phases[i]
		rep := ScenarioPhaseReport{Name: ph.Name, Kind: ph.Kind}
		var err error
		switch ph.Kind {
		case scenario.PhasePulse:
			err = f.scenarioPulse(ph, victim, &rep)
		case scenario.PhaseLegit:
			f.scenarioLegit(ph, victim, &rep)
		case scenario.PhaseInvoke:
			rep.Invoked, err = f.scenarioInvoke(ph, victim, time.Until(deadline))
		case scenario.PhaseQuiet:
			time.Sleep(ph.Wait.D())
		default:
			err = fmt.Errorf("kind %q is topology-dependent; run it on the simulator (discs-sim -scenario)", ph.Kind)
		}
		if err != nil {
			return out, fmt.Errorf("service: scenario %q phase %d (%s): %w", spec.Name, i, ph.Name, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// scenarioPulse sends a paced train of spoofed packets claiming the
// victim's own space from the non-victim nodes, round-robin. Pulses
// are separated by the spec gap in real time; sub-waves split each
// pulse across the pulse width.
func (f *Fleet) scenarioPulse(ph *scenario.Phase, victim int, rep *ScenarioPhaseReport) error {
	if ph.Vector != scenario.VectorDDoS {
		return fmt.Errorf("vector %q needs the simulator's reflector paths; the fleet drives %q only", ph.Vector, scenario.VectorDDoS)
	}
	srcs := f.otherNodes(victim)
	dstName := f.Nodes[victim].Name()
	intra := time.Duration(0)
	if ph.SubWaves > 1 {
		intra = ph.Width.D() / time.Duration(ph.SubWaves)
	}
	for p := 0; p < ph.Pulses; p++ {
		for w := 0; w < ph.SubWaves; w++ {
			for k := 0; k < ph.Flows; k++ {
				src := srcs[k%len(srcs)]
				lo, hi := w*ph.PerFlow/ph.SubWaves, (w+1)*ph.PerFlow/ph.SubWaves
				for q := lo; q < hi; q++ {
					pkt := &packet.IPv4{
						TTL: 64, Protocol: 17,
						Src:     FleetAddr(victim, byte(30+(k+q)%200)), // claims the victim's space
						Dst:     FleetAddr(victim, byte(10+k%200)),
						Payload: []byte("pulse"),
					}
					rep.Sent++
					if v, sent := f.Nodes[src].SendPacket(dstName, pkt); !sent && v.Dropped() {
						rep.Blocked++
					}
				}
			}
			if intra > 0 && w < ph.SubWaves-1 {
				time.Sleep(intra)
			}
		}
		if g := ph.Gap.D(); g > 0 && p < ph.Pulses-1 {
			time.Sleep(g)
		}
	}
	return nil
}

// scenarioLegit sends genuine flows from every non-victim node toward
// the victim; Flows > 0 caps how many nodes send.
func (f *Fleet) scenarioLegit(ph *scenario.Phase, victim int, rep *ScenarioPhaseReport) {
	srcs := f.otherNodes(victim)
	if ph.Flows > 0 && ph.Flows < len(srcs) {
		srcs = srcs[:ph.Flows]
	}
	dstName := f.Nodes[victim].Name()
	for _, src := range srcs {
		for q := 0; q < ph.PerFlow; q++ {
			pkt := &packet.IPv4{
				TTL: 64, Protocol: 17,
				Src:     FleetAddr(src, byte(20+q%200)),
				Dst:     FleetAddr(victim, byte(10+q%200)),
				Payload: []byte("legit"),
			}
			rep.Sent++
			if v, sent := f.Nodes[src].SendPacket(dstName, pkt); sent && v == core.VerdictPassStamped {
				rep.Stamped++
			}
		}
	}
}

// scenarioInvoke invokes the phase's functions for the victim node's
// prefix and, for the outbound-table functions the fleet can observe
// (DP filter, CDP stamp), blocks until every peer deployed them.
func (f *Fleet) scenarioInvoke(ph *scenario.Phase, victim int, timeout time.Duration) (int, error) {
	var invs []core.Invocation
	var wantOps core.OpSet
	for _, name := range ph.Functions {
		fn, err := core.ParseFunction(strings.ToUpper(name))
		if err != nil {
			return 0, err
		}
		invs = append(invs, core.Invocation{
			Prefixes: []netip.Prefix{FleetPrefix(victim)},
			Function: fn, Duration: ph.Duration.D(),
		})
		switch fn {
		case core.DP:
			wantOps = wantOps.Add(core.OpDPFilter)
		case core.CDP:
			wantOps = wantOps.Add(core.OpCDPStamp)
		}
	}
	return f.invokeAndWait(victim, invs, wantOps, timeout)
}

// otherNodes returns every node index except the victim's.
func (f *Fleet) otherNodes(victim int) []int {
	out := make([]int, 0, len(f.Nodes)-1)
	for i := range f.Nodes {
		if i != victim {
			out = append(out, i)
		}
	}
	return out
}
