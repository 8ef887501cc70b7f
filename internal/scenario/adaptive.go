package scenario

import (
	"discs/internal/flowexport"
	"discs/internal/topology"
)

// adapt runs the phase's attacker strategy between pulses, mutating
// the flow set in place. It executes before every pulse (including the
// first), so the attacker reacts to the world as it is *now* — after
// any deploy or invoke phases earlier in the campaign and after the
// previous pulse's outcome.
func (e *Engine) adapt(ph *Phase, pr *PhaseResult, flows []flowState, agg *datasetAgg) error {
	switch ph.Strategy {
	case StrategyRotate:
		e.adaptRotate(pr, flows)
		return nil
	case StrategyProbe:
		return e.adaptProbe(ph, pr, flows, agg)
	}
	return specErr(pr.Index, "Strategy", "unknown strategy "+ph.Strategy)
}

// adaptRotate re-draws every flow's spoofed source (the innocent AS)
// avoiding ASes that have deployed DISCS: once an AS deploys, its
// address space gains stamping keys and spoofing it gets filtered, so
// a rational attacker rotates to still-legacy space. When (almost)
// everything has deployed there is nowhere left to rotate and the
// draw falls back to any AS — exactly the paper's end-game where
// incremental adoption corners the attacker.
func (e *Engine) adaptRotate(pr *PhaseResult, flows []flowState) {
	deployed := make(map[topology.ASN]bool)
	for _, asn := range e.sys.Deployed() {
		deployed[asn] = true
	}
	for i := range flows {
		f := &flows[i].flow
		// Bounded re-draws: the sampler is weighted by address space, so
		// a few tries find legacy space whenever a meaningful amount
		// remains.
		for try := 0; try < 16; try++ {
			cand := e.samp.Draw(e.rng)
			if cand == 0 || cand == f.Agent || cand == f.Victim {
				continue
			}
			if deployed[cand] && try < 15 {
				continue
			}
			if cand != f.Innocent {
				pr.Rotations++
			}
			f.Innocent = cand
			break
		}
	}
}

// adaptProbe sends Probes low-volume probe packets per distinct agent
// along the real attack shape and benches agents whose probes all
// died: the attacker keeps only paths that evade the current DAS
// filtering. Benched agents are re-probed next pulse — a path can come
// back (invocation expiry) or die (new adoption).
func (e *Engine) adaptProbe(ph *Phase, pr *PhaseResult, flows []flowState, agg *datasetAgg) error {
	// Probe each distinct agent once per round, not once per flow.
	type probeOutcome struct {
		probed, alive bool
	}
	agents := make(map[topology.ASN]*probeOutcome)
	for i := range flows {
		f := flows[i].flow
		out := agents[f.Agent]
		if out == nil {
			out = &probeOutcome{}
			agents[f.Agent] = out
		}
		if out.probed {
			continue
		}
		out.probed = true
		pkts, err := e.fill(f, ph.Probes)
		if err != nil {
			return err
		}
		e.markAttack()
		probe := flowState{flow: f, label: flowexport.LabelProbe}
		for k := range pkts {
			p := &pkts[k]
			d := e.sys.SendV4(f.Agent, p)
			pr.Sent++
			pr.ProbesSent++
			if d.Delivered {
				pr.Delivered++
				out.alive = true
			} else {
				pr.Dropped++
			}
			agg.observe(len(flows)+i, &probe, p, d)
		}
	}
	live, idle := 0, 0
	for i := range flows {
		alive := agents[flows[i].flow.Agent].alive
		flows[i].benched = !alive
	}
	for _, out := range agents {
		if out.alive {
			live++
		} else {
			idle++
		}
	}
	pr.LiveAgents, pr.IdleAgents = live, idle
	return nil
}
