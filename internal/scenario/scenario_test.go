package scenario

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"discs/internal/attack"
	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/eval"
	"discs/internal/flowexport"
	"discs/internal/topology"
)

// victim pins the attacked AS of the spec being built (default: the
// last-deployed DAS).
func (b *Builder) victim(asn topology.ASN) *Builder {
	b.spec.Victim = asn
	return b
}

// world: provider AS1 with customers AS2..AS7, one /16 each; the
// victim AS3 advertises a second /16 so carpet phases have a prefix
// set to walk. deploy lists the DASes in ledger order.
func world(t testing.TB, deploy ...topology.ASN) (*core.System, *topology.Topology) {
	t.Helper()
	tp := topology.New()
	for i := topology.ASN(1); i <= 7; i++ {
		if _, err := tp.AddAS(i); err != nil {
			t.Fatal(err)
		}
		if err := tp.AddPrefix(i, netip.MustParsePrefix("10."+string('0'+byte(i))+".0.0/16")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.AddPrefix(3, netip.MustParsePrefix("10.30.0.0/16")); err != nil {
		t.Fatal(err)
	}
	for c := topology.ASN(2); c <= 7; c++ {
		if err := tp.Link(c, 1, topology.CustomerToProvider); err != nil {
			t.Fatal(err)
		}
	}
	net, err := bgp.BuildNetwork(tp, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystemWithOptions(core.SystemOptions{Net: net, Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range deploy {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Settle(); err != nil {
		t.Fatal(err)
	}
	return sys, tp
}

func run(t *testing.T, sys *core.System, spec *Spec) *Result {
	t.Helper()
	eng, err := NewEngine(Options{Spec: spec, Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPulseInvokeRecovery(t *testing.T) {
	sys, _ := world(t, 2, 3, 4, 5)
	spec, err := New("ttm", 1).victim(3).
		Pulse("pre", 30, 6, 2, 10*time.Millisecond).
		Invoke("defend").
		Pulse("post", 30, 6, 2, 10*time.Millisecond).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, sys, spec)

	if len(res.Phases) != 3 {
		t.Fatalf("phases: %d", len(res.Phases))
	}
	pre, inv, post := res.Phases[0], res.Phases[1], res.Phases[2]
	if pre.Sent != 30*6*2 {
		t.Errorf("pre sent = %d", pre.Sent)
	}
	if pre.Dropped != 0 {
		t.Errorf("pre-invocation drops: %d (nothing should filter yet)", pre.Dropped)
	}
	if inv.InvokedPeers == 0 {
		t.Errorf("invoke reached no peers")
	}
	if post.DropRate <= pre.DropRate || post.DropRate < spec.RecoverThreshold {
		t.Errorf("post drop rate %v (pre %v, threshold %v)", post.DropRate, pre.DropRate, spec.RecoverThreshold)
	}

	ttm := res.TTM
	if ttm == nil || !ttm.Invoked || !ttm.Recovered {
		t.Fatalf("ttm = %+v", ttm)
	}
	if ttm.FirstAttackAt != pre.Start {
		t.Errorf("first attack %v, pre start %v", ttm.FirstAttackAt, pre.Start)
	}
	if ttm.DetectDelay <= 0 || ttm.RecoveryDelay <= 0 {
		t.Errorf("delays: detect %v recover %v", ttm.DetectDelay, ttm.RecoveryDelay)
	}
	if ttm.Total != ttm.DetectDelay+ttm.RecoveryDelay {
		t.Errorf("total %v != %v + %v", ttm.Total, ttm.DetectDelay, ttm.RecoveryDelay)
	}

	if len(res.Dataset) == 0 {
		t.Fatal("empty dataset")
	}
	total := uint64(0)
	for _, r := range res.Dataset {
		if r.Scenario != "ttm" || r.Label != flowexport.LabelDDoS {
			t.Fatalf("record provenance: %+v", r)
		}
		if r.Phase != "pre" && r.Phase != "post" {
			t.Fatalf("record phase %q", r.Phase)
		}
		if r.Delivered+r.Dropped != r.Packets {
			t.Fatalf("record fates %d+%d != packets %d", r.Delivered, r.Dropped, r.Packets)
		}
		total += r.Packets
	}
	if got := uint64(pre.Sent + post.Sent); total != got {
		t.Errorf("dataset packets %d, sent %d", total, got)
	}

	reg := sys.Registry()
	if v := reg.Counter(metricSent).Value(); v != uint64(pre.Sent+post.Sent) {
		t.Errorf("obs sent = %d", v)
	}
	if v := reg.Counter(MetricPhases).Value(); v != 3 {
		t.Errorf("obs phases = %d", v)
	}
	if reg.Gauge(gaugeTTMTotalNS).Value() != int64(ttm.Total) {
		t.Errorf("obs ttm gauge mismatch")
	}
}

func TestCarpetWalksVictimPrefixes(t *testing.T) {
	sys, tp := world(t, 2, 3)
	spec, err := New("carpet", 2).victim(3).
		Carpet("sweep", 10, 4, 4, time.Millisecond).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, sys, spec)
	if res.Phases[0].Sent != 10*4*4 {
		t.Errorf("sent = %d", res.Phases[0].Sent)
	}
	// Every pulse re-aims at prefix p mod n; with 4 pulses over the
	// victim's 2 prefixes the dataset must show hits in both.
	hit := map[netip.Prefix]bool{}
	for _, r := range res.Dataset {
		for _, p := range tp.AS(3).Prefixes {
			if p.Contains(r.Dst) {
				hit[p] = true
			}
		}
	}
	if len(hit) != 2 {
		t.Errorf("carpet hit %d of 2 victim prefixes: %v", len(hit), hit)
	}
}

func TestMixedVectorLabelsAndAmplification(t *testing.T) {
	sys, _ := world(t, 2, 3)
	spec, err := New("mixed", 3).victim(3).
		phase(Phase{Name: "mix", Kind: PhasePulse, Vector: VectorMixed, Flows: 10, PerFlow: 4}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, sys, spec)
	labels := map[flowexport.Label]int{}
	for _, r := range res.Dataset {
		labels[r.Label]++
	}
	if labels[flowexport.LabelDDoS] != 5 || labels[flowexport.LabelSDDoS] != 5 {
		t.Errorf("mixed labels: %v", labels)
	}
	// Delivered s-DDoS requests count amplified, so with any delivered
	// reflection traffic the weighted tally exceeds the plain one.
	ph := res.Phases[0]
	if ph.Delivered > 0 && ph.AmplifiedDelivered <= float64(ph.Delivered) {
		t.Errorf("amplified %v <= delivered %d", ph.AmplifiedDelivered, ph.Delivered)
	}
}

func TestAdaptiveRotate(t *testing.T) {
	sys, _ := world(t, 2, 3, 4, 5)
	spec, err := New("rotate", 4).victim(3).
		Invoke("defend").
		Adaptive("rotate", StrategyRotate, 12, 4, 3, time.Millisecond).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, sys, spec)
	ph := res.Phases[1]
	if ph.Rotations == 0 {
		t.Error("rotate strategy never rotated a source")
	}
	if ph.Sent != 12*4*3 {
		t.Errorf("sent = %d", ph.Sent)
	}
}

func TestAdaptiveProbe(t *testing.T) {
	// Deploy only AS2 alongside the victim: flows whose path crosses
	// the lone peer DAS (agent 2, or innocent 2 from a legacy agent)
	// die, everything else survives — probing must find both.
	sys, _ := world(t, 2, 3)
	spec, err := New("probe", 5).victim(3).
		Invoke("defend").
		Adaptive("probe", StrategyProbe, 12, 4, 2, time.Millisecond).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, sys, spec)
	ph := res.Phases[1]
	if ph.ProbesSent == 0 {
		t.Fatal("no probes sent")
	}
	if ph.LiveAgents == 0 || ph.IdleAgents == 0 {
		t.Errorf("agents live=%d idle=%d: with DASes deployed some paths must die and some survive",
			ph.LiveAgents, ph.IdleAgents)
	}
	probes := 0
	for _, r := range res.Dataset {
		if r.Label == flowexport.LabelProbe {
			probes += int(r.Packets)
		}
	}
	if probes != ph.ProbesSent {
		t.Errorf("dataset probes %d, phase %d", probes, ph.ProbesSent)
	}
}

func TestLegitNoFalsePositives(t *testing.T) {
	sys, _ := world(t, 2, 3, 4, 5)
	spec, err := New("legit", 6).victim(3).
		Invoke("defend").
		Legit("sanity", 5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, sys, spec)
	ph := res.Phases[1]
	// Three deployed peers (2, 4, 5) send genuine stamped traffic.
	if ph.Sent != 3*5 {
		t.Errorf("sent = %d", ph.Sent)
	}
	if ph.FalsePositives != 0 || ph.Delivered != ph.Sent {
		t.Errorf("legit traffic filtered: %+v", ph)
	}
	for _, r := range res.Dataset {
		if r.Label != flowexport.LabelBenign {
			t.Fatalf("legit record labeled %v", r.Label)
		}
	}
}

func TestDeployIncentivesMatchEval(t *testing.T) {
	sys, tp := world(t, 2, 3)
	spec, err := New("adopt", 7).victim(3).
		Deploy("wave1", 2, "size").
		Deploy("wave2", 1, "size").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, sys, spec)

	// Replay the same adoption order directly through the §VI closed
	// forms; the engine's per-phase values must match exactly.
	acc := eval.NewAccumulator(eval.FromTopology(tp))
	for _, asn := range []topology.ASN{2, 3} {
		if err := acc.Deploy(asn); err != nil {
			t.Fatal(err)
		}
	}
	deployed := map[topology.ASN]bool{2: true, 3: true}
	var order []topology.ASN
	for _, asn := range tp.BySizeDesc() {
		if !deployed[asn] {
			order = append(order, asn)
		}
	}
	next := 0
	for i, want := range []int{2, 1} {
		for k := 0; k < want; k++ {
			if err := acc.Deploy(order[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		ph := res.Phases[i]
		if ph.NewDeployed != want {
			t.Errorf("phase %d: deployed %d, want %d", i, ph.NewDeployed, want)
		}
		if ph.Deployed != acc.NumDeployed() || ph.DeployedRatio != acc.DeployedRatio() {
			t.Errorf("phase %d: deployment state %d/%v, want %d/%v",
				i, ph.Deployed, ph.DeployedRatio, acc.NumDeployed(), acc.DeployedRatio())
		}
		if ph.IncDP != acc.IncDP() || ph.IncCDP != acc.IncCDP() ||
			ph.IncBoth != acc.IncBoth() || ph.Effectiveness != acc.Effectiveness() {
			t.Errorf("phase %d: incentives diverge from eval", i)
		}
	}
	if got := len(sys.Deployed()); got != 5 {
		t.Errorf("system deployment: %d", got)
	}
}

func TestRunDeterministicAndSeedSensitive(t *testing.T) {
	build := func() *core.System {
		sys, _ := world(t, 2, 3, 4, 5)
		return sys
	}
	spec, err := New("det", 11).victim(3).
		Pulse("pre", 20, 4, 2, time.Millisecond).
		Invoke("defend").
		Adaptive("adapt", StrategyRotate, 10, 4, 2, time.Millisecond).
		Deploy("grow", 1, "random").
		Legit("legit", 4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(off int64) *Result {
		eng, err := NewEngine(Options{Spec: spec, Sys: build(), SeedOffset: off})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runWith(0), runWith(0)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same spec, same seed: results diverge\n%+v\n%+v", a, b)
	}
	c := runWith(1)
	if reflect.DeepEqual(a.Dataset, c.Dataset) {
		t.Errorf("seed offset did not change the traffic")
	}
}

func TestNewEngineErrors(t *testing.T) {
	sys, _ := world(t, 2, 3)
	ok := &Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhaseQuiet, Wait: Duration(time.Second)}}}
	if _, err := NewEngine(Options{Sys: sys}); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := NewEngine(Options{Spec: ok}); err == nil {
		t.Error("nil sys accepted")
	}
	bad := *ok
	bad.Victim = 99
	if _, err := NewEngine(Options{Spec: &bad, Sys: sys}); err == nil {
		t.Error("unknown victim accepted")
	}
	// A legacy victim cannot invoke defenses.
	inv := &Spec{Version: 1, Name: "x", Victim: 6, Phases: []Phase{{Kind: PhaseInvoke}}}
	if _, err := NewEngine(Options{Spec: inv, Sys: sys}); err == nil {
		t.Error("invoke with legacy victim accepted")
	}
	// Victim 0 resolves to the last-deployed DAS.
	eng, err := NewEngine(Options{Spec: ok, Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	if eng.victim != 3 {
		t.Errorf("default victim %d, want 3", eng.victim)
	}
	// Quiet phases advance the simulated clock.
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Phases[0].End - res.Phases[0].Start; d != time.Second {
		t.Errorf("quiet advanced %v", d)
	}
	// Run on an attack-free spec records no TTM.
	if res.TTM != nil {
		t.Errorf("ttm on quiet-only run: %+v", res.TTM)
	}
}

// An attack flow whose spoofed source sits inside the victim AS should
// still be deterministic end to end — smoke the sampler's pinning.
func TestDrawFlowsPinVictim(t *testing.T) {
	sys, _ := world(t, 2, 3)
	eng, err := NewEngine(Options{Spec: &Spec{
		Version: 1, Name: "x", Victim: 3,
		Phases: []Phase{{Kind: PhasePulse}},
	}, Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := eng.drawFlows(&eng.spec.Phases[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if f.flow.Victim != 3 || f.flow.Agent == 3 || f.flow.Innocent == 3 {
			t.Fatalf("flow not pinned to victim: %+v", f.flow)
		}
		if f.flow.Kind != attack.DDDoS {
			t.Fatalf("default vector drew %v", f.flow.Kind)
		}
	}
}
