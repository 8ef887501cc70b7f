package scenario

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"time"

	"discs/internal/attack"
	"discs/internal/core"
	"discs/internal/eval"
	"discs/internal/flowexport"
	"discs/internal/obs"
	"discs/internal/packet"
	"discs/internal/scenario/pulse"
	"discs/internal/topology"
)

// Obs metric names the engine publishes (under the unified registry,
// so they ride the existing export/differential machinery).
const (
	metricSent      = "scenario.sent"
	metricDelivered = "scenario.delivered"
	metricDropped   = "scenario.dropped"
	MetricPhases    = "scenario.phases"

	gaugeTTMDetectNS  = "scenario.ttm.detect_ns"
	gaugeTTMRecoverNS = "scenario.ttm.recover_ns"
	gaugeTTMTotalNS   = "scenario.ttm.total_ns"

	// evPhase is the trace event emitted at every phase boundary.
	evPhase = "scenario.phase"
)

// Options configures an engine run.
type Options struct {
	// Spec is the validated campaign (required). Run re-validates, so
	// hand-built specs cannot smuggle out-of-range fields past the
	// JSON path.
	Spec *Spec
	// Sys is the deployed system to drive (required).
	Sys *core.System
	// SeedOffset shifts the spec's RNG stream without editing the spec
	// — the -sweep hook: cell k runs with SeedOffset k.
	SeedOffset int64
}

// Engine drives a core.System through a Spec. One engine is one run;
// build a fresh engine to run again.
type Engine struct {
	spec   *Spec
	sys    *core.System
	rng    *rand.Rand
	topo   *topology.Topology
	samp   *attack.Sampler
	acc    *eval.Accumulator
	victim topology.ASN

	// mitigation bookkeeping
	firstAttackAt time.Duration
	invokedAt     time.Duration
	recoveredAt   time.Duration
	sawAttack     bool
	sawInvoke     bool
	recovered     bool

	dataset []flowexport.LabeledRecord

	// store holds the packets of every generation site for the whole
	// run, so a pulse allocates the same whatever its packet count.
	store packetStore
}

// PhaseResult is the recorded outcome of one phase.
type PhaseResult struct {
	Index int       `json:"index"`
	Name  string    `json:"name"`
	Kind  PhaseKind `json:"kind"`
	// Start and End are simulated-clock offsets.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`

	// Traffic tallies (traffic phases).
	Sent               int     `json:"sent,omitempty"`
	Delivered          int     `json:"delivered,omitempty"`
	Dropped            int     `json:"dropped,omitempty"`
	DropRate           float64 `json:"drop_rate,omitempty"`
	AmplifiedDelivered float64 `json:"amplified_delivered,omitempty"`
	// FalsePositives counts dropped benign packets (legit phases).
	FalsePositives int `json:"false_positives,omitempty"`

	// Adaptive attacker (adaptive phases).
	Rotations    int `json:"rotations,omitempty"`     // innocent re-draws (rotate)
	ProbesSent   int `json:"probes_sent,omitempty"`   // probe packets (probe)
	LiveAgents   int `json:"live_agents,omitempty"`   // agents with a surviving path after the last probe round
	IdleAgents   int `json:"idle_agents,omitempty"`   // agents benched by probing
	InvokedPeers int `json:"invoked_peers,omitempty"` // peers that accepted the invocation
	NewDeployed  int `json:"new_deployed,omitempty"`  // ASes added by this deploy phase

	// §VI incentive values at the deployment reached by this phase
	// (deploy phases re-run the paper's closed forms per adoption step).
	Deployed      int     `json:"deployed,omitempty"`
	DeployedRatio float64 `json:"deployed_ratio,omitempty"`
	IncDP         float64 `json:"inc_dp,omitempty"`
	IncCDP        float64 `json:"inc_cdp,omitempty"`
	IncBoth       float64 `json:"inc_both,omitempty"`
	Effectiveness float64 `json:"effectiveness,omitempty"`
}

// Mitigation is the first-class time-to-mitigation record: the
// simulated instants of the first attack packet, the victim's defense
// invocation, and the first post-invocation pulse whose drop rate
// reached the spec's recovery threshold — plus the derived delays.
type Mitigation struct {
	FirstAttackAt time.Duration `json:"first_attack_ns"`
	InvokedAt     time.Duration `json:"invoked_ns"`
	RecoveredAt   time.Duration `json:"recovered_ns"`
	// DetectDelay is invocation − first attack packet; RecoveryDelay is
	// recovery − invocation; Total is their sum.
	DetectDelay   time.Duration `json:"detect_delay_ns"`
	RecoveryDelay time.Duration `json:"recovery_delay_ns"`
	Total         time.Duration `json:"total_ns"`
	Invoked       bool          `json:"invoked"`
	Recovered     bool          `json:"recovered"`
}

// Result is a full engine run.
type Result struct {
	Scenario string        `json:"scenario"`
	Seed     int64         `json:"seed"`
	Victim   topology.ASN  `json:"victim"`
	Phases   []PhaseResult `json:"phases"`
	// TTM is present once the run contained attack traffic.
	TTM *Mitigation `json:"ttm,omitempty"`
	// Dataset holds the ground-truth-labeled flow records of the run.
	Dataset []flowexport.LabeledRecord `json:"-"`
}

// NewEngine validates the options and binds an engine to a system.
func NewEngine(o Options) (*Engine, error) {
	if o.Spec == nil {
		return nil, specErr(-1, "Spec", "required")
	}
	if o.Sys == nil {
		return nil, specErr(-1, "Sys", "required")
	}
	if err := o.Spec.Validate(); err != nil {
		return nil, err
	}
	topo := o.Sys.Net.Topo
	deployed := o.Sys.Deployed()
	victim := o.Spec.Victim
	if victim == 0 {
		if len(deployed) == 0 {
			return nil, specErr(-1, "Victim", "no DAS deployed and no explicit victim")
		}
		victim = deployed[len(deployed)-1]
	}
	if topo.AS(victim) == nil {
		return nil, specErr(-1, "Victim", fmt.Sprintf("AS%d not in the topology", victim))
	}
	for _, ph := range o.Spec.Phases {
		if ph.Kind == PhaseInvoke && o.Sys.Controllers[victim] == nil {
			return nil, specErr(-1, "Victim", fmt.Sprintf("AS%d has not deployed DISCS but the spec invokes defenses", victim))
		}
	}
	// The accumulator replays the existing deployment so the §VI closed
	// forms pick up exactly where the world is, not from zero.
	acc := eval.NewAccumulator(eval.FromTopology(topo))
	for _, asn := range deployed {
		if err := acc.Deploy(asn); err != nil {
			return nil, fmt.Errorf("scenario: replaying deployment: %w", err)
		}
	}
	return &Engine{
		spec:   o.Spec,
		sys:    o.Sys,
		rng:    rand.New(rand.NewSource(o.Spec.Seed + o.SeedOffset)),
		topo:   topo,
		samp:   attack.NewSampler(topo),
		acc:    acc,
		victim: victim,
	}, nil
}

// now returns the simulated clock as an offset.
func (e *Engine) now() time.Duration { return e.sys.Net.Sim.Now() }

// Run executes every phase in order and returns the recorded outcomes.
func (e *Engine) Run() (*Result, error) {
	reg := e.sys.Registry()
	res := &Result{Scenario: e.spec.Name, Seed: e.spec.Seed, Victim: e.victim}
	for i := range e.spec.Phases {
		ph := &e.spec.Phases[i]
		pr := PhaseResult{Index: i, Name: ph.Name, Kind: ph.Kind, Start: e.now()}
		reg.Tracer().Emit(obs.Event{
			Kind: evPhase, AS: uint32(e.victim), Serial: uint64(i),
			Detail: string(ph.Kind) + ":" + ph.Name,
		})
		var err error
		switch ph.Kind {
		case PhasePulse, PhaseCarpet, PhaseAdaptive:
			err = e.runAttackPhase(ph, &pr)
		case PhaseLegit:
			err = e.runLegit(ph, &pr)
		case PhaseInvoke:
			err = e.runInvoke(ph, &pr)
		case PhaseDeploy:
			err = e.runDeploy(ph, &pr)
		case PhaseQuiet:
			e.sys.Net.Sim.Run(e.now() + ph.Wait.D())
		default:
			err = specErr(i, "Kind", fmt.Sprintf("unknown kind %q", ph.Kind))
		}
		if err != nil {
			return nil, fmt.Errorf("scenario %q phase %d (%s): %w", e.spec.Name, i, ph.Name, err)
		}
		pr.End = e.now()
		if pr.Sent > 0 {
			pr.DropRate = float64(pr.Dropped) / float64(pr.Sent)
		}
		// Every phase reports the deployment state it ended with, so a
		// sweep's incentive curve is just the deploy-phase rows.
		pr.Deployed = e.acc.NumDeployed()
		pr.DeployedRatio = e.acc.DeployedRatio()
		res.Phases = append(res.Phases, pr)

		scope := fmt.Sprintf("scenario.phase%03d.", i)
		reg.Counter(scope + "sent").Add(uint64(pr.Sent))
		reg.Counter(scope + "delivered").Add(uint64(pr.Delivered))
		reg.Counter(scope + "dropped").Add(uint64(pr.Dropped))
		reg.Counter(metricSent).Add(uint64(pr.Sent))
		reg.Counter(metricDelivered).Add(uint64(pr.Delivered))
		reg.Counter(metricDropped).Add(uint64(pr.Dropped))
		reg.Counter(MetricPhases).Inc()
	}
	if e.sawAttack {
		ttm := &Mitigation{
			FirstAttackAt: e.firstAttackAt,
			InvokedAt:     e.invokedAt,
			RecoveredAt:   e.recoveredAt,
			Invoked:       e.sawInvoke,
			Recovered:     e.recovered,
		}
		if e.sawInvoke {
			ttm.DetectDelay = e.invokedAt - e.firstAttackAt
			reg.Gauge(gaugeTTMDetectNS).Set(int64(ttm.DetectDelay))
		}
		if e.recovered {
			ttm.RecoveryDelay = e.recoveredAt - e.invokedAt
			ttm.Total = e.recoveredAt - e.firstAttackAt
			reg.Gauge(gaugeTTMRecoverNS).Set(int64(ttm.RecoveryDelay))
			reg.Gauge(gaugeTTMTotalNS).Set(int64(ttm.Total))
		}
		res.TTM = ttm
	}
	res.Dataset = e.dataset
	return res, nil
}

// --- traffic phases --------------------------------------------------------

// flowState is one live attack flow inside a phase.
type flowState struct {
	flow  attack.Flow
	label flowexport.Label
	// carpet: the victim prefix this flow currently targets (invalid
	// Prefix for plain pulse flows) and its address index.
	target   netip.Prefix
	targetIx *topology.AddrIndex
	// probe strategy: benched agents sit out the pulse.
	benched bool
}

// runAttackPhase executes pulse, carpet and adaptive trains. The three
// share the same pulse loop; carpet re-aims each pulse across the
// victim's prefixes and adaptive lets the strategy mutate the flow set
// between pulses.
func (e *Engine) runAttackPhase(ph *Phase, pr *PhaseResult) error {
	flows, err := e.drawFlows(ph)
	if err != nil {
		return err
	}
	prefixes := e.victimPrefixes()
	if ph.Kind == PhaseCarpet && len(prefixes) == 0 {
		return fmt.Errorf("victim AS%d has no IPv4 prefixes to carpet", e.victim)
	}
	var targets []*topology.AddrIndex
	if ph.Kind == PhaseCarpet {
		targets = make([]*topology.AddrIndex, len(prefixes))
		for i, p := range prefixes {
			targets[i] = topology.NewAddrIndex(p)
		}
	}

	intraGap := time.Duration(0)
	if ph.SubWaves > 1 {
		intraGap = ph.Width.D() / time.Duration(ph.SubWaves)
	}
	agg := newDatasetAgg(e, ph, pr)
	for p := 0; p < ph.Pulses; p++ {
		if ph.Kind == PhaseCarpet {
			// Walk the prefix set: pulse p saturates prefix p mod n, so
			// the campaign sweeps the victim's whole advertised space.
			for i := range flows {
				flows[i].target = prefixes[p%len(prefixes)]
				flows[i].targetIx = targets[p%len(prefixes)]
			}
		}
		if ph.Kind == PhaseAdaptive {
			if err := e.adapt(ph, pr, flows, agg); err != nil {
				return err
			}
		}
		pulseSent, pulseDropped := 0, 0
		pkts, err := e.materialize(ph, flows)
		if err != nil {
			return err
		}
		bursts := e.store.train.Train(func(i int) topology.ASN { return flows[i].flow.Agent },
			pkts, 1, ph.SubWaves, intraGap, 0)
		e.markAttack()
		pulse.Run(e.sys, bursts, func(pk pulse.Packet, d core.DeliveryResult) {
			f := &flows[pk.Flow]
			pr.Sent++
			pulseSent++
			if d.Delivered {
				pr.Delivered++
				if f.flow.Kind == attack.SDDoS {
					pr.AmplifiedDelivered += attack.AmplificationFactor
				} else {
					pr.AmplifiedDelivered++
				}
			} else {
				pr.Dropped++
				pulseDropped++
			}
			agg.observe(pk.Flow, f, pk.Pkt, d)
		})
		// A pulse that met the recovery threshold after invocation marks
		// the victim mitigated — the third leg of time-to-mitigation.
		if e.sawInvoke && !e.recovered && pulseSent > 0 &&
			float64(pulseDropped)/float64(pulseSent) >= e.spec.RecoverThreshold {
			e.recovered = true
			e.recoveredAt = e.now()
		}
		if ph.Gap > 0 && p < ph.Pulses-1 {
			e.sys.Net.Sim.Run(e.now() + ph.Gap.D())
		}
	}
	agg.flush()
	return nil
}

// drawFlows samples the phase's flow set. Mixed vectors alternate
// d-DDoS and s-DDoS per flow index.
func (e *Engine) drawFlows(ph *Phase) ([]flowState, error) {
	flows := make([]flowState, ph.Flows)
	for i := range flows {
		kind := attack.DDDoS
		label := flowexport.LabelDDoS
		if ph.Vector == VectorSDDoS || (ph.Vector == VectorMixed && i%2 == 1) {
			kind = attack.SDDoS
			label = flowexport.LabelSDDoS
		}
		f := e.samp.DrawFlowForVictim(kind, e.victim, e.rng)
		if f.Agent == 0 {
			return nil, fmt.Errorf("flow sampling failed (empty topology?)")
		}
		flows[i] = flowState{flow: f, label: label}
	}
	return flows, nil
}

// victimPrefixes returns the victim's IPv4 prefixes.
func (e *Engine) victimPrefixes() []netip.Prefix {
	var out []netip.Prefix
	if a := e.topo.AS(e.victim); a != nil {
		for _, p := range a.Prefixes {
			if p.Addr().Is4() {
				out = append(out, p)
			}
		}
	}
	return out
}

// materialize draws this pulse's packets for every flow into the
// engine's store: PerFlow packets per flow, with benched flows
// contributing none. Carpet flows aim at their current target prefix
// instead of a random victim address. The rows are valid until the
// next generation.
func (e *Engine) materialize(ph *Phase, flows []flowState) ([][]*packet.IPv4, error) {
	n := 0
	for _, f := range flows {
		if !f.benched {
			n += ph.PerFlow
		}
	}
	st := &e.store
	st.reserve(n)
	if cap(st.rows) < len(flows) {
		st.rows = make([][]*packet.IPv4, len(flows))
	}
	rows := st.rows[:len(flows)]
	off := 0
	for i, f := range flows {
		rows[i] = nil
		if f.benched {
			continue
		}
		end := off + ph.PerFlow
		if err := f.flow.Fill(e.topo, f.targetIx, st.slab[off:end], st.payloads[off*attack.PayloadLen:end*attack.PayloadLen], e.rng); err != nil {
			return nil, err
		}
		rows[i] = st.ptrs[off:end:end]
		off = end
	}
	return rows, nil
}

// packetStore is an engine's packet storage, kept for the whole run:
// the packet structs and their payload arena that every generation
// site fills, pointers to each slot, the per-flow pointer rows of a
// pulse, and the trainer that lays a pulse's bursts out. It grows to
// the largest pulse and is then reused, so generating and sending
// allocate nothing per packet.
type packetStore struct {
	slab     []packet.IPv4
	payloads []byte
	ptrs     []*packet.IPv4 // ptrs[k] = &slab[k]
	rows     [][]*packet.IPv4
	train    pulse.Trainer
}

// reserve makes room for n packets. Growing drops what the store held.
func (st *packetStore) reserve(n int) {
	if len(st.slab) >= n {
		return
	}
	st.slab = make([]packet.IPv4, n)
	st.payloads = make([]byte, n*attack.PayloadLen)
	st.ptrs = make([]*packet.IPv4, n)
	for k := range st.slab {
		st.ptrs[k] = &st.slab[k]
	}
}

// fill draws n packets of flow f into the engine's store and returns
// them; they are valid until the next generation.
func (e *Engine) fill(f attack.Flow, n int) ([]packet.IPv4, error) {
	st := &e.store
	st.reserve(n)
	pkts := st.slab[:n]
	return pkts, f.Fill(e.topo, nil, pkts, st.payloads[:n*attack.PayloadLen], e.rng)
}

// markAttack stamps the first-attack-packet instant.
func (e *Engine) markAttack() {
	if !e.sawAttack {
		e.sawAttack = true
		e.firstAttackAt = e.now()
	}
}

// --- legit -----------------------------------------------------------------

// runLegit sends genuine traffic from every deployed AS (minus the
// victim) toward the victim; drops are false positives. Flows > 0
// caps how many peers send.
func (e *Engine) runLegit(ph *Phase, pr *PhaseResult) error {
	agents := make([]topology.ASN, 0)
	for _, asn := range e.sys.Deployed() {
		if asn != e.victim {
			agents = append(agents, asn)
		}
	}
	if ph.Flows > 0 && ph.Flows < len(agents) {
		agents = agents[:ph.Flows]
	}
	agg := newDatasetAgg(e, ph, pr)
	for i, asn := range agents {
		fs := flowState{flow: attack.Flow{Kind: attack.DDDoS, Agent: asn, Innocent: asn, Victim: e.victim}, label: flowexport.LabelBenign}
		pkts, err := e.fill(fs.flow, ph.PerFlow)
		if err != nil {
			// An AS without IPv4 space simply cannot send; skip it.
			continue
		}
		for k := range pkts {
			p := &pkts[k]
			d := e.sys.SendV4(asn, p)
			pr.Sent++
			if d.Delivered {
				pr.Delivered++
			} else {
				pr.Dropped++
				pr.FalsePositives++
			}
			agg.observe(i, &fs, p, d)
		}
	}
	agg.flush()
	return nil
}

// --- invoke ----------------------------------------------------------------

// runInvoke has the victim invoke the phase's functions at its peers,
// settles the control plane, and advances past the §IV-E grace window
// so strict verification is active for the next phase.
func (e *Engine) runInvoke(ph *Phase, pr *PhaseResult) error {
	vc := e.sys.Controllers[e.victim]
	if vc == nil {
		return fmt.Errorf("victim AS%d has no controller", e.victim)
	}
	var invs []core.Invocation
	for _, name := range ph.Functions {
		fn, err := core.ParseFunction(strings.ToUpper(name))
		if err != nil {
			return err
		}
		invs = append(invs, core.Invocation{
			Prefixes: vc.OwnPrefixes(), Function: fn, Duration: ph.Duration.D(),
		})
	}
	if !e.sawInvoke {
		e.sawInvoke = true
		e.invokedAt = e.now()
	}
	n, err := vc.Invoke(invs...)
	if err != nil {
		return err
	}
	pr.InvokedPeers = n
	if err := e.sys.Settle(); err != nil {
		return err
	}
	e.sys.Net.Sim.After(core.DefaultGrace+time.Second, func() {})
	return e.sys.Settle()
}

// --- deploy ----------------------------------------------------------------

// runDeploy grows the DAS set by Count ASes — "size" picks the largest
// undeployed ASes (the paper's largest-first adoption), "random"
// samples adoption uniformly — then records the §VI closed forms at
// the new deployment ratio.
func (e *Engine) runDeploy(ph *Phase, pr *PhaseResult) error {
	deployed := make(map[topology.ASN]bool)
	for _, asn := range e.sys.Deployed() {
		deployed[asn] = true
	}
	var candidates []topology.ASN
	for _, asn := range e.topo.BySizeDesc() {
		if !deployed[asn] {
			candidates = append(candidates, asn)
		}
	}
	if ph.Order == "random" {
		e.rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
	}
	n := ph.Count
	if n > len(candidates) {
		n = len(candidates)
	}
	for k := 0; k < n; k++ {
		asn := candidates[k]
		// Deploy seeds continue the ledger numbering, so a scenario
		// adoption step is indistinguishable from a pre-scenario Deploy.
		if _, err := e.sys.Deploy(asn, int64(len(e.sys.Deployed())+1)); err != nil {
			return err
		}
		if err := e.acc.Deploy(asn); err != nil {
			return err
		}
		pr.NewDeployed++
	}
	if err := e.sys.Settle(); err != nil {
		return err
	}
	// Let peering, key negotiation and the grace window complete so the
	// new DASes actually filter before the next pulse.
	e.sys.Net.Sim.After(core.DefaultGrace+time.Second, func() {})
	if err := e.sys.Settle(); err != nil {
		return err
	}
	pr.IncDP = e.acc.IncDP()
	pr.IncCDP = e.acc.IncCDP()
	pr.IncBoth = e.acc.IncBoth()
	pr.Effectiveness = e.acc.Effectiveness()
	return nil
}

// --- dataset aggregation ---------------------------------------------------

// datasetAgg folds every observed packet into one labeled flow record
// per (flow, target, phase) — the export granularity of the dataset.
// The target dimension matters for carpet phases, where one flow is
// re-aimed at a different victim prefix every pulse and each aim is a
// distinct record.
type datasetAgg struct {
	e    *Engine
	ph   *Phase
	pr   *PhaseResult
	recs map[aggKey]*flowexport.LabeledRecord
	keys []aggKey

	// last is the record of the previous packet: a flow's packets
	// arrive one after another, so most packets skip the map.
	lastKey aggKey
	last    *flowexport.LabeledRecord
}

type aggKey struct {
	flow   int
	target netip.Prefix
}

func newDatasetAgg(e *Engine, ph *Phase, pr *PhaseResult) *datasetAgg {
	return &datasetAgg{e: e, ph: ph, pr: pr, recs: make(map[aggKey]*flowexport.LabeledRecord)}
}

// observe records one packet's ground truth under its flow index.
func (a *datasetAgg) observe(flowIdx int, f *flowState, p *packet.IPv4, d core.DeliveryResult) {
	key := aggKey{flow: flowIdx, target: f.target}
	now := flowexport.SimTime(a.e.now())
	r := a.last
	if r == nil || key != a.lastKey {
		r = a.record(key, f, p, now)
		a.lastKey, a.last = key, r
	}
	r.Packets++
	r.Bytes += uint64(p.TotalLen())
	r.Last = now
	if d.Delivered {
		r.Delivered++
	} else {
		r.Dropped++
	}
}

// record returns key's record, opening it at p's addresses when the
// key is new.
func (a *datasetAgg) record(key aggKey, f *flowState, p *packet.IPv4, now time.Time) *flowexport.LabeledRecord {
	if r, ok := a.recs[key]; ok {
		return r
	}
	srcAS := f.flow.Innocent
	if f.flow.Kind == attack.SDDoS {
		srcAS = f.flow.Victim
	}
	if f.label == flowexport.LabelBenign {
		srcAS = f.flow.Agent
	}
	r := &flowexport.LabeledRecord{
		Record: flowexport.Record{
			Key: flowexport.Key{
				Src: p.Src, Dst: p.Dst, Proto: p.Protocol, SrcAS: srcAS,
			},
			First: now,
		},
		Scenario: a.e.spec.Name,
		Phase:    a.ph.Name,
		PhaseIdx: uint16(a.pr.Index),
		Label:    f.label,
	}
	a.recs[key] = r
	a.keys = append(a.keys, key)
	return r
}

// flush appends the phase's records to the run dataset in flow order.
func (a *datasetAgg) flush() {
	for _, k := range a.keys {
		a.e.dataset = append(a.e.dataset, *a.recs[k])
	}
}
