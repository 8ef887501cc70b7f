// Package scenario is the declarative attack-scenario engine of the
// DISCS reproduction: a versioned JSON (or Go-builder) spec describes
// a phased campaign — pulse-wave burst trains, carpet-bombing across a
// victim's prefix set, multi-vector d-DDoS/s-DDoS mixes, adaptive
// attacker strategies that react to deployment state, incremental DAS
// adoption steps and quiet gaps — and the engine (engine.go) drives an
// existing core.System through it deterministically, recording
// per-phase outcomes into internal/obs, first-class time-to-mitigation,
// the §VI incentive curves at every adoption step (internal/eval), and
// a ground-truth-labeled flow-record dataset (internal/flowexport).
//
// See DESIGN.md §16 for the model and examples/scenario for a curated
// spec library.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"discs/internal/topology"
)

// version is the spec schema version this package reads and writes.
const version = 1

// Limits keep hostile specs from turning the engine into a memory or
// CPU bomb: Parse and Validate reject anything beyond them. They are
// generous for real experiments (a maxed-out spec is ~10^9 packets —
// minutes of wall clock, not an OOM).
const (
	maxPhases   = 256
	maxFlows    = 1 << 20
	maxPerFlow  = 1 << 20
	maxPulses   = 1 << 16
	maxSubWaves = 1 << 12
	// maxDuration bounds every duration field (gaps, widths, waits,
	// invocation lifetimes): one simulated year.
	maxDuration = Duration(365 * 24 * time.Hour)
	// maxSpecBytes bounds the JSON document itself.
	maxSpecBytes = 1 << 20
)

// Duration is a time.Duration that marshals as a Go duration string
// ("250ms") and additionally accepts a bare JSON number of
// milliseconds. Negative, NaN, infinite and overflowing values are
// rejected at parse time so Validate can assume well-formed fields.
type Duration time.Duration

// D returns the native duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON writes the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "1s"/"250ms" strings or numbers (milliseconds).
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		if v < 0 || v > time.Duration(maxDuration) {
			return fmt.Errorf("scenario: duration %q out of range [0, %v]", s, maxDuration)
		}
		*d = Duration(v)
		return nil
	}
	var ms float64
	if err := json.Unmarshal(b, &ms); err != nil {
		return err
	}
	if math.IsNaN(ms) || math.IsInf(ms, 0) || ms < 0 || ms > float64(time.Duration(maxDuration)/time.Millisecond) {
		return fmt.Errorf("scenario: duration %v ms out of range", ms)
	}
	*d = Duration(time.Duration(ms * float64(time.Millisecond)))
	return nil
}

// PhaseKind names what a phase does.
type PhaseKind string

const (
	// PhasePulse injects a pulse-wave burst train of spoofing flows:
	// Pulses bursts of Flows×PerFlow packets, each pulse spread over
	// Width in SubWaves injections, pulses separated by Gap.
	PhasePulse PhaseKind = "pulse"
	// PhaseCarpet carpet-bombs the victim's prefix set: pulse p targets
	// prefix p mod len(prefixes), so the attack walks the whole
	// advertised space instead of concentrating on one subnet.
	PhaseCarpet PhaseKind = "carpet"
	// PhaseAdaptive runs an adaptive attacker: each pulse the strategy
	// reacts to the deployment state and the previous pulse's outcome
	// (see Strategy).
	PhaseAdaptive PhaseKind = "adaptive"
	// PhaseLegit sends genuine traffic from deployed peers toward the
	// victim; drops are false positives.
	PhaseLegit PhaseKind = "legit"
	// PhaseInvoke has the victim's controller invoke defense functions
	// at its peers and waits for deployment plus the §IV-E grace window.
	PhaseInvoke PhaseKind = "invoke"
	// PhaseDeploy grows the DAS set by Count ASes (incremental
	// adoption); the outcome records the §VI incentive and
	// effectiveness values at the new deployment ratio.
	PhaseDeploy PhaseKind = "deploy"
	// PhaseQuiet advances the simulated clock by Wait.
	PhaseQuiet PhaseKind = "quiet"
)

// Vector selects the spoofing family of a traffic phase.
const (
	VectorDDoS  = "ddos"  // direct: spoofed (innocent) sources at the victim
	VectorSDDoS = "sddos" // reflective: victim's source at innocent reflectors
	VectorMixed = "mixed" // alternating d-DDoS / s-DDoS flows
)

// Adaptive strategies.
const (
	// StrategyRotate re-draws every flow's spoofed source (innocent) AS
	// each pulse, avoiding ASes that have deployed DISCS — the attacker
	// rotates spoofed sources as stamping keys deploy.
	StrategyRotate = "rotate"
	// StrategyProbe sends Probes probe packets per agent before each
	// pulse and fires the pulse only from agents whose probes got
	// through — the attacker hunts for transit paths that evade DAS
	// filtering.
	StrategyProbe = "probe"
)

// Phase is one step of a campaign. Fields apply per Kind; Validate
// rejects fields set on phases that cannot honor them.
type Phase struct {
	Name string    `json:"name,omitempty"`
	Kind PhaseKind `json:"kind"`

	// Traffic shape (pulse, carpet, adaptive, legit).
	Vector   string   `json:"vector,omitempty"`    // ddos (default) | sddos | mixed
	Flows    int      `json:"flows,omitempty"`     // concurrent flows (default 40; legit: one per peer)
	PerFlow  int      `json:"per_flow,omitempty"`  // packets per flow in each pulse (default 8)
	Pulses   int      `json:"pulses,omitempty"`    // bursts in the train (default 1)
	SubWaves int      `json:"sub_waves,omitempty"` // injections per pulse (default 1)
	Width    Duration `json:"width,omitempty"`     // pulse width, spread across SubWaves
	Gap      Duration `json:"gap,omitempty"`       // inter-pulse gap

	// Adaptive attacker.
	Strategy string `json:"strategy,omitempty"` // rotate | probe
	Probes   int    `json:"probes,omitempty"`   // probe packets per agent (probe; default 1)

	// Invocation (invoke).
	Functions []string `json:"functions,omitempty"` // DP/CDP/SP/CSP; empty = all four
	Duration  Duration `json:"duration,omitempty"`  // campaign lifetime (default 24h)

	// Adoption (deploy).
	Count int    `json:"count,omitempty"` // ASes to add (default 1)
	Order string `json:"order,omitempty"` // size (default) | random

	// Quiet.
	Wait Duration `json:"wait,omitempty"`
}

// Spec is a complete campaign description.
type Spec struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Seed drives the scenario's own RNG stream (flow sampling, random
	// adoption order); it is independent of the world's seeds so the
	// same spec replays exactly on any compatible system.
	Seed int64 `json:"seed"`
	// Victim selects the attacked AS; 0 means the last-deployed DAS
	// (the smallest deployer under the usual largest-first order).
	Victim topology.ASN `json:"victim,omitempty"`
	// RecoverThreshold is the pulse drop rate at which the victim
	// counts as recovered for time-to-mitigation (default 0.5).
	RecoverThreshold float64 `json:"recover_threshold,omitempty"`
	Phases           []Phase `json:"phases"`
}

// specError is the typed validation failure for scenario specs: it
// names the offending phase and field, which the tests branch on.
type specError struct {
	Phase  int    // phase index, -1 for spec-level fields
	Field  string // offending field, e.g. "Pulses"
	Reason string // what is wrong, e.g. "must be >= 1"
}

func (e *specError) Error() string {
	if e.Phase < 0 {
		return fmt.Sprintf("scenario: Spec.%s: %s", e.Field, e.Reason)
	}
	return fmt.Sprintf("scenario: phase %d: %s: %s", e.Phase, e.Field, e.Reason)
}

func specErr(phase int, field, reason string) *specError {
	return &specError{Phase: phase, Field: field, Reason: reason}
}

// Parse decodes and validates a JSON spec. Unknown fields are
// rejected, so a typo fails loudly instead of silently running a
// different scenario.
func Parse(b []byte) (*Spec, error) {
	if len(b) > maxSpecBytes {
		return nil, specErr(-1, "(document)", fmt.Sprintf("%d bytes exceed the %d-byte limit", len(b), maxSpecBytes))
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// A second document after the spec is a malformed file, not data.
	if dec.More() {
		return nil, specErr(-1, "(document)", "trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validVectors and validOrders gate the free-string enums.
var (
	validVectors    = map[string]bool{VectorDDoS: true, VectorSDDoS: true, VectorMixed: true}
	validStrategies = map[string]bool{StrategyRotate: true, StrategyProbe: true}
	validOrders     = map[string]bool{"size": true, "random": true}
	validFunctions  = map[string]bool{"DP": true, "CDP": true, "SP": true, "CSP": true}
)

// trafficKind reports whether k injects attack or legit traffic.
func trafficKind(k PhaseKind) bool {
	switch k {
	case PhasePulse, PhaseCarpet, PhaseAdaptive, PhaseLegit:
		return true
	}
	return false
}

// Validate checks the spec and fills defaults in place (it is the
// normalization step: a validated spec has every applicable field
// populated, so the engine never branches on zero values).
func (s *Spec) Validate() error {
	if s.Version != version {
		return specErr(-1, "Version", fmt.Sprintf("unsupported version %d (want %d)", s.Version, version))
	}
	if s.Name == "" {
		return specErr(-1, "Name", "required")
	}
	if len(s.Name) > 128 {
		return specErr(-1, "Name", "longer than 128 bytes")
	}
	if math.IsNaN(s.RecoverThreshold) || math.IsInf(s.RecoverThreshold, 0) ||
		s.RecoverThreshold < 0 || s.RecoverThreshold > 1 {
		return specErr(-1, "RecoverThreshold", "must be in [0, 1]")
	}
	if s.RecoverThreshold == 0 {
		s.RecoverThreshold = 0.5
	}
	if len(s.Phases) == 0 {
		return specErr(-1, "Phases", "required")
	}
	if len(s.Phases) > maxPhases {
		return specErr(-1, "Phases", fmt.Sprintf("%d phases exceed the %d limit", len(s.Phases), maxPhases))
	}
	for i := range s.Phases {
		if err := s.Phases[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

// validate checks one phase and fills its defaults.
func (p *Phase) validate(i int) error {
	if len(p.Name) > 128 {
		return specErr(i, "Name", "longer than 128 bytes")
	}
	if p.Name == "" {
		p.Name = fmt.Sprintf("%s-%d", p.Kind, i)
	}
	switch p.Kind {
	case PhasePulse, PhaseCarpet, PhaseAdaptive, PhaseLegit, PhaseInvoke, PhaseDeploy, PhaseQuiet:
	case "":
		return specErr(i, "Kind", "required")
	default:
		return specErr(i, "Kind", fmt.Sprintf("unknown kind %q", p.Kind))
	}

	// Durations arrive range-checked from Duration.UnmarshalJSON, but a
	// Go-built spec bypasses that path — re-check here.
	for _, d := range []struct {
		name string
		v    Duration
	}{{"Width", p.Width}, {"Gap", p.Gap}, {"Duration", p.Duration}, {"Wait", p.Wait}} {
		if d.v < 0 || d.v > maxDuration {
			return specErr(i, d.name, fmt.Sprintf("out of range [0, %v]", maxDuration))
		}
	}

	if trafficKind(p.Kind) {
		if p.Vector == "" {
			p.Vector = VectorDDoS
		}
		if !validVectors[p.Vector] {
			return specErr(i, "Vector", fmt.Sprintf("unknown vector %q", p.Vector))
		}
		if p.Kind == PhaseCarpet && p.Vector != VectorDDoS {
			return specErr(i, "Vector", "carpet bombing is a direct-path shape; only \"ddos\" is meaningful")
		}
		if p.Kind == PhaseLegit && p.Vector != VectorDDoS {
			return specErr(i, "Vector", "legit traffic has no spoofing vector; leave it unset")
		}
		if p.Flows < 0 || p.Flows > maxFlows {
			return specErr(i, "Flows", fmt.Sprintf("out of range [0, %d]", maxFlows))
		}
		if p.Flows == 0 && p.Kind != PhaseLegit {
			p.Flows = 40
		}
		if p.PerFlow < 0 || p.PerFlow > maxPerFlow {
			return specErr(i, "PerFlow", fmt.Sprintf("out of range [0, %d]", maxPerFlow))
		}
		if p.PerFlow == 0 {
			p.PerFlow = 8
		}
		if p.Pulses < 0 || p.Pulses > maxPulses {
			return specErr(i, "Pulses", fmt.Sprintf("out of range [0, %d]", maxPulses))
		}
		if p.Pulses == 0 {
			p.Pulses = 1
		}
		if p.SubWaves < 0 || p.SubWaves > maxSubWaves {
			return specErr(i, "SubWaves", fmt.Sprintf("out of range [0, %d]", maxSubWaves))
		}
		if p.SubWaves == 0 {
			p.SubWaves = 1
		}
		if p.SubWaves > 1 && p.Width == 0 {
			return specErr(i, "Width", "required when SubWaves > 1")
		}
	} else {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"Vector", p.Vector != ""}, {"Flows", p.Flows != 0}, {"PerFlow", p.PerFlow != 0},
			{"Pulses", p.Pulses != 0}, {"SubWaves", p.SubWaves != 0},
			{"Width", p.Width != 0}, {"Gap", p.Gap != 0},
		} {
			if f.set {
				return specErr(i, f.name, fmt.Sprintf("not applicable to kind %q", p.Kind))
			}
		}
	}

	if p.Kind == PhaseAdaptive {
		if p.Strategy == "" {
			return specErr(i, "Strategy", "required for adaptive phases")
		}
		if !validStrategies[p.Strategy] {
			return specErr(i, "Strategy", fmt.Sprintf("unknown strategy %q", p.Strategy))
		}
		if p.Probes < 0 || p.Probes > maxPerFlow {
			return specErr(i, "Probes", fmt.Sprintf("out of range [0, %d]", maxPerFlow))
		}
		if p.Probes == 0 {
			p.Probes = 1
		}
	} else if p.Strategy != "" || p.Probes != 0 {
		return specErr(i, "Strategy", fmt.Sprintf("not applicable to kind %q", p.Kind))
	}

	if p.Kind == PhaseInvoke {
		if len(p.Functions) == 0 {
			p.Functions = []string{"DP", "CDP", "SP", "CSP"}
		}
		for _, f := range p.Functions {
			if !validFunctions[strings.ToUpper(f)] {
				return specErr(i, "Functions", fmt.Sprintf("unknown function %q", f))
			}
		}
		if p.Duration == 0 {
			p.Duration = Duration(24 * time.Hour)
		}
	} else if len(p.Functions) != 0 || p.Duration != 0 {
		return specErr(i, "Functions", fmt.Sprintf("not applicable to kind %q", p.Kind))
	}

	if p.Kind == PhaseDeploy {
		if p.Count < 0 || p.Count > maxFlows {
			return specErr(i, "Count", fmt.Sprintf("out of range [0, %d]", maxFlows))
		}
		if p.Count == 0 {
			p.Count = 1
		}
		if p.Order == "" {
			p.Order = "size"
		}
		if !validOrders[p.Order] {
			return specErr(i, "Order", fmt.Sprintf("unknown order %q", p.Order))
		}
	} else if p.Count != 0 || p.Order != "" {
		return specErr(i, "Count", fmt.Sprintf("not applicable to kind %q", p.Kind))
	}

	if p.Kind == PhaseQuiet {
		if p.Wait == 0 {
			return specErr(i, "Wait", "required for quiet phases")
		}
	} else if p.Wait != 0 {
		return specErr(i, "Wait", fmt.Sprintf("not applicable to kind %q", p.Kind))
	}
	return nil
}

// Marshal writes the spec as indented JSON, the canonical on-disk
// form of the examples/scenario library.
func (s *Spec) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// --- builder ---------------------------------------------------------------

// Builder assembles a Spec in Go. Each method appends one phase;
// Build validates (and normalizes) the result. The zero-valued fields
// of the Phase argument take the same defaults as JSON specs.
type Builder struct {
	spec Spec
}

// New starts a builder for a named campaign.
func New(name string, seed int64) *Builder {
	return &Builder{spec: Spec{Version: version, Name: name, Seed: seed}}
}

// phase appends a fully-specified phase.
func (b *Builder) phase(p Phase) *Builder {
	b.spec.Phases = append(b.spec.Phases, p)
	return b
}

// Pulse appends a pulse-wave train: pulses bursts, each of
// flows×perFlow packets, separated by gap.
func (b *Builder) Pulse(name string, flows, perFlow, pulses int, gap time.Duration) *Builder {
	return b.phase(Phase{Name: name, Kind: PhasePulse,
		Flows: flows, PerFlow: perFlow, Pulses: pulses, Gap: Duration(gap)})
}

// Carpet appends a carpet-bombing train across the victim's prefixes.
func (b *Builder) Carpet(name string, flows, perFlow, pulses int, gap time.Duration) *Builder {
	return b.phase(Phase{Name: name, Kind: PhaseCarpet,
		Flows: flows, PerFlow: perFlow, Pulses: pulses, Gap: Duration(gap)})
}

// Adaptive appends an adaptive-attacker train with the given strategy.
func (b *Builder) Adaptive(name, strategy string, flows, perFlow, pulses int, gap time.Duration) *Builder {
	return b.phase(Phase{Name: name, Kind: PhaseAdaptive, Strategy: strategy,
		Flows: flows, PerFlow: perFlow, Pulses: pulses, Gap: Duration(gap)})
}

// Legit appends a benign-traffic phase from the deployed peers.
func (b *Builder) Legit(name string, perFlow int) *Builder {
	return b.phase(Phase{Name: name, Kind: PhaseLegit, PerFlow: perFlow})
}

// Invoke appends a defense invocation by the victim (functions empty =
// all four).
func (b *Builder) Invoke(name string, functions ...string) *Builder {
	return b.phase(Phase{Name: name, Kind: PhaseInvoke, Functions: functions})
}

// Deploy appends an adoption step of count ASes in the given order
// ("size" or "random").
func (b *Builder) Deploy(name string, count int, order string) *Builder {
	return b.phase(Phase{Name: name, Kind: PhaseDeploy, Count: count, Order: order})
}

// Quiet appends a clock advance.
func (b *Builder) Quiet(name string, wait time.Duration) *Builder {
	return b.phase(Phase{Name: name, Kind: PhaseQuiet, Wait: Duration(wait)})
}

// Build validates and returns the spec.
func (b *Builder) Build() (*Spec, error) {
	s := b.spec
	s.Phases = append([]Phase(nil), b.spec.Phases...)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
