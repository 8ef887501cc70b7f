package scenario

import (
	"errors"
	"testing"
	"time"
)

func TestDurationJSONForms(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{`"250ms"`, 250 * time.Millisecond},
		{`"1h30m"`, 90 * time.Minute},
		{`100`, 100 * time.Millisecond},
		{`0.5`, 500 * time.Microsecond},
	} {
		var d Duration
		if err := d.UnmarshalJSON([]byte(tc.in)); err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if d.D() != tc.want {
			t.Errorf("%s: got %v want %v", tc.in, d.D(), tc.want)
		}
	}
	for _, bad := range []string{`"-5s"`, `-1`, `"not a duration"`, `1e999`, `"9000000h"`, `{}`} {
		var d Duration
		if err := d.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
}

func TestParseRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	if _, err := Parse([]byte(`{"version":1,"name":"x","phases":[{"kind":"pulse","pulse_width":"1s"}]}`)); err == nil {
		t.Fatal("unknown phase field accepted")
	}
	if _, err := Parse([]byte(`{"version":1,"name":"x","phases":[{"kind":"quiet","wait":"1s"}]} {"more":1}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
}

func TestValidateTypedErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  Spec
		phase int
		field string
	}{
		{"version", Spec{Version: 2, Name: "x", Phases: []Phase{{Kind: PhaseQuiet, Wait: 1}}}, -1, "Version"},
		{"name", Spec{Version: 1, Phases: []Phase{{Kind: PhaseQuiet, Wait: 1}}}, -1, "Name"},
		{"no phases", Spec{Version: 1, Name: "x"}, -1, "Phases"},
		{"bad kind", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: "tsunami"}}}, 0, "Kind"},
		{"bad vector", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhasePulse, Vector: "zz"}}}, 0, "Vector"},
		{"carpet sddos", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhaseCarpet, Vector: VectorSDDoS}}}, 0, "Vector"},
		{"neg flows", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhasePulse, Flows: -1}}}, 0, "Flows"},
		{"huge pulses", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhasePulse, Pulses: maxPulses + 1}}}, 0, "Pulses"},
		{"subwaves no width", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhasePulse, SubWaves: 4}}}, 0, "Width"},
		{"neg width", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhasePulse, Width: -1}}}, 0, "Width"},
		{"strategy on pulse", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhasePulse, Strategy: StrategyRotate}}}, 0, "Strategy"},
		{"adaptive no strategy", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhaseAdaptive}}}, 0, "Strategy"},
		{"bad strategy", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhaseAdaptive, Strategy: "pray"}}}, 0, "Strategy"},
		{"bad function", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhaseInvoke, Functions: []string{"RST"}}}}, 0, "Functions"},
		{"functions on quiet", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhaseQuiet, Wait: 1, Functions: []string{"DP"}}}}, 0, "Functions"},
		{"bad order", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhaseDeploy, Order: "alphabetical"}}}, 0, "Order"},
		{"quiet no wait", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhaseQuiet}}}, 0, "Wait"},
		{"flows on invoke", Spec{Version: 1, Name: "x", Phases: []Phase{{Kind: PhaseInvoke, Flows: 3}}}, 0, "Flows"},
		{"threshold", Spec{Version: 1, Name: "x", RecoverThreshold: 1.5, Phases: []Phase{{Kind: PhaseQuiet, Wait: 1}}}, -1, "RecoverThreshold"},
	} {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var se *specError
		if !errors.As(err, &se) {
			t.Errorf("%s: not a *specError: %v", tc.name, err)
			continue
		}
		if se.Phase != tc.phase {
			t.Errorf("%s: phase %d, want %d (%v)", tc.name, se.Phase, tc.phase, err)
		}
		if se.Field != tc.field {
			t.Errorf("%s: field %s, want %s", tc.name, se.Field, tc.field)
		}
	}
}

func TestValidateFillsDefaults(t *testing.T) {
	s := Spec{Version: 1, Name: "d", Phases: []Phase{
		{Kind: PhasePulse},
		{Kind: PhaseInvoke},
		{Kind: PhaseDeploy},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	p := s.Phases[0]
	if p.Flows != 40 || p.PerFlow != 8 || p.Pulses != 1 || p.SubWaves != 1 || p.Vector != VectorDDoS {
		t.Errorf("pulse defaults: %+v", p)
	}
	if p.Name != "pulse-0" {
		t.Errorf("default name: %q", p.Name)
	}
	if inv := s.Phases[1]; len(inv.Functions) != 4 || inv.Duration.D() != 24*time.Hour {
		t.Errorf("invoke defaults: %+v", inv)
	}
	if d := s.Phases[2]; d.Count != 1 || d.Order != "size" {
		t.Errorf("deploy defaults: %+v", d)
	}
	if s.RecoverThreshold != 0.5 {
		t.Errorf("threshold default: %v", s.RecoverThreshold)
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	b := New("campaign", 7).victim(42)
	b.spec.RecoverThreshold = 0.8
	spec, err := b.
		Pulse("pre", 20, 10, 4, 100*time.Millisecond).
		Invoke("defend", "DP", "CDP").
		Adaptive("rotate", StrategyRotate, 20, 10, 3, 50*time.Millisecond).
		Carpet("carpet", 10, 5, 6, 10*time.Millisecond).
		Deploy("adopt", 5, "random").
		Legit("sanity", 10).
		Quiet("cooldown", time.Second).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Phases) != 7 {
		t.Fatalf("phases: %d", len(spec.Phases))
	}
	raw, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(raw)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, raw)
	}
	if back.Name != "campaign" || back.Seed != 7 || back.Victim != 42 || back.RecoverThreshold != 0.8 {
		t.Errorf("header lost: %+v", back)
	}
	if back.Phases[2].Strategy != StrategyRotate || back.Phases[4].Order != "random" {
		t.Errorf("phase fields lost")
	}
}

func TestParseDocumentTooLarge(t *testing.T) {
	b := make([]byte, maxSpecBytes+1)
	var se *specError
	if _, err := Parse(b); !errors.As(err, &se) {
		t.Fatalf("oversized doc: %v", err)
	}
}
