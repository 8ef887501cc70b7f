package scenario

import (
	"testing"
	"time"
)

// FuzzScenarioConfig: the spec parser must be total — hostile lengths,
// unknown phase kinds, NaN/negative durations and malformed JSON must
// error, never panic — and every accepted spec must re-validate and
// round-trip through its canonical Marshal form.
func FuzzScenarioConfig(f *testing.F) {
	if seed, err := New("seed", 1).victim(3).
		Pulse("pre", 4, 2, 2, time.Millisecond).
		Invoke("defend", "DP").
		Quiet("cool", time.Second).
		Build(); err == nil {
		if b, err := seed.Marshal(); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{"version":1,"name":"x","phases":[{"kind":"pulse","width":"10ms","sub_waves":4}]}`))
	f.Add([]byte(`{"version":1,"name":"x","phases":[{"kind":"tsunami"}]}`))
	f.Add([]byte(`{"version":1,"name":"x","phases":[{"kind":"pulse","gap":-1}]}`))
	f.Add([]byte(`{"version":1,"name":"x","phases":[{"kind":"quiet","wait":1e308}]}`))
	f.Add([]byte(`{"version":1,"name":"x","recover_threshold":"NaN"}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// Parse validated (and normalized) the spec; it must stay valid.
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails re-validation: %v", err)
		}
		out, err := s.Marshal()
		if err != nil {
			t.Fatalf("accepted spec fails to marshal: %v", err)
		}
		if _, err := Parse(out); err != nil {
			t.Fatalf("canonical form fails to re-parse: %v\n%s", err, out)
		}
	})
}
