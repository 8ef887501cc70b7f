package service_test

import (
	"encoding/json"
	"testing"

	"discs/internal/service"
)

// FuzzConfig: a node config is operator-written JSON, so decoding any
// bytes and validating the result must never panic. A config that
// validates stays valid through a JSON round trip.
func FuzzConfig(f *testing.F) {
	good := testConfig(f)
	seeds := []service.Config{good, {Name: "ctrl.as1", AS: 1, Listen: "127.0.0.1:0",
		Prefixes: map[string][]string{"1": {"10.0.0.0/16"}}}}
	for _, tc := range configDefects {
		seeds = append(seeds, withDefect(good, tc.mutate))
	}
	for _, c := range seeds {
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"prefixes":{"1":["10.0.0.0/16"],"01":["10.1.0.0/16"]}}`))
	f.Add([]byte(`{"peers":[null]}`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg service.Config
		if err := json.Unmarshal(data, &cfg); err != nil {
			return
		}
		if cfg.Validate() != nil {
			return
		}
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("valid config does not marshal: %v", err)
		}
		var again service.Config
		if err := json.Unmarshal(b, &again); err != nil {
			t.Fatalf("marshaled config does not decode: %v\n%s", err, b)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("config invalid after a round trip: %v\n%s", err, b)
		}
	})
}
