package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"discs/internal/flowexport"
)

// goldenDigests pins the traffic of every curated example spec: the
// SHA-256 (first 16 hex digits) of the run's Result as JSON and of its
// labeled dataset as CSV, run on the test world. Generated traffic,
// every verdict and every count are meant to stay bit-identical from
// change to change; a change that alters traffic on purpose updates
// the digest here and says why.
var goldenDigests = map[string]struct{ result, dataset string }{
	"adaptive-rotation.json": {"d71f25cc2cafae35", "466865ccd4f4a69d"},
	"adoption-sweep.json":    {"951a8a4b613f6836", "5ae3f5d39bc6c611"},
	"carpetbomb.json":        {"c64e87b4c06169c4", "94b092aa63bd9854"},
	"pulsewave.json":         {"e5589644599c5da9", "474513d51019f201"},
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestExampleSpecsGolden runs each example spec and compares the
// digests of its Result and Dataset with goldenDigests.
func TestExampleSpecsGolden(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenario/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(goldenDigests) {
		t.Fatalf("%d example specs, %d golden digests", len(files), len(goldenDigests))
	}
	for _, path := range files {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			want, ok := goldenDigests[name]
			if !ok {
				t.Fatalf("no golden digest for %s", name)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			sys, _ := world(t, 2, 3, 4, 5)
			res := run(t, sys, spec)
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var csv bytes.Buffer
			if err := flowexport.WriteLabeledCSV(&csv, res.Dataset); err != nil {
				t.Fatal(err)
			}
			if got := digest(js); got != want.result {
				t.Errorf("Result digest %s, want %s", got, want.result)
			}
			if got := digest(csv.Bytes()); got != want.dataset {
				t.Errorf("Dataset digest %s (%d records), want %s", got, len(res.Dataset), want.dataset)
			}
		})
	}
}
