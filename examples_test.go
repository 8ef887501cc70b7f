package discs_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesGolden builds every program under examples/ and compares
// its stdout with testdata/examples/<name>.txt. The examples run on
// fixed seeds and simulated time, so their output is deterministic and
// any difference is a change of behaviour. When a change means to alter
// an example's output, regenerate its file with
// go run ./examples/<name> > testdata/examples/<name>.txt. A golden
// file whose program is gone fails it too.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	// Each program needs its golden file, so equal counts leave no
	// golden file without a program.
	if goldens, _ := filepath.Glob("testdata/examples/*.txt"); len(goldens) != len(mains) {
		t.Errorf("%d golden files for %d examples: a golden file has no program", len(goldens), len(mains))
	}
	// go test puts its own toolchain first on the PATH it hands the test.
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the examples with")
	}
	bin := t.TempDir()
	if out, err := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("building the examples: %v\n%s", err, out)
	}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(filepath.Join(bin, name)).Output()
			if err != nil {
				t.Fatalf("running %s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout of examples/%s differs from its golden file\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}
