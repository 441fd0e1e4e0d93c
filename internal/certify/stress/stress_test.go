package stress

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"secmon/internal/ilp"
	"secmon/internal/lp"
)

// stressN is the number of seeded instances checked per family. The default
// keeps plain `go test ./...` fast; `make stress` raises it to the full
// acceptance sweep.
var stressN = flag.Int("stress.n", 40, "seeded instances per family")

// failureDir is where failing instances are dumped as reproducible JSON
// seed files; TestReplayFailures replays anything found there.
const failureDir = "testdata/failures"

// dumpFailure writes the failing instance description to a seed file so the
// exact case replays without rerunning the sweep.
func dumpFailure(t *testing.T, in *Instance, cause error) {
	t.Helper()
	if err := os.MkdirAll(failureDir, 0o755); err != nil {
		t.Logf("cannot create %s: %v", failureDir, err)
		return
	}
	name := filepath.Join(failureDir, fmt.Sprintf("%s-seed%d.json", in.Family, in.Seed))
	body, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		t.Logf("cannot marshal failing instance: %v", err)
		return
	}
	if err := os.WriteFile(name, body, 0o644); err != nil {
		t.Logf("cannot write %s: %v", name, err)
		return
	}
	t.Logf("failing instance dumped to %s", name)
}

func TestStressFamilies(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(string(fam), func(t *testing.T) {
			for i := 0; i < *stressN; i++ {
				seed := int64(i) + 1
				in := Generate(fam, seed)
				if err := CheckInstance(in); err != nil {
					dumpFailure(t, in, err)
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestMetamorphicMatrix runs the metamorphic relations across the solver
// configuration matrix: 1- and 4-worker search, sparse and dense
// kernels. Fewer seeds per cell than TestStressFamilies since each check
// performs five certified solves.
func TestMetamorphicMatrix(t *testing.T) {
	n := *stressN / 4
	if n < 5 {
		n = 5
	}
	for _, workers := range []int{1, 4} {
		for _, kernel := range []lp.Kernel{lp.KernelSparse, lp.KernelDense} {
			workers, kernel := workers, kernel
			t.Run(fmt.Sprintf("workers=%d/kernel=%v", workers, kernel), func(t *testing.T) {
				opts := []ilp.Option{ilp.WithWorkers(workers), ilp.WithKernel(kernel)}
				for _, fam := range Families() {
					for i := 0; i < n; i++ {
						seed := int64(i) + 1
						in := Generate(fam, seed)
						if err := CheckMetamorphic(in, opts...); err != nil {
							dumpFailure(t, in, err)
							t.Fatalf("%s seed %d: %v", fam, seed, err)
						}
					}
				}
			})
		}
	}
}

// TestReplayFailures re-runs any instance previously dumped by a failing
// sweep, making red runs reproducible without the original seed count.
func TestReplayFailures(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(failureDir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Skip("no dumped failures to replay")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			body, err := os.ReadFile(f)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			var in Instance
			if err := json.Unmarshal(body, &in); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if err := CheckInstance(&in); err != nil {
				t.Fatalf("still failing: %v", err)
			}
		})
	}
}

// TestGenerateDeterministic pins the reproducibility contract: the same
// (family, seed) pair always yields the same instance.
func TestGenerateDeterministic(t *testing.T) {
	for _, fam := range Families() {
		a, _ := json.Marshal(Generate(fam, 42))
		b, _ := json.Marshal(Generate(fam, 42))
		if string(a) != string(b) {
			t.Fatalf("%s: generation is not deterministic", fam)
		}
	}
}

// TestTransformsPreserveShape sanity-checks the transform helpers on one
// instance per family.
func TestTransformsPreserveShape(t *testing.T) {
	for _, fam := range Families() {
		in := Generate(fam, 3)
		p := Permute(in, 9)
		if len(p.Cost) != len(in.Cost) || len(p.Rows) != len(in.Rows) {
			t.Fatalf("%s: permute changed shape", fam)
		}
		s := ScaleCosts(in, 2)
		if s.Cost[0] != 2*in.Cost[0] {
			t.Fatalf("%s: scale did not double cost", fam)
		}
		if g := AddBonusVar(in, 5); len(g.Cost) != len(in.Cost)+1 {
			t.Fatalf("%s: bonus var not added", fam)
		}
		if tt := TightenFirstLE(in, 0.5); tt == nil {
			t.Fatalf("%s: no LE row to tighten", fam)
		}
	}
}
