package certify_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"secmon/internal/certify"
	"secmon/internal/ilp"
	"secmon/internal/lp"
)

// Regenerate the golden certificate after an intentional format change with:
//
//	go test ./internal/certify -run TestGoldenCertificate -update
var updateGolden = flag.Bool("update", false, "rewrite the golden certificate")

const goldenPath = "testdata/golden/knapsack-cert.json"

// goldenProblem is a fixed fractional knapsack whose search tree — and
// therefore whose emitted certificate — is deterministic at one worker.
func goldenProblem(t *testing.T) *ilp.Problem {
	t.Helper()
	p := ilp.NewProblem(lp.Maximize)
	vals := []float64{9, 7, 6, 5, 3}
	wts := []float64{5, 4, 3.5, 3, 1.5}
	terms := make([]lp.Term, 0, len(vals))
	for i, v := range vals {
		x, err := p.AddBinaryVariable("x", v)
		if err != nil {
			t.Fatalf("add var: %v", err)
		}
		terms = append(terms, lp.Term{Var: x, Coeff: wts[i]})
	}
	if _, err := p.AddConstraint("cap", terms, lp.LE, 8); err != nil {
		t.Fatalf("add constraint: %v", err)
	}
	return p
}

// TestGoldenCertificate pins the certificate JSON schema byte-for-byte,
// following the E1–E8 golden flow: GOMAXPROCS(1) and the default solver
// configuration (auto kernel, face dive on), so the tree (and every float in
// the proof) is reproducible on the path production runs. Certificates carry
// no wall-clock content, so no scrubbing is needed.
func TestGoldenCertificate(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	sol, err := goldenProblem(t).Solve(ilp.WithCertificate(), ilp.WithWorkers(1))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Certificate == nil {
		t.Fatalf("no certificate: %s", sol.CertificateNote)
	}
	if _, err := certify.Verify(sol.Certificate); err != nil {
		t.Fatalf("verify: %v", err)
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sol.Certificate); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := buf.Bytes()

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("certificate JSON drifted from golden %s; rerun with -update if intentional\ngot:\n%s", goldenPath, got)
	}

	// The golden file itself must round-trip through the verifier: the
	// committed schema is a valid proof, not just frozen bytes.
	var c certify.Certificate
	if err := json.Unmarshal(want, &c); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if _, err := certify.Verify(&c); err != nil {
		t.Fatalf("golden certificate rejected: %v", err)
	}
}
