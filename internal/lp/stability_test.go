package lp

// Numerical-stability battery for the LU kernel: seeded generators for
// near-singular and highly degenerate bases, cross-checked against the
// dense tableau oracle, plus deterministic coverage of the singular /
// declined-solve fallback ladder and its visibility in the solve counters.

import (
	"math"
	"math/rand"
	"testing"
)

// nearSingularLP builds an LP whose rows are near-duplicates: row i+1 is a
// scalar multiple of row i plus noise of magnitude eps, so the basis
// matrices the simplex visits are poorly conditioned and threshold pivoting
// (plus the unstable-update and drift refactorization triggers) must earn
// its keep.
func nearSingularLP(seed int64, eps float64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(6)
	m := 3 + rng.Intn(4)
	p := NewProblem(Maximize)
	for j := 0; j < n; j++ {
		if _, err := p.AddVariable("x", 0, 1, rng.Float64()*2-0.5); err != nil {
			panic(err)
		}
	}
	base := make([]float64, n)
	for j := range base {
		base[j] = float64(rng.Intn(9) - 4)
	}
	for i := 0; i < m; i++ {
		scale := 1 + rng.Float64()
		terms := make([]Term, 0, n)
		for j := 0; j < n; j++ {
			c := base[j]*scale + eps*(rng.Float64()*2-1)
			if c != 0 {
				terms = append(terms, Term{Var: VarID(j), Coeff: c})
			}
		}
		if len(terms) == 0 {
			continue
		}
		// A mix of senses forces dual-simplex starts on some seeds, where
		// degraded bases are rebuilt rather than sidestepped.
		op, rhs := LE, 1+rng.Float64()*float64(n)
		if i%3 == 2 {
			op, rhs = GE, rng.Float64()
		}
		if _, err := p.AddConstraint("c", terms, op, rhs); err != nil {
			panic(err)
		}
	}
	if p.NumConstraints() == 0 {
		if _, err := p.AddConstraint("c", []Term{{Var: 0, Coeff: 1}}, LE, 1); err != nil {
			panic(err)
		}
	}
	return p
}

// degenerateLP builds a highly degenerate 0/1-box instance: many rows share
// the same right-hand side and overlapping support, so most pivots are
// degenerate and ratio-test ties abound — the stress shape for the
// bound-flipping ratio test and the anti-cycling ladder.
func degenerateLP(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(8)
	m := 4 + rng.Intn(5)
	p := NewProblem(Maximize)
	for j := 0; j < n; j++ {
		if _, err := p.AddVariable("x", 0, 1, 1+rng.Float64()); err != nil {
			panic(err)
		}
	}
	rhs := float64(1 + rng.Intn(3))
	for i := 0; i < m; i++ {
		terms := make([]Term, 0, n)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				terms = append(terms, Term{Var: VarID(j), Coeff: 1})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: VarID(rng.Intn(n)), Coeff: 1})
		}
		// GE rows make the all-lower point infeasible, so the cold solve
		// takes the dual-flip start and the dual simplex (with its
		// bound-flipping ratio test) restores feasibility.
		op := LE
		if i%2 == 1 {
			op = GE
		}
		if _, err := p.AddConstraint("c", terms, op, rhs); err != nil {
			panic(err)
		}
	}
	return p
}

// runStabilityCase solves one instance with the LU kernel and the dense
// oracle and requires agreement; it returns the LU solution for counter
// aggregation.
func runStabilityCase(t *testing.T, p *Problem, label string) *Solution {
	t.Helper()
	dense, err := p.Clone().Solve(WithDenseKernel())
	if err != nil {
		t.Fatalf("%s: dense: %v", label, err)
	}
	lu, err := p.Clone().Solve(WithKernel(KernelLU))
	if err != nil {
		t.Fatalf("%s: lu: %v", label, err)
	}
	if dense.Status == StatusIterationLimit || lu.Status == StatusIterationLimit {
		return lu
	}
	if lu.Status != dense.Status {
		t.Fatalf("%s: lu status %v, dense %v", label, lu.Status, dense.Status)
	}
	if dense.Status == StatusOptimal {
		scale := 1 + math.Abs(dense.Objective)
		if math.Abs(lu.Objective-dense.Objective) > 1e-6*scale {
			t.Fatalf("%s: lu objective %v, dense %v", label, lu.Objective, dense.Objective)
		}
	}
	return lu
}

// TestLUNearSingularBattery sweeps seeds and noise magnitudes from benign
// down to exactly dependent rows (eps = 0). Every solve outcome must match
// the dense oracle regardless of which internal ladder (threshold pivoting,
// adaptive refactorization, abort-to-dense) produced it. On top of the
// solves, each instance's two dependent structural columns are factorized
// directly: the exactly singular pairs must be rejected — the
// singular-refactorization path that makes install/renumber decline safely
// — and the near-singular pairs that are accepted must still solve to a
// small residual, proving threshold pivoting held.
func TestLUNearSingularBattery(t *testing.T) {
	singularRejects := 0
	for _, eps := range []float64{1e-2, 1e-6, 1e-8, 1e-10, 0} {
		for seed := int64(1); seed <= 40; seed++ {
			p := nearSingularLP(seed, eps)
			lu := runStabilityCase(t, p, "near-singular")
			if lu.Etas != 0 {
				t.Fatalf("LU solve reported %d etas", lu.Etas)
			}
			if lu.KernelFallbacks == 0 && lu.FactorNnz == 0 {
				t.Fatalf("LU solve reported no factorization nonzeros and no fallback")
			}
			singularRejects += factorizeDependentPair(t, p, eps)
		}
	}
	if singularRejects == 0 {
		t.Errorf("no dependent basis was ever rejected as singular across the battery")
	}
}

// factorizeDependentPair builds a basis target containing two structural
// columns from the instance's (near-)dependent family plus logicals, and
// reports 1 when factorize rejects it as singular. An accepted near-singular
// factorization must pass a residual check.
func factorizeDependentPair(t *testing.T, p *Problem, eps float64) int {
	t.Helper()
	cfg := options{tolerance: 1e-9, maxIterations: 100, kernel: KernelLU}
	s := bindSparse(p, &cfg, NewWorkspace())
	if s.m < 2 {
		return 0
	}
	// Two structural columns with full row support: in this generator every
	// column is base[j] scaled per row, so any two nonzero columns are
	// dependent up to the eps noise.
	j1, j2 := -1, -1
	for j := 0; j < s.n; j++ {
		if s.st.mat.colNNZ(j) == s.m {
			if j1 < 0 {
				j1 = j
			} else {
				j2 = j
				break
			}
		}
	}
	if j2 < 0 {
		return 0
	}
	target := make([]int32, s.m)
	target[0], target[1] = int32(j1), int32(j2)
	for i := 2; i < s.m; i++ {
		target[i] = int32(s.n + i)
	}
	if !s.refactor(target) {
		return 1 // singular (or near-singular) pair detected and declined
	}
	if eps == 0 {
		t.Fatalf("factorize accepted an exactly singular basis (eps=0)")
	}
	// Accepted: the factorization must solve to a residual small relative
	// to the solution magnitude — an ill-conditioned basis legitimately
	// amplifies the absolute residual by ||x|| ~ 1/eps.
	m := s.m
	v := make([]float64, m)
	want := make([]float64, m)
	for i := range v {
		v[i] = float64(i%3) - 1
		want[i] = v[i]
	}
	out := make([]float64, m)
	s.st.luf.ftran(v, out, &pattern{all: true}, nil, false)
	scale := 1.0
	for _, x := range out {
		if a := math.Abs(x); a > scale {
			scale = a
		}
	}
	col := make([]float64, m)
	res := make([]float64, m)
	copy(res, want)
	for i := 0; i < m; i++ {
		if out[i] == 0 {
			continue
		}
		basisColumn(s, i, col)
		for r := 0; r < m; r++ {
			res[r] -= col[r] * out[i]
		}
	}
	for r := 0; r < m; r++ {
		if math.Abs(res[r]) > 1e-9*scale {
			t.Fatalf("near-singular accepted factorization: relative ftran residual %v at row %d (scale %v)",
				res[r], r, scale)
		}
	}
	return 0
}

// TestLUDegenerateBattery checks highly degenerate instances agree with the
// dense oracle and that the long-step ratio test actually flips bounds
// somewhere across the battery (it exists for exactly this shape).
func TestLUDegenerateBattery(t *testing.T) {
	flips := 0
	for seed := int64(1); seed <= 120; seed++ {
		lu := runStabilityCase(t, degenerateLP(seed), "degenerate")
		flips += lu.BoundFlips
	}
	if flips == 0 {
		t.Errorf("120 degenerate 0/1 instances produced zero bound flips")
	}
}

// TestLUSingularWarmStartFallsThrough hand-builds a Basis snapshot whose
// basis matrix is structurally singular (an empty structural column marked
// basic). The LU install must reject it and the solve must still return the
// oracle optimum through the cold path.
func TestLUSingularWarmStartFallsThrough(t *testing.T) {
	p := NewProblem(Maximize)
	for j := 0; j < 3; j++ {
		if _, err := p.AddVariable("x", 0, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	// x2 appears in no row.
	if _, err := p.AddConstraint("c0", []Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, LE, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddConstraint("c1", []Term{{Var: 1, Coeff: 1}}, LE, 1); err != nil {
		t.Fatal(err)
	}
	want, err := p.Clone().Solve(WithDenseKernel())
	if err != nil {
		t.Fatal(err)
	}
	bad := &Basis{
		id:       ^uint64(0),
		n:        3,
		m:        2,
		rowBasic: []int32{2, 3}, // x2's column is all zeros: singular
		vstat:    []uint8{uint8(statusLower), uint8(statusLower), uint8(statusBasic)},
	}
	sol, err := p.Clone().Solve(WithKernel(KernelLU), WithWarmStart(bad))
	if err != nil {
		t.Fatalf("solve with singular warm basis: %v", err)
	}
	if sol.Status != want.Status || math.Abs(sol.Objective-want.Objective) > 1e-9 {
		t.Fatalf("singular warm start: status %v objective %v, want %v %v",
			sol.Status, sol.Objective, want.Status, want.Objective)
	}
}

// TestLUKernelFallbackCounter pins the deterministic cold-decline shape — a
// profitable column with an infinite upper bound has no dual-feasible
// parking spot — and asserts the dense-fallback counter surfaces on the
// returned Solution.
func TestLUKernelFallbackCounter(t *testing.T) {
	p := NewProblem(Maximize)
	if _, err := p.AddVariable("x", 0, Inf, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddVariable("y", 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddConstraint("c", []Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, LE, 5); err != nil {
		t.Fatal(err)
	}
	// The GE row makes the all-lower start primal infeasible, so the cold
	// path needs the dual-flip start — and the profitable infinite-box
	// column x has no dual-feasible parking spot there.
	if _, err := p.AddConstraint("f", []Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, GE, 1); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve(WithKernel(KernelLU))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.KernelFallbacks != 1 {
		t.Errorf("KernelFallbacks = %d, want 1 (sparse kernel must decline this shape)", sol.KernelFallbacks)
	}
	if sol.Objective != 5 {
		t.Errorf("objective %v, want 5", sol.Objective)
	}
}
