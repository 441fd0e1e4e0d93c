package lp

import (
	"math"
	"math/rand"
	"testing"
)

// coveringLP builds a seeded random MinCost-shaped LP: m covering rows
// sum_j a_ij x_j >= b_i over n columns boxed in [0, 1] with positive costs.
// The all-lower point is dual feasible and violates every row, so a cold LU
// solve runs the dual simplex from the all-logical basis, long enough for
// Forrest-Tomlin updates, bound flips and an update-budget refactorization.
func coveringLP(t *testing.T, seed int64, n, m int) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(Minimize)
	for j := 0; j < n; j++ {
		if _, err := p.AddVariable("x", 0, 1, 1+9*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for _, j := range rng.Perm(n)[:3+rng.Intn(6)] {
			terms = append(terms, Term{Var: VarID(j), Coeff: float64(1 + rng.Intn(4))})
		}
		if _, err := p.AddConstraint("c", terms, GE, float64(1+rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// luSpx binds an LU-kernel spx to the workspace without touching its state,
// for inspecting the factorization a finished solve left behind.
func luSpx(p *Problem, ws *Workspace) *spx {
	cfg := options{tolerance: 1e-9, maxIterations: 1 << 20, kernel: KernelLU}
	return bindSparse(p, &cfg, ws)
}

// checkDSEWeights requires every maintained dual steepest-edge weight to
// match ||e_i^T B^-1||^2 recomputed by BTRAN, to a relative 1e-6.
func checkDSEWeights(t *testing.T, s *spx, label string) {
	t.Helper()
	if !s.st.dseOK {
		t.Fatalf("%s: weights not marked as describing the basis", label)
	}
	for i := 0; i < s.m; i++ {
		s.btranRow(i)
		want := 0.0
		for _, v := range s.st.rho {
			want += v * v
		}
		if got := s.st.dseW[i]; math.Abs(got-want) > 1e-6*want {
			t.Fatalf("%s: weight at position %d is %v, ||e_i^T B^-1||^2 = %v", label, i, got, want)
		}
	}
}

// TestDSEWeightsMatchBTRAN stops cold LU dual solves after k pivots for a
// range of k and checks the maintained weights against recomputed row norms
// of B^-1, so the recurrence is exercised across Forrest-Tomlin updates, an
// update-budget refactorization and bound-flipping ratio tests.
func TestDSEWeightsMatchBTRAN(t *testing.T) {
	var refacs, updates, flips, checks int
	for seed := int64(1); seed <= 3; seed++ {
		p := coveringLP(t, seed, 240, 96)
		full, err := p.Clone().Solve(WithKernel(KernelLU), WithWorkspace(NewWorkspace()))
		if err != nil || full.Status != StatusOptimal || full.KernelFallbacks != 0 {
			t.Fatalf("seed %d: full LU solve: %v %+v", seed, err, full)
		}
		for _, k := range []int{1, 2, 5, 13, 29, 47, 48, 49, 61, 83, full.Iterations - 1} {
			if k < 1 || k >= full.Iterations {
				continue
			}
			ws := NewWorkspace()
			sol, err := p.Solve(WithKernel(KernelLU), WithWorkspace(ws), WithMaxIterations(k))
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != StatusIterationLimit || sol.Iterations != k {
				t.Fatalf("seed %d k %d: status %v after %d iterations", seed, k, sol.Status, sol.Iterations)
			}
			checkDSEWeights(t, luSpx(p, ws), "cold dual pivots")
			checks++
			refacs = max(refacs, sol.Refactorizations)
			updates = max(updates, sol.Updates)
			flips = max(flips, sol.BoundFlips)
		}
	}
	// One refactorization builds the all-logical start; a second one must
	// come from the update budget for the weights to have crossed it.
	if refacs < 2 || updates == 0 || flips == 0 || checks < 20 {
		t.Fatalf("coverage: %d refactorizations, %d updates, %d bound flips, %d checks",
			refacs, updates, flips, checks)
	}
}

// TestDSEInstallResetsRebindKeeps checks the weights' lifetime across
// basis changes that are not dual pivots: a refactorization and a rebind of
// the factorized basis under new bounds keep them (and they stay exact),
// while a warm install of a different basis, incremental or rebuilt, marks
// them stale, so the next dual solve restarts every weight at 1.
func TestDSEInstallResetsRebindKeeps(t *testing.T) {
	p := coveringLP(t, 7, 240, 96)
	ws := NewWorkspace()
	sol, err := p.Solve(WithKernel(KernelLU), WithWorkspace(ws), WithWarmStart(nil))
	if err != nil || sol.Status != StatusOptimal || sol.Basis == nil {
		t.Fatalf("cold LU solve: %v %+v", err, sol)
	}
	s := luSpx(p, ws)
	checkDSEWeights(t, s, "after the cold solve")
	ones := 0
	for _, w := range s.st.dseW {
		if w == 1 {
			ones++
		}
	}
	if ones == s.m {
		t.Fatal("every weight is still 1: the solve maintained nothing")
	}
	if !s.renumber() || s.st.luf.nUpdates != 0 {
		t.Fatal("refactorization failed")
	}
	checkDSEWeights(t, s, "after a refactorization")
	kept := append([]float64(nil), s.st.dseW...)

	// Rebind: same basis, the boxes of three nonbasic columns shrink.
	var moved []VarID
	for c := 0; c < s.n && len(moved) < 3; c++ {
		if s.st.stat[c] == statusUpper {
			moved = append(moved, VarID(c))
		}
	}
	if len(moved) < 3 {
		t.Fatal("too few nonbasic columns at their upper bound")
	}
	for _, j := range moved {
		if err := p.SetVariableBounds(j, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	s = luSpx(p, ws)
	if !s.st.valid || s.st.basisID != sol.Basis.id || !s.rebind() {
		t.Fatal("rebind fast path not taken")
	}
	if firstBitDiff(s.st.dseW, kept) >= 0 || !s.st.dseOK {
		t.Fatal("rebind changed the steepest-edge weights")
	}
	checkDSEWeights(t, s, "after rebind")

	// Incremental install: the few-pivot warm optimum under the new boxes,
	// solved in another workspace, goes in as Forrest-Tomlin updates.
	near, err := p.Solve(WithKernel(KernelLU), WithWorkspace(NewWorkspace()), WithWarmStart(sol.Basis))
	if err != nil || near.Status != StatusOptimal || near.Basis == nil || near.Iterations == 0 {
		t.Fatalf("warm LU solve: %v %+v", err, near)
	}
	s = luSpx(p, ws)
	if !s.install(near.Basis) {
		t.Fatal("install of the warm optimum failed")
	}
	if s.refactorizations != 0 || s.ftUpdates == 0 {
		t.Fatalf("install took %d refactorizations and %d updates, want an incremental install",
			s.refactorizations, s.ftUpdates)
	}
	if s.st.dseOK {
		t.Fatal("incremental install of a different basis kept the steepest-edge weights")
	}

	// Rebuilt install: a basis captured on very different bounds.
	q := p.Clone()
	for c := 0; c < 40; c++ {
		if err := q.SetVariableBounds(VarID(c), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	other, err := q.Solve(WithKernel(KernelLU), WithWorkspace(NewWorkspace()), WithWarmStart(nil))
	if err != nil || other.Status != StatusOptimal || other.Basis == nil {
		t.Fatalf("second LU solve: %v %+v", err, other)
	}
	s = luSpx(p, ws)
	s.resetDSE()
	s.install(other.Basis) // dual feasibility of the snapshot is beside the point
	if s.refactorizations == 0 {
		t.Fatal("install of a distant basis did not refactorize")
	}
	if s.st.dseOK {
		t.Fatal("rebuilt install of a different basis kept the steepest-edge weights")
	}
	s.resetDSE()
	for i, w := range s.st.dseW {
		if w != 1 {
			t.Fatalf("weight %d is %v after the restart, want 1", i, w)
		}
	}
}
