package ilp

import (
	"testing"

	"secmon/internal/lp"
)

// lpTightInstance builds an LP-tight assignment-style instance with a
// massively degenerate optimal face: n interchangeable item pairs where
// exactly one of each pair fits the budget. Every 0/1 selection of one item
// per pair is an optimal vertex, and so is every fractional mix, so which
// vertex the simplex kernel stops at is pricing-rule luck.
func lpTightInstance(t *testing.T, n int) *Problem {
	t.Helper()
	p := NewProblem(lp.Maximize)
	budget := make([]lp.Term, 0, 2*n)
	for i := 0; i < n; i++ {
		a := mustBin(t, p, "a", 1)
		b := mustBin(t, p, "b", 1)
		mustCon(t, p, "pair", []lp.Term{{Var: a, Coeff: 1}, {Var: b, Coeff: 1}}, lp.LE, 1)
		budget = append(budget, lp.Term{Var: a, Coeff: 1}, lp.Term{Var: b, Coeff: 1})
	}
	mustCon(t, p, "budget", budget, lp.LE, float64(n))
	return p
}

// TestFaceDiveClosesLPTightRoot checks the optimal-face dive proves an
// LP-tight instance at the root under both kernels, and that the instance
// still solves to the same optimum with the face dive disabled.
func TestFaceDiveClosesLPTightRoot(t *testing.T) {
	const n = 12
	for _, k := range []struct {
		name string
		opt  Option
	}{
		{"sparse", WithKernel(lp.KernelSparse)},
		{"dense", WithDenseKernel()},
	} {
		sol, err := lpTightInstance(t, n).Solve(k.opt)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if sol.Status != StatusOptimal || !almostEqual(sol.Objective, n) {
			t.Fatalf("%s: status %v objective %v, want optimal %d", k.name, sol.Status, sol.Objective, n)
		}
		if sol.Nodes != 1 {
			t.Errorf("%s: %d nodes for an LP-tight root, want 1", k.name, sol.Nodes)
		}

		off, err := lpTightInstance(t, n).Solve(k.opt, WithoutFaceDive())
		if err != nil {
			t.Fatalf("%s without face dive: %v", k.name, err)
		}
		if off.Status != StatusOptimal || !almostEqual(off.Objective, n) {
			t.Fatalf("%s without face dive: status %v objective %v", k.name, off.Status, off.Objective)
		}
	}
}
