package ilp

import (
	"context"
	"math"
	"testing"

	"secmon/internal/lp"
)

// knapsackProblem builds max 5a+4b+3c s.t. 2a+3b+c <= 4, binaries.
// Optimum: a=1, c=1, objective 8.
func reuseKnapsack(t *testing.T) (*Problem, []lp.VarID) {
	t.Helper()
	p := NewProblem(lp.Maximize)
	a, _ := p.AddBinaryVariable("a", 5)
	b, _ := p.AddBinaryVariable("b", 4)
	c, _ := p.AddBinaryVariable("c", 3)
	if _, err := p.AddConstraint("cap", []lp.Term{{Var: a, Coeff: 2}, {Var: b, Coeff: 3}, {Var: c, Coeff: 1}}, lp.LE, 4); err != nil {
		t.Fatalf("constraint: %v", err)
	}
	return p, []lp.VarID{a, b, c}
}

func TestWithIncumbentSeedsFeasiblePoint(t *testing.T) {
	p, _ := reuseKnapsack(t)
	sol, err := p.Solve(WithIncumbent([]float64{1, 0, 1}))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-8) > 1e-9 {
		t.Fatalf("got status %v objective %v, want optimal 8", sol.Status, sol.Objective)
	}
}

func TestWithIncumbentRejectsInfeasibleSeed(t *testing.T) {
	p, _ := reuseKnapsack(t)
	// Violates the capacity row; must be ignored, not trusted.
	sol, err := p.Solve(WithIncumbent([]float64{1, 1, 1}))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-8) > 1e-9 {
		t.Fatalf("got status %v objective %v, want optimal 8", sol.Status, sol.Objective)
	}
}

func TestWithIncumbentSurvivesPreRootCancel(t *testing.T) {
	p, _ := reuseKnapsack(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // fires before the root relaxation
	sol, err := p.Solve(WithContext(ctx), WithIncumbent([]float64{0, 1, 0}))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Status != StatusFeasible || math.Abs(sol.Objective-4) > 1e-9 {
		t.Fatalf("got status %v objective %v, want feasible 4 (seed)", sol.Status, sol.Objective)
	}
	if sol.BoundKnown {
		t.Fatalf("no bound was proven, yet BoundKnown is true (BestBound=%v)", sol.BestBound)
	}
}

// TestPreRootCancelBoundUnknownAtAnyWorkerCount repeats the pre-root
// cancellation with the worker count pinned, so both the sequential and the
// parallel search's limit paths are covered whatever GOMAXPROCS is: the
// seeded incumbent survives, but no bound may be claimed.
func TestPreRootCancelBoundUnknownAtAnyWorkerCount(t *testing.T) {
	for _, w := range []int{1, 2} {
		p, _ := reuseKnapsack(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		sol, err := p.Solve(WithContext(ctx), WithWorkers(w), WithIncumbent([]float64{0, 1, 0}))
		if err != nil {
			t.Fatalf("workers %d: solve: %v", w, err)
		}
		if sol.Status != StatusFeasible || sol.Objective != 4 || sol.BoundKnown {
			t.Errorf("workers %d: status %v objective %v BoundKnown %v (BestBound %v); want feasible 4 with no bound",
				w, sol.Status, sol.Objective, sol.BoundKnown, sol.BestBound)
		}
	}
}

func TestWorkspaceAndRootBasisReuse(t *testing.T) {
	p, vars := reuseKnapsack(t)
	ws := lp.NewWorkspace()
	first, err := p.Solve(WithWorkspace(ws))
	if err != nil {
		t.Fatalf("first solve: %v", err)
	}
	if first.RootBasis == nil {
		t.Fatalf("first solve returned no root basis")
	}
	// Perturb the objective (same rows) and re-solve warm from the snapshot.
	if err := p.SetObjectiveCoefficient(vars[1], 6); err != nil {
		t.Fatalf("set objective: %v", err)
	}
	second, err := p.Solve(WithWorkspace(ws), WithRootBasis(first.RootBasis),
		WithIncumbent(first.X))
	if err != nil {
		t.Fatalf("second solve: %v", err)
	}
	// New optimum: b=1, c=1 -> 9.
	if second.Status != StatusOptimal || math.Abs(second.Objective-9) > 1e-9 {
		t.Fatalf("got status %v objective %v, want optimal 9", second.Status, second.Objective)
	}
}

func TestWithRootBasisWrongShapeFallsBackCold(t *testing.T) {
	p, _ := reuseKnapsack(t)
	first, err := p.Solve()
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	q := NewProblem(lp.Maximize)
	a, _ := q.AddBinaryVariable("a", 1)
	b, _ := q.AddBinaryVariable("b", 2)
	if _, err := q.AddConstraint("cap", []lp.Term{{Var: a, Coeff: 1}, {Var: b, Coeff: 1}}, lp.LE, 1); err != nil {
		t.Fatalf("constraint: %v", err)
	}
	sol, err := q.Solve(WithRootBasis(first.RootBasis))
	if err != nil {
		t.Fatalf("solve with foreign basis: %v", err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("got status %v objective %v, want optimal 2", sol.Status, sol.Objective)
	}
}
