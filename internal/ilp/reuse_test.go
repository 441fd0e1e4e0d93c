package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

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

// TestSeededFreeDiveStopsAtIncumbent checks that a seeded root prep gives
// up free-dive steps that can no longer beat its incumbent. The knapsack's
// root bound lies above every integer point, so the face dive fails and
// the free dive runs. Unseeded, it walks to integrality. Seeded at the
// optimum, or at a feasible point better than the unseeded dive's result,
// it must stop sooner: fewer root LP solves and iterations. Cuts and
// presolve are off in the prep so the dives are its only difference. The
// seeded solves must keep the unseeded optimum.
func TestSeededFreeDiveStopsAtIncumbent(t *testing.T) {
	p := randomKnapsack(t, rand.New(rand.NewSource(3)), 60)
	ref, err := p.Solve(WithWorkers(1))
	if err != nil || ref.Status != StatusOptimal {
		t.Fatalf("unseeded solve: %v, %+v", err, ref)
	}
	prep := func(extra ...Option) *rootPrep {
		cfg, _ := p.configure(append([]Option{WithWorkers(1), WithoutCuts(), WithoutPresolve()}, extra...))
		pr, err := prepareRoot(p, &cfg, time.Now())
		if err != nil {
			t.Fatalf("root prep: %v", err)
		}
		return pr
	}
	free := prep()
	if free.bound <= ref.Objective+1e-6 || !free.hasInc || free.incObj >= ref.Objective {
		t.Fatalf("root bound %v, dive incumbent %v, optimum %v: the face dive must fail and the free dive fall short",
			free.bound, free.incObj, ref.Objective)
	}

	// A feasible non-optimal seed: the optimum without its least valuable item.
	worse := append([]float64(nil), ref.X...)
	drop := lp.VarID(-1)
	for _, v := range p.integer {
		if worse[v] > 0.5 && (drop < 0 || p.lp.ObjectiveCoefficient(v) < p.lp.ObjectiveCoefficient(drop)) {
			drop = v
		}
	}
	worse[drop] = 0
	if w := ref.Objective - p.lp.ObjectiveCoefficient(drop); w <= free.incObj {
		t.Fatalf("seed objective %v does not beat the unseeded dive's %v", w, free.incObj)
	}

	for _, seed := range []struct {
		name string
		x    []float64
	}{{"optimum", ref.X}, {"feasible", worse}} {
		pr := prep(WithIncumbent(seed.x))
		solves, freeSolves := pr.warmHits+pr.coldSolves, free.warmHits+free.coldSolves
		if solves >= freeSolves || pr.lpIters >= free.lpIters {
			t.Errorf("%s seed: root prep took %d LP solves and %d iterations, unseeded %d and %d",
				seed.name, solves, pr.lpIters, freeSolves, free.lpIters)
		}
		sol, err := p.Solve(WithWorkers(1), WithIncumbent(seed.x))
		if err != nil {
			t.Fatalf("%s seed: %v", seed.name, err)
		}
		if sol.Status != StatusOptimal || sol.Objective != ref.Objective {
			t.Errorf("%s seed: status %v objective %v, unseeded optimum %v",
				seed.name, sol.Status, sol.Objective, ref.Objective)
		}
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
// cancellation with the worker count pinned, so the limit path is covered
// at one worker and at two whatever GOMAXPROCS is: the
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
