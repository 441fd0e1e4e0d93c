package ilp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"secmon/internal/lp"
)

// budgetedCoverage builds a MaxUtility-shaped program: n binary monitors
// with integral costs and no objective weight, m continuous coverage
// variables z in [0,1] weighted by their attack's value, each bounded by
// the sum of one to three covering monitors, and one budget row at frac of
// the total monitor cost.
func budgetedCoverage(t *testing.T, rng *rand.Rand, n, m int, frac float64) *Problem {
	t.Helper()
	p := NewProblem(lp.Maximize)
	budget := make([]lp.Term, n)
	total := 0.0
	for i := range budget {
		cost := 1 + math.Floor(rng.Float64()*20)
		budget[i] = lp.Term{Var: mustBin(t, p, "x", 0), Coeff: cost}
		total += cost
	}
	for j := 0; j < m; j++ {
		z, err := p.AddVariable("z", 0, 1, 1+math.Floor(rng.Float64()*9))
		if err != nil {
			t.Fatalf("add z: %v", err)
		}
		terms := []lp.Term{{Var: z, Coeff: 1}}
		k := 1 + rng.Intn(3)
		for _, i := range rng.Perm(n)[:k] {
			terms = append(terms, lp.Term{Var: budget[i].Var, Coeff: -1})
		}
		mustCon(t, p, "cover", terms, lp.LE, 0)
	}
	mustCon(t, p, "budget", budget, lp.LE, math.Floor(total*frac))
	return p
}

// rootPrepOf runs the root prep alone at one worker and returns it with
// its LP solve count.
func rootPrepOf(t *testing.T, p *Problem, opts ...Option) (*rootPrep, int) {
	t.Helper()
	cfg, _ := p.configure(append([]Option{WithWorkers(1)}, opts...))
	pr, err := prepareRoot(p, &cfg, time.Now())
	if err != nil {
		t.Fatalf("root prep: %v", err)
	}
	return pr, pr.warmHits + pr.coldSolves
}

// TestDiveStopsAtAttainingRounding checks the dive's simple-rounding stop
// on a budgeted-coverage program whose root LP point is fractional, but
// rounds to a feasible point of the same objective. The root face dive
// must accept that rounding at its first step, so the solve closes at the
// root in at most three LP solves. Without the stop the prep took 17 LP
// solves. A solve without dives must prove the same optimum.
func TestDiveStopsAtAttainingRounding(t *testing.T) {
	p := budgetedCoverage(t, rand.New(rand.NewSource(24)), 30, 40, 0.5)
	pr, solves := rootPrepOf(t, p)
	if pr.branchVar >= 0 || !pr.hasInc || solves > 3 {
		t.Fatalf("root prep took %d LP solves (branch var %d, incumbent %v), want a closed root in at most 3",
			solves, pr.branchVar, pr.hasInc)
	}
	sol, err := p.Solve(WithWorkers(1))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	ref, err := p.Solve(WithWorkers(1), WithoutDiving())
	if err != nil {
		t.Fatalf("solve without dives: %v", err)
	}
	if sol.Status != StatusOptimal || sol.Nodes != 1 || sol.Objective != ref.Objective || sol.Objective != 174 {
		t.Fatalf("status %v, %d nodes, objective %v; without dives %v, want 174 at the root",
			sol.Status, sol.Nodes, sol.Objective, ref.Objective)
	}
	if !feasibleWithin(p.lp, sol.X, diveFeasTol) {
		t.Fatalf("incumbent %v violates a bound or row", sol.X)
	}
}

// TestDiveRoundingRejected checks that a dive whose roundings never pass
// the test runs exactly as before the stop existed, on a set cover (every
// round-down that could keep the objective uncovers a row) and on a
// knapsack whose round-down is feasible but below the LP value (the free
// dive must walk on rather than settle for it). The pinned LP solve counts
// and incumbents are those of dives without the test; they are exact
// floating-point outcomes, so they are checked on amd64 only.
func TestDiveRoundingRejected(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned dive counts were recorded on amd64")
	}
	for _, c := range []struct {
		name   string
		p      *Problem
		opts   []Option
		solves int
		incObj float64 // maximize form
	}{
		{"set-cover", randomSetCover(t, rand.New(rand.NewSource(7)), 30, 40), nil, 20, -19},
		// Cuts and presolve off: the dives are the prep's only work.
		{"knapsack", randomKnapsack(t, rand.New(rand.NewSource(3)), 60),
			[]Option{WithoutCuts(), WithoutPresolve()}, 50, 2275},
	} {
		pr, solves := rootPrepOf(t, c.p, c.opts...)
		if solves != c.solves || !pr.hasInc || pr.incObj != c.incObj {
			t.Errorf("%s: root prep took %d LP solves to incumbent %v (found %v), want %d to %v",
				c.name, solves, pr.incObj, pr.hasInc, c.solves, c.incObj)
		}
		if pr.hasInc && !feasibleWithin(c.p.lp, pr.incumbent, diveFeasTol) {
			t.Errorf("%s: incumbent %v violates a bound or row", c.name, pr.incumbent)
		}
	}
}

// TestRoundingTestDoesNotAllocate checks that a rejected rounding test, on
// the objective (knapsack round-down) or on a row (set cover), allocates
// nothing: dives run it at every step.
func TestRoundingTestDoesNotAllocate(t *testing.T) {
	for _, p := range []*Problem{
		randomKnapsack(t, rand.New(rand.NewSource(3)), 60),
		randomSetCover(t, rand.New(rand.NewSource(7)), 30, 40),
	} {
		cfg, _ := p.configure(nil)
		rel, err := p.SolveRelaxation()
		if err != nil || rel.Status != lp.StatusOptimal {
			t.Fatalf("relaxation: %v, %+v", err, rel)
		}
		round := make([]float64, len(rel.X))
		maximize := p.lp.Sense() == lp.Maximize
		var ok bool
		if n := testing.AllocsPerRun(10, func() {
			ok = roundingAttains(p, &cfg, maximize, rel.X, round, math.Inf(-1))
		}); ok || n != 0 {
			t.Errorf("rounding test accepted %v with %v allocations per run, want a rejection with none", ok, n)
		}
	}
}
