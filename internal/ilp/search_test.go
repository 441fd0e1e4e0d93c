package ilp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"secmon/internal/lp"
)

// TestTieOrderNearestRoundingFirst checks that at one worker the child
// nearer the relaxation value is expanded first: both children inherit the
// parent's bound, so the frontier's tie-break alone decides. The problem is
// max a + 2y s.t. a + y <= rhs, a binary, y in [0,1]: the root LP sets y = 1
// and a = rhs - 1, and both children are integral. With a two-node budget
// (the root and one child) the returned incumbent shows which child ran.
func TestTieOrderNearestRoundingFirst(t *testing.T) {
	for _, c := range []struct {
		rhs   float64
		wantA float64 // the nearest rounding of a = rhs - 1
		obj   float64 // that child's objective
	}{
		{rhs: 1.3, wantA: 0, obj: 2},
		{rhs: 1.7, wantA: 1, obj: 2.4},
	} {
		p := NewProblem(lp.Maximize)
		a := mustBin(t, p, "a", 1)
		y, err := p.AddVariable("y", 0, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		mustCon(t, p, "cap", []lp.Term{{Var: a, Coeff: 1}, {Var: y, Coeff: 1}}, lp.LE, c.rhs)
		sol, err := p.Solve(WithWorkers(1), WithMaxNodes(2), WithoutDiving(),
			WithoutCuts(), WithoutPresolve())
		if err != nil {
			t.Fatalf("rhs %v: %v", c.rhs, err)
		}
		if sol.Nodes != 2 || sol.X == nil {
			t.Fatalf("rhs %v: %d nodes, incumbent %v; want the root and one integral child",
				c.rhs, sol.Nodes, sol.X)
		}
		if sol.Value(a) != c.wantA || !almostEqual(sol.Objective, c.obj) {
			t.Errorf("rhs %v: first child has a = %v (objective %v); want the nearest rounding a = %v (objective %v)",
				c.rhs, sol.Value(a), sol.Objective, c.wantA, c.obj)
		}
	}
}

// TestOneWorkerDeterministic solves the same branching problems twice at
// one worker and requires byte-identical answers and effort counters.
func TestOneWorkerDeterministic(t *testing.T) {
	build := []func() *Problem{
		func() *Problem { return randomKnapsack(t, rand.New(rand.NewSource(11)), 40) },
		func() *Problem { return randomSetCover(t, rand.New(rand.NewSource(12)), 30, 40) },
	}
	for i, b := range build {
		first := solveOptimal(t, b(), WithWorkers(1))
		second := solveOptimal(t, b(), WithWorkers(1))
		if first.Nodes < 2 {
			t.Fatalf("problem %d decided at the root; the test needs a tree", i)
		}
		if first.Nodes != second.Nodes || first.LPIterations != second.LPIterations {
			t.Errorf("problem %d: %d nodes, %d LP iterations, then %d, %d",
				i, first.Nodes, first.LPIterations, second.Nodes, second.LPIterations)
		}
		for j := range first.X {
			if math.Float64bits(first.X[j]) != math.Float64bits(second.X[j]) {
				t.Errorf("problem %d: X[%d] = %v, then %v", i, j, first.X[j], second.X[j])
			}
		}
	}
}

// TestWorkspaceServesTree checks that a WithWorkspace workspace serves the
// tree and not just the root, at one worker and at two: worker 0 solves on
// the root's own problem and workspace, and every further worker on its own
// clone and workspace.
func TestWorkspaceServesTree(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p := randomKnapsack(t, rand.New(rand.NewSource(3)), 30)
		ws := lp.NewWorkspace()
		cfg, n := p.configure([]Option{WithWorkers(workers), WithWorkspace(ws)})
		started := time.Now()
		pr, err := prepareRoot(p, &cfg, started)
		if err != nil {
			t.Fatalf("workers %d: root: %v", workers, err)
		}
		s := newSearch(p, cfg, n, started)
		sol, err := s.run(pr)
		if err != nil {
			t.Fatalf("workers %d: search: %v", workers, err)
		}
		if sol.Status != StatusOptimal || len(s.pool) != workers {
			t.Fatalf("workers %d: status %v with %d workers; want an optimal tree search",
				workers, sol.Status, len(s.pool))
		}
		if s.pool[0].ws != ws || s.pool[0].work != pr.work {
			t.Errorf("workers %d: worker 0 does not solve on the root's problem and workspace", workers)
		}
		for id, w := range s.pool[1:] {
			if w.ws == ws || w.work == pr.work {
				t.Errorf("workers %d: worker %d shares worker 0's problem or workspace", workers, id+1)
			}
		}
		if workers == 1 && sol.PerWorker[0].Nodes <= pr.nodes {
			t.Errorf("workers 1: worker 0 solved no tree node (%d nodes in all)", sol.PerWorker[0].Nodes)
		}
	}
}
