package ilp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"secmon/internal/lp"
)

var equivWorkerCounts = []int{1, 2, 8}

// randomKnapsack builds a random 0/1 knapsack whose LP relaxation is
// fractional, so branch-and-bound is exercised.
func randomKnapsack(t *testing.T, rng *rand.Rand, n int) *Problem {
	t.Helper()
	values := make([]float64, n)
	weights := make([]float64, n)
	total := 0.0
	for i := range values {
		values[i] = 1 + math.Floor(rng.Float64()*99)
		weights[i] = 1 + math.Floor(rng.Float64()*49)
		total += weights[i]
	}
	return knapsackProblem(t, values, weights, math.Floor(total*0.4))
}

func knapsackProblem(t *testing.T, values, weights []float64, capacity float64) *Problem {
	t.Helper()
	p := NewProblem(lp.Maximize)
	terms := make([]lp.Term, len(values))
	for i := range values {
		id := mustBin(t, p, "item", values[i])
		terms[i] = lp.Term{Var: id, Coeff: weights[i]}
	}
	mustCon(t, p, "capacity", terms, lp.LE, capacity)
	return p
}

// randomSetCover builds a random minimization set-cover: every element must
// be covered by at least one of the sets containing it.
func randomSetCover(t *testing.T, rng *rand.Rand, sets, elems int) *Problem {
	t.Helper()
	p := NewProblem(lp.Minimize)
	ids := make([]lp.VarID, sets)
	for i := range ids {
		ids[i] = mustBin(t, p, "set", 1+math.Floor(rng.Float64()*9))
	}
	for e := 0; e < elems; e++ {
		var terms []lp.Term
		for i := range ids {
			if rng.Float64() < 0.3 {
				terms = append(terms, lp.Term{Var: ids[i], Coeff: 1})
			}
		}
		if len(terms) == 0 { // guarantee coverability
			terms = append(terms, lp.Term{Var: ids[rng.Intn(sets)], Coeff: 1})
		}
		mustCon(t, p, "cover", terms, lp.GE, 1)
	}
	return p
}

func checkWorkerStats(t *testing.T, sol *Solution, workers int) {
	t.Helper()
	if sol.Workers != workers {
		t.Errorf("Workers = %d, want %d", sol.Workers, workers)
	}
	if len(sol.PerWorker) != workers {
		t.Fatalf("len(PerWorker) = %d, want %d", len(sol.PerWorker), workers)
	}
	nodes, iters, warmAtt, warmHits := 0, 0, 0, 0
	for _, st := range sol.PerWorker {
		nodes += st.Nodes
		iters += st.LPIterations
		warmAtt += st.WarmAttempts
		warmHits += st.WarmHits
	}
	if nodes != sol.Nodes {
		t.Errorf("sum(PerWorker.Nodes) = %d, want Nodes = %d", nodes, sol.Nodes)
	}
	if iters != sol.LPIterations {
		t.Errorf("sum(PerWorker.LPIterations) = %d, want LPIterations = %d", iters, sol.LPIterations)
	}
	if warmAtt != sol.WarmAttempts {
		t.Errorf("sum(PerWorker.WarmAttempts) = %d, want WarmAttempts = %d", warmAtt, sol.WarmAttempts)
	}
	if warmHits != sol.WarmHits {
		t.Errorf("sum(PerWorker.WarmHits) = %d, want WarmHits = %d", warmHits, sol.WarmHits)
	}
	if sol.WarmHits > sol.WarmAttempts {
		t.Errorf("WarmHits = %d exceeds WarmAttempts = %d", sol.WarmHits, sol.WarmAttempts)
	}
	if sol.WarmIterations+sol.ColdIterations != sol.LPIterations {
		t.Errorf("WarmIterations + ColdIterations = %d, want LPIterations = %d",
			sol.WarmIterations+sol.ColdIterations, sol.LPIterations)
	}
}

// TestParallelEquivalenceRandom checks that multi-worker solves prove the
// same optimal objective and status as one worker on random knapsack
// and set-cover instances. Run under -race this also exercises the shared
// frontier, incumbent and pseudo-cost tables for data races.
func TestParallelEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		var p *Problem
		if trial%2 == 0 {
			p = randomKnapsack(t, rng, 12+trial)
		} else {
			p = randomSetCover(t, rng, 10+trial, 18)
		}
		ref := solveOptimal(t, p, WithWorkers(1))
		for _, w := range equivWorkerCounts[1:] {
			sol := solveOptimal(t, p, WithWorkers(w))
			if !almostEqual(sol.Objective, ref.Objective) {
				t.Errorf("trial %d workers %d: objective = %v, want %v", trial, w, sol.Objective, ref.Objective)
			}
			if !almostEqual(sol.BestBound, ref.BestBound) {
				t.Errorf("trial %d workers %d: bound = %v, want %v", trial, w, sol.BestBound, ref.BestBound)
			}
			checkWorkerStats(t, sol, w)
		}
	}
}

// featureModes enumerates every combination of the solver accelerators'
// escape hatches, from everything on to everything off.
var featureModes = []struct {
	name string
	opts []Option
}{
	{name: "all-on"},
	{name: "no-warm", opts: []Option{WithoutWarmStart()}},
	{name: "no-cuts", opts: []Option{WithoutCuts()}},
	{name: "no-presolve", opts: []Option{WithoutPresolve()}},
	{name: "all-off", opts: []Option{WithoutWarmStart(), WithoutCuts(), WithoutPresolve()}},
}

// TestParallelEquivalenceWithFeatures checks that warm starts, root presolve
// and cover cuts never change the proven answer: for every feature mode and
// worker count in {1, 2, 4}, status, objective and best bound must match a
// fully-featured one-worker reference solve.
func TestParallelEquivalenceWithFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 4; trial++ {
		var p *Problem
		if trial%2 == 0 {
			p = randomKnapsack(t, rng, 14+trial)
		} else {
			p = randomSetCover(t, rng, 12+trial, 20)
		}
		ref := solveOptimal(t, p, WithWorkers(1))
		for _, mode := range featureModes {
			for _, w := range []int{1, 2, 4} {
				opts := append([]Option{WithWorkers(w)}, mode.opts...)
				sol := solveOptimal(t, p, opts...)
				if sol.Status != ref.Status {
					t.Errorf("trial %d %s workers %d: status = %v, want %v",
						trial, mode.name, w, sol.Status, ref.Status)
				}
				if !almostEqual(sol.Objective, ref.Objective) {
					t.Errorf("trial %d %s workers %d: objective = %v, want %v",
						trial, mode.name, w, sol.Objective, ref.Objective)
				}
				if !almostEqual(sol.BestBound, ref.BestBound) {
					t.Errorf("trial %d %s workers %d: bound = %v, want %v",
						trial, mode.name, w, sol.BestBound, ref.BestBound)
				}
				checkWorkerStats(t, sol, w)
			}
		}
	}
}

// TestParallelRootObjective checks the root relaxation bound is recorded
// identically regardless of worker count.
func TestParallelRootObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomKnapsack(t, rng, 15)
	ref := solveOptimal(t, p, WithWorkers(1))
	for _, w := range equivWorkerCounts[1:] {
		sol := solveOptimal(t, p, WithWorkers(w))
		if !almostEqual(sol.RootObjective, ref.RootObjective) {
			t.Errorf("workers %d: root objective = %v, want %v", w, sol.RootObjective, ref.RootObjective)
		}
	}
}

// TestParallelInfeasible checks all worker counts agree on infeasibility.
func TestParallelInfeasible(t *testing.T) {
	for _, w := range equivWorkerCounts {
		p := NewProblem(lp.Maximize)
		x := mustBin(t, p, "x", 1)
		y := mustBin(t, p, "y", 1)
		mustCon(t, p, "hi", []lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}}, lp.GE, 3)
		sol, err := p.Solve(WithWorkers(w))
		if err != nil {
			t.Fatalf("workers %d: Solve: %v", w, err)
		}
		if sol.Status != StatusInfeasible {
			t.Errorf("workers %d: status = %v, want infeasible", w, sol.Status)
		}
	}
}

// TestParallelLatticeInfeasible checks the pre-LP lattice-infeasibility
// shortcut (Ceil(lo) > Floor(hi)) in the parallel path.
func TestParallelLatticeInfeasible(t *testing.T) {
	for _, w := range equivWorkerCounts {
		p := NewProblem(lp.Minimize)
		if _, err := p.AddIntegerVariable("x", 0.4, 0.6, 1); err != nil {
			t.Fatalf("AddIntegerVariable: %v", err)
		}
		sol, err := p.Solve(WithWorkers(w))
		if err != nil {
			t.Fatalf("workers %d: Solve: %v", w, err)
		}
		if sol.Status != StatusInfeasible {
			t.Errorf("workers %d: status = %v, want infeasible", w, sol.Status)
		}
	}
}

// TestParallelUnbounded checks an unbounded root relaxation is reported as
// unbounded at every worker count.
func TestParallelUnbounded(t *testing.T) {
	for _, w := range equivWorkerCounts {
		p := NewProblem(lp.Maximize)
		if _, err := p.AddIntegerVariable("x", 0, math.Inf(1), 1); err != nil {
			t.Fatalf("AddIntegerVariable: %v", err)
		}
		sol, err := p.Solve(WithWorkers(w))
		if err != nil {
			t.Fatalf("workers %d: Solve: %v", w, err)
		}
		if sol.Status != StatusUnbounded {
			t.Errorf("workers %d: status = %v, want unbounded", w, sol.Status)
		}
	}
}

// TestParallelNodeLimit checks the node budget stops the parallel search
// with a feasible-or-node-limit status, and that stats stay consistent.
func TestParallelNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range equivWorkerCounts {
		p := randomKnapsack(t, rng, 20)
		sol, err := p.Solve(WithWorkers(w), WithMaxNodes(1), WithoutDiving())
		if err != nil {
			t.Fatalf("workers %d: Solve: %v", w, err)
		}
		if sol.Status == StatusOptimal {
			// A 20-item random knapsack essentially never solves at the
			// root, but tolerate integral roots rather than flake.
			continue
		}
		if sol.Status != StatusLimit && sol.Status != StatusFeasible {
			t.Errorf("workers %d: status = %v, want node-limit or feasible", w, sol.Status)
		}
		checkWorkerStats(t, sol, w)
	}
}

// TestParallelTimeLimitImmediate repeats the one-worker immediate-timeout
// test at four workers: a 1ns budget must stop the search on the very first
// limit check.
func TestParallelTimeLimitImmediate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomKnapsack(t, rng, 15)
	sol, err := p.Solve(WithWorkers(4), WithTimeLimit(time.Nanosecond))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusLimit && sol.Status != StatusFeasible {
		t.Errorf("status = %v, want a limit status", sol.Status)
	}
	if sol.Nodes != 0 {
		t.Errorf("nodes = %d, want 0 (limit hit before first node)", sol.Nodes)
	}
}

// TestWithWorkersSequentialStats checks that WithWorkers(1) reports one
// worker whose stats carry the whole solve, and the known optimum.
func TestWithWorkersSequentialStats(t *testing.T) {
	p := knapsackProblem(t, []float64{60, 100, 120}, []float64{10, 20, 30}, 50)
	sol := solveOptimal(t, p, WithWorkers(1))
	if sol.Workers != 1 {
		t.Errorf("Workers = %d, want 1", sol.Workers)
	}
	checkWorkerStats(t, sol, 1)
	if !almostEqual(sol.Objective, 220) {
		t.Errorf("objective = %v, want 220", sol.Objective)
	}
}
