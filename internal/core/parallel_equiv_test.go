package core

import (
	"testing"

	"secmon/internal/casestudy"
	"secmon/internal/model"
	"secmon/internal/synth"
)

// equivWorkers are the branch-and-bound worker counts checked for
// equivalence with the one-worker solve.
var equivWorkers = []int{1, 2, 8}

// checkParallelEquivalence solves MaxUtility at the given budget for every
// worker count and requires identical utility, cost and proven status.
func checkParallelEquivalence(t *testing.T, idx *model.Index, budget float64) {
	t.Helper()
	ref, err := NewOptimizer(idx, WithWorkers(1)).MaxUtility(budget)
	if err != nil {
		t.Fatalf("one-worker MaxUtility(%v): %v", budget, err)
	}
	if !ref.Proven {
		t.Fatalf("one-worker solve at budget %v not proven optimal", budget)
	}
	for _, w := range equivWorkers[1:] {
		res, err := NewOptimizer(idx, WithWorkers(w)).MaxUtility(budget)
		if err != nil {
			t.Fatalf("workers %d MaxUtility(%v): %v", w, budget, err)
		}
		if !approx(res.Utility, ref.Utility) {
			t.Errorf("workers %d budget %v: utility = %v, want %v", w, budget, res.Utility, ref.Utility)
		}
		if !res.Proven {
			t.Errorf("workers %d budget %v: not proven optimal", w, budget)
		}
		if res.Stats.Workers != w {
			t.Errorf("workers %d budget %v: Stats.Workers = %d", w, budget, res.Stats.Workers)
		}
		// Equally-optimal deployments may differ between schedules, but
		// both must be within budget and equally useful; cost can only
		// differ among alternate optima, so check the budget bound.
		if res.Cost > budget+1e-9 {
			t.Errorf("workers %d budget %v: cost %v exceeds budget", w, budget, res.Cost)
		}
	}
}

// TestParallelEquivalenceCaseStudy checks the paper's case-study system
// yields the same optimal utility at every worker count across a spread of
// budgets.
func TestParallelEquivalenceCaseStudy(t *testing.T) {
	idx, err := casestudy.BuildIndex()
	if err != nil {
		t.Fatalf("case study: %v", err)
	}
	total := idx.System().TotalMonitorCost()
	for _, frac := range []float64{0.2, 0.45, 0.7} {
		checkParallelEquivalence(t, idx, total*frac)
	}
}

// TestParallelEquivalenceSynthetic checks synthetic systems from
// internal/synth agree across worker counts.
func TestParallelEquivalenceSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic equivalence sweep is slow")
	}
	for _, cfg := range []synth.Config{
		{Seed: 41, Monitors: 20, Attacks: 20},
		{Seed: 42, Monitors: 35, Attacks: 25},
	} {
		sys, err := synth.Generate(cfg)
		if err != nil {
			t.Fatalf("synth.Generate(%+v): %v", cfg, err)
		}
		idx, err := model.NewIndex(sys)
		if err != nil {
			t.Fatalf("index: %v", err)
		}
		checkParallelEquivalence(t, idx, sys.TotalMonitorCost()*0.3)
	}
}

// TestParallelEquivalenceMinCost checks the MinCost flavor agrees across
// worker counts on the case study (cost is the objective there, so optimal
// cost must match exactly).
func TestParallelEquivalenceMinCost(t *testing.T) {
	idx, err := casestudy.BuildIndex()
	if err != nil {
		t.Fatalf("case study: %v", err)
	}
	ref, err := NewOptimizer(idx, WithWorkers(1), WithClampToAchievable()).
		MinCost(CoverageTargets{Global: 0.8})
	if err != nil {
		t.Fatalf("one-worker MinCost: %v", err)
	}
	for _, w := range equivWorkers[1:] {
		res, err := NewOptimizer(idx, WithWorkers(w), WithClampToAchievable()).
			MinCost(CoverageTargets{Global: 0.8})
		if err != nil {
			t.Fatalf("workers %d MinCost: %v", w, err)
		}
		if !approx(res.Cost, ref.Cost) {
			t.Errorf("workers %d: cost = %v, want %v", w, res.Cost, ref.Cost)
		}
		if res.Proven != ref.Proven {
			t.Errorf("workers %d: proven = %v, want %v", w, res.Proven, ref.Proven)
		}
	}
}
