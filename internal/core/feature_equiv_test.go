package core

import (
	"testing"

	"secmon/internal/casestudy"
	"secmon/internal/ilp"
	"secmon/internal/model"
	"secmon/internal/synth"
)

// solverFeatureModes enumerates the solver accelerators' escape hatches.
var solverFeatureModes = []struct {
	name string
	opts []ilp.Option
}{
	{name: "all-on"},
	{name: "no-warm", opts: []ilp.Option{ilp.WithoutWarmStart()}},
	{name: "no-cuts", opts: []ilp.Option{ilp.WithoutCuts()}},
	{name: "no-presolve", opts: []ilp.Option{ilp.WithoutPresolve()}},
	{name: "all-off", opts: []ilp.Option{ilp.WithoutWarmStart(), ilp.WithoutCuts(), ilp.WithoutPresolve()}},
}

// checkFeatureEquivalence solves MaxUtility for every feature mode and
// worker count in {1, 2, 4} and requires the proven optimum to match an
// all-features-off one-worker reference. One-worker solves are
// deterministic, so there the selected monitor set must match exactly;
// parallel schedules may surface alternate optima, so for workers > 1 only
// utility, proven status and the budget bound are compared.
func checkFeatureEquivalence(t *testing.T, idx *model.Index, budget float64) {
	t.Helper()
	ref, err := NewOptimizer(idx, WithWorkers(1),
		WithSolverOptions(ilp.WithoutWarmStart(), ilp.WithoutCuts(), ilp.WithoutPresolve())).
		MaxUtility(budget)
	if err != nil {
		t.Fatalf("reference MaxUtility(%v): %v", budget, err)
	}
	if !ref.Proven {
		t.Fatalf("reference solve at budget %v not proven optimal", budget)
	}
	for _, mode := range solverFeatureModes {
		for _, w := range []int{1, 2, 4} {
			res, err := NewOptimizer(idx, WithWorkers(w), WithSolverOptions(mode.opts...)).
				MaxUtility(budget)
			if err != nil {
				t.Fatalf("%s workers %d MaxUtility(%v): %v", mode.name, w, budget, err)
			}
			if !approx(res.Utility, ref.Utility) {
				t.Errorf("%s workers %d budget %v: utility = %v, want %v",
					mode.name, w, budget, res.Utility, ref.Utility)
			}
			if !res.Proven {
				t.Errorf("%s workers %d budget %v: not proven optimal", mode.name, w, budget)
			}
			if res.Cost > budget+1e-9 {
				t.Errorf("%s workers %d budget %v: cost %v exceeds budget",
					mode.name, w, budget, res.Cost)
			}
			if w == 1 && !sameMonitors(res.Monitors, ref.Monitors) {
				t.Errorf("%s workers 1 budget %v: monitors = %v, want %v",
					mode.name, budget, res.Monitors, ref.Monitors)
			}
		}
	}
}

func sameMonitors(a, b []model.MonitorID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFeatureEquivalenceCaseStudy checks warm starts, root presolve and
// cover cuts leave the case-study optimum and its monitor selection
// untouched across a spread of budgets.
func TestFeatureEquivalenceCaseStudy(t *testing.T) {
	idx, err := casestudy.BuildIndex()
	if err != nil {
		t.Fatalf("case study: %v", err)
	}
	total := idx.System().TotalMonitorCost()
	for _, frac := range []float64{0.2, 0.45, 0.7} {
		checkFeatureEquivalence(t, idx, total*frac)
	}
}

// TestFeatureEquivalenceSynthetic repeats the feature sweep on synthetic
// systems large enough to trigger branching, presolve fixing and cut
// separation.
func TestFeatureEquivalenceSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic feature sweep is slow")
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
		checkFeatureEquivalence(t, idx, sys.TotalMonitorCost()*0.3)
	}
}

// TestSolveStatsWarmRate checks the aggregated statistics surface a
// non-zero warm-start hit rate on a branching-heavy instance and that the
// JSON-facing helper agrees with the raw counters.
func TestSolveStatsWarmRate(t *testing.T) {
	sys, err := synth.Generate(synth.Config{Seed: 7, Monitors: 60, Attacks: 40})
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	res, err := NewOptimizer(idx).MaxUtility(sys.TotalMonitorCost() * 0.3)
	if err != nil {
		t.Fatalf("MaxUtility: %v", err)
	}
	st := res.Stats
	if st.WarmAttempts == 0 {
		t.Fatalf("WarmAttempts = 0, want > 0")
	}
	if rate := st.WarmStartHitRate(); rate <= 0 || rate > 1 {
		t.Errorf("WarmStartHitRate = %v, want in (0, 1]", rate)
	}
	if st.WarmIterations+st.ColdIterations != st.LPIterations {
		t.Errorf("WarmIterations + ColdIterations = %d, want LPIterations = %d",
			st.WarmIterations+st.ColdIterations, st.LPIterations)
	}
}
