package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"secmon/internal/ilp"
	"secmon/internal/metrics"
	"secmon/internal/model"
	"secmon/internal/synth"
)

// e7ScaleIndex generates the largest E7 scalability instance (400 monitors
// × 100 attacks), the scale the anytime acceptance criterion is stated at.
func e7ScaleIndex(t *testing.T) (*model.Index, float64) {
	t.Helper()
	sys, err := synth.Generate(synth.Config{Seed: 7, Monitors: 400, Attacks: 100})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		t.Fatalf("model.NewIndex: %v", err)
	}
	return idx, sys.TotalMonitorCost() * 0.3
}

// checkAnytimeResult verifies the core-level anytime contract on a
// deadline-stopped MaxUtility result.
func checkAnytimeResult(t *testing.T, res *Result, budget float64) {
	t.Helper()
	if res.Proven {
		return // solved before the deadline: nothing anytime to check
	}
	if res.Cost > budget+1e-9 {
		t.Errorf("cost %v exceeds budget %v", res.Cost, budget)
	}
	if res.Status == "" {
		t.Error("deadline-stopped result carries no status")
	}
	if res.BoundKnown {
		if res.BestBound < res.Utility-1e-9 {
			t.Errorf("bound %v below achieved utility %v", res.BestBound, res.Utility)
		}
		if res.Gap < 0 {
			t.Errorf("negative gap %v", res.Gap)
		}
	}
}

func TestMaxUtilityDeadlineE7Scale(t *testing.T) {
	// Acceptance criterion: a 50ms deadline at E7 scale (400 monitors × 100
	// attacks) returns a feasible deployment with a reported gap instead of
	// erroring.
	idx, budget := e7ScaleIndex(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := NewOptimizer(idx, WithContext(ctx)).MaxUtility(budget)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline MaxUtility errored: %v", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("deadline solve took %v, want well under 500ms", elapsed)
	}
	if len(res.Monitors) == 0 {
		t.Error("deadline solve returned an empty deployment")
	}
	checkAnytimeResult(t, res, budget)
	t.Logf("status=%s fallback=%v utility=%.4f bound=%.4f gap=%.4f in %v",
		res.Status, res.Fallback, res.Utility, res.BestBound, res.Gap, elapsed)
}

func TestMaxUtilityDeadlineFeatureMatrix(t *testing.T) {
	// The anytime contract must hold with every accelerator on and off, at
	// one worker and at several.
	idx, budget := e7ScaleIndex(t)
	for _, mode := range solverFeatureModes {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel()
				opt := NewOptimizer(idx, WithContext(ctx), WithWorkers(workers),
					WithSolverOptions(mode.opts...))
				start := time.Now()
				res, err := opt.MaxUtility(budget)
				elapsed := time.Since(start)
				if err != nil {
					t.Fatalf("deadline MaxUtility errored: %v", err)
				}
				if elapsed > 500*time.Millisecond {
					t.Errorf("deadline solve took %v, want well under 500ms", elapsed)
				}
				checkAnytimeResult(t, res, budget)
			})
		}
	}
}

func TestMaxUtilityCancelMidSolve(t *testing.T) {
	idx, budget := e7ScaleIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	res, err := NewOptimizer(idx, WithContext(ctx)).MaxUtility(budget)
	cancel()
	if err != nil {
		t.Fatalf("cancelled MaxUtility errored: %v", err)
	}
	checkAnytimeResult(t, res, budget)
	if !res.Proven && !res.Interrupted {
		t.Error("cancelled unproven result not marked Interrupted")
	}
}

func TestMinCostDeadlineFallsBack(t *testing.T) {
	idx, _ := e7ScaleIndex(t)
	// A pre-cancelled context guarantees the solver stops with no
	// incumbent, forcing the full-deployment fallback.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := NewOptimizer(idx, WithContext(ctx), WithClampToAchievable())
	res, err := opt.MinCost(CoverageTargets{Global: 0.8})
	if err != nil {
		t.Fatalf("cancelled MinCost errored: %v", err)
	}
	if !res.Fallback {
		t.Error("no-incumbent MinCost not marked Fallback")
	}
	if res.Status != ilp.StatusInterrupted.String() {
		t.Errorf("status = %q, want %q", res.Status, ilp.StatusInterrupted)
	}
	if len(res.Monitors) != len(idx.MonitorIDs()) {
		t.Errorf("fallback deployed %d of %d monitors, want the full set",
			len(res.Monitors), len(idx.MonitorIDs()))
	}
}

func TestMaxUtilityUndeadlinedUnchanged(t *testing.T) {
	// A background context must leave the solve bit-identical to a plain
	// one: same objective, selection and node count.
	idx := testIndex(t)
	plain, err := NewOptimizer(idx).MaxUtility(45)
	if err != nil {
		t.Fatalf("plain MaxUtility: %v", err)
	}
	withCtx, err := NewOptimizer(idx, WithContext(context.Background())).MaxUtility(45)
	if err != nil {
		t.Fatalf("ctx MaxUtility: %v", err)
	}
	if plain.Utility != withCtx.Utility || plain.Cost != withCtx.Cost {
		t.Errorf("result changed: (%v,%v) vs (%v,%v)",
			plain.Utility, plain.Cost, withCtx.Utility, withCtx.Cost)
	}
	if !sameMonitors(plain.Monitors, withCtx.Monitors) {
		t.Errorf("selection changed: %v vs %v", plain.Monitors, withCtx.Monitors)
	}
	if plain.Stats.Nodes != withCtx.Stats.Nodes {
		t.Errorf("node count changed: %d vs %d", plain.Stats.Nodes, withCtx.Stats.Nodes)
	}
}

// TestContextFallbackEveryObjective checks WithContext's contract on every
// budgeted objective: a solve stopped before its first incumbent falls back
// to the greedy budget-feasible deployment instead of erroring, reports its
// gap against that objective's own value and fills the objective's result
// fields from the fallback deployment. A node limit hit after the root LP
// (no dive, so no incumbent) takes the same path with a proven bound, so
// the gap is checked too.
func TestContextFallbackEveryObjective(t *testing.T) {
	idx, budget := e7ScaleIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const q, wu, we = 0.3, 1.0, 0.5
	weights := Objectives{Utility: 1, Richness: 0.5, Redundancy: 0.2}
	// Each solve returns the result, its reported objective and that
	// objective recomputed from the deployment.
	solves := []struct {
		name  string
		solve func(o *Optimizer) (*Result, float64, float64, error)
	}{
		{"utility", func(o *Optimizer) (*Result, float64, float64, error) {
			res, err := o.MaxUtility(budget)
			if err != nil {
				return nil, 0, 0, err
			}
			return res, res.Utility, metrics.Utility(idx, res.Deployment), nil
		}},
		{"weighted", func(o *Optimizer) (*Result, float64, float64, error) {
			res, err := o.MaxWeighted(budget, weights)
			if err != nil {
				return nil, 0, 0, err
			}
			d := res.Deployment
			return &res.Result, res.Score, weights.Utility*metrics.Utility(idx, d) +
				weights.Richness*metrics.Richness(idx, d) + weights.Redundancy*metrics.MeanRedundancy(idx, d), nil
		}},
		{"expected-utility", func(o *Optimizer) (*Result, float64, float64, error) {
			res, err := o.MaxExpectedUtility(budget, q)
			if err != nil {
				return nil, 0, 0, err
			}
			return &res.Result, res.ExpectedUtility, metrics.ExpectedUtility(idx, res.Deployment, q), nil
		}},
		{"earliness", func(o *Optimizer) (*Result, float64, float64, error) {
			res, err := o.MaxEarliness(budget, wu, we)
			if err != nil {
				return nil, 0, 0, err
			}
			if !approx(res.EarlinessValue, metrics.Earliness(idx, res.Deployment)) {
				return nil, 0, 0, fmt.Errorf("earliness %v, deployment's %v",
					res.EarlinessValue, metrics.Earliness(idx, res.Deployment))
			}
			return &res.Result, res.Score, wu*metrics.Utility(idx, res.Deployment) +
				we*metrics.Earliness(idx, res.Deployment), nil
		}},
	}
	greedy := greedyFrom(idx, budget, nil)
	for _, stop := range []struct {
		name   string
		opt    Option
		status ilp.Status
	}{
		{"cancelled", WithContext(ctx), ilp.StatusInterrupted},
		{"node-limit", WithSolverOptions(ilp.WithMaxNodes(1), ilp.WithoutDiving()), ilp.StatusLimit},
	} {
		for _, c := range solves {
			t.Run(stop.name+"/"+c.name, func(t *testing.T) {
				res, reported, exact, err := c.solve(NewOptimizer(idx, stop.opt))
				if err != nil {
					t.Fatalf("stopped solve errored: %v", err)
				}
				interrupted := stop.status == ilp.StatusInterrupted
				if !res.Fallback || res.Interrupted != interrupted || res.Status != stop.status.String() {
					t.Errorf("fallback %v, interrupted %v, status %q; want a fallback with status %q",
						res.Fallback, res.Interrupted, res.Status, stop.status)
				}
				if !greedy.Equal(res.Deployment) {
					t.Errorf("deployment %v, want the greedy %v", res.Monitors, greedy.IDs())
				}
				if res.Cost > budget+1e-9 || res.Budget != budget {
					t.Errorf("cost %v, budget %v; want within %v", res.Cost, res.Budget, budget)
				}
				if len(res.Monitors) == 0 || !approx(reported, exact) {
					t.Errorf("%d monitors, objective %v; want a nonempty deployment scoring %v",
						len(res.Monitors), reported, exact)
				}
				if res.BoundKnown != !interrupted {
					t.Fatalf("bound known %v; want a bound exactly when the root LP finished", res.BoundKnown)
				}
				if gap := math.Abs(res.BestBound-exact) / math.Max(1, math.Abs(exact)); res.BoundKnown && !approx(res.Gap, gap) {
					t.Errorf("gap %v, want %v against the objective's own value", res.Gap, gap)
				}
			})
		}
	}
}
