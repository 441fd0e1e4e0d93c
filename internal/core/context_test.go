package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"secmon/internal/ilp"
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
