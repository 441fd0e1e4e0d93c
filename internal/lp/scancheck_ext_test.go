package lp_test

import (
	"testing"

	"secmon/internal/core"
	"secmon/internal/lp"
	"secmon/internal/model"
	"secmon/internal/synth"
)

// TestScanCheckInstances runs the full-scan pivot cross-check through whole
// branch-and-bound solves of the E7 instance (400 monitors x 100 attacks,
// LU pinned) and the plan-cold mid instance (350 x 280, seed 1, auto
// kernel), MaxUtility and MinCost each: the LU primal devex roots, the dual
// dives and tree nodes, and the bound-flipping dual MinCost roots.
func TestScanCheckInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("whole solves under the cross-check")
	}
	finish := lp.EnableScanCheck(t)
	for _, c := range []struct {
		name   string
		sys    synth.Config
		opts   []core.Option
		budget float64 // fraction of the total monitor cost; 0 runs MinCost at 0.9
	}{
		{"e7-maxutil", synth.Config{Seed: 1, Monitors: 400, Attacks: 100}, []core.Option{core.WithKernel(lp.KernelLU)}, 0.3},
		{"e7-mincost", synth.Config{Seed: 1, Monitors: 400, Attacks: 100}, []core.Option{core.WithKernel(lp.KernelLU)}, 0},
		{"mid-maxutil-s1", synth.Config{Seed: 1, Monitors: 350, Attacks: 280}, nil, 0.4},
		{"mid-mincost-s1", synth.Config{Seed: 1, Monitors: 350, Attacks: 280}, nil, 0},
	} {
		sys, err := synth.Generate(c.sys)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := model.NewIndex(sys)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.NewOptimizer(idx, append(c.opts, core.WithWorkers(1), core.WithClampToAchievable())...)
		if c.budget > 0 {
			_, err = opt.MaxUtility(sys.TotalMonitorCost() * c.budget)
		} else {
			_, err = opt.MinCost(core.CoverageTargets{Global: 0.9})
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	dual, primal := finish()
	t.Logf("checked %d dual and %d primal pivots", dual, primal)
	if dual == 0 || primal == 0 {
		t.Fatalf("coverage: %d dual and %d primal pivots checked", dual, primal)
	}
}
