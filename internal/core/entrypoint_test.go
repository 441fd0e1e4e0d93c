package core

import (
	"context"
	"testing"

	"secmon/internal/lp"
	"secmon/internal/model"
)

// TestEntryPointSettings lists every public exact-solve entry point and
// checks that the optimizer's settings reach the solve it runs: a kernel
// pin shows in the eta-versus-LU counters, WithWorkers(2) in Stats.Workers,
// and a pre-cancelled context as an interrupted or fallback result, not an
// error. Sweeps are checked on their lowest budget point, which the warm
// sweep always solves in full.
func TestEntryPointSettings(t *testing.T) {
	idx := decompBlockIndex(t, 71, 100, 50, 4, 0.06)
	cidx := decompBlockIndex(t, 72, 80, 40, 4, 0)
	budget := 0.3 * idx.System().TotalMonitorCost()
	sweep := []float64{budget, 2 * budget}
	targets := CoverageTargets{Global: 0.8}
	existing := model.NewDeployment(idx.MonitorIDs()[0])
	cexisting := model.NewDeployment(cidx.MonitorIDs()[0])
	lowest := func(points []SweepPoint, err error) (*Result, error) {
		if err != nil {
			return nil, err
		}
		return points[0].Optimal, nil
	}
	decomposed := []Option{WithDecomposition()}

	for _, e := range []struct {
		name  string
		idx   *model.Index
		opts  []Option
		solve func(o *Optimizer) (*Result, error)
	}{
		{"MaxUtility", idx, nil, func(o *Optimizer) (*Result, error) { return o.MaxUtility(budget) }},
		{"MaxUtilityIncremental", idx, nil, func(o *Optimizer) (*Result, error) {
			return o.MaxUtilityIncremental(budget, existing)
		}},
		{"MinCost", cidx, nil, func(o *Optimizer) (*Result, error) { return o.MinCost(targets) }},
		{"MinCostIncremental", cidx, nil, func(o *Optimizer) (*Result, error) {
			return o.MinCostIncremental(targets, cexisting)
		}},
		{"MaxUtilityWarm", idx, nil, func(o *Optimizer) (*Result, error) {
			res, _, err := o.MaxUtilityWarm(budget, nil)
			return res, err
		}},
		{"MinCostWarm", cidx, nil, func(o *Optimizer) (*Result, error) {
			res, _, err := o.MinCostWarm(targets, nil)
			return res, err
		}},
		{"ParetoSweep", idx, nil, func(o *Optimizer) (*Result, error) { return lowest(o.ParetoSweep(sweep, 1)) }},
		{"ParetoSweepWarm", idx, nil, func(o *Optimizer) (*Result, error) {
			return lowest(o.ParetoSweepWarm(sweep, 1, 1))
		}},
		{"MaxWeighted", idx, nil, func(o *Optimizer) (*Result, error) {
			res, err := o.MaxWeighted(budget, Objectives{Utility: 1, Richness: 0.5, Redundancy: 0.2})
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		}},
		{"MaxExpectedUtility", idx, nil, func(o *Optimizer) (*Result, error) {
			res, err := o.MaxExpectedUtility(budget, 0.3)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		}},
		{"MaxEarliness", idx, nil, func(o *Optimizer) (*Result, error) {
			res, err := o.MaxEarliness(budget, 1, 0.5)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		}},
		{"MaxUtility/decomposed", idx, decomposed, func(o *Optimizer) (*Result, error) { return o.MaxUtility(budget) }},
		{"MinCost/decomposed", cidx, decomposed, func(o *Optimizer) (*Result, error) { return o.MinCost(targets) }},
	} {
		t.Run(e.name, func(t *testing.T) {
			solve := func(opts ...Option) *Result {
				t.Helper()
				all := append(append([]Option{WithClampToAchievable()}, e.opts...), opts...)
				res, err := e.solve(NewOptimizer(e.idx, all...))
				if err != nil {
					t.Fatalf("%v", err)
				}
				if (e.opts != nil) != (res.Stats.Decomposition != nil) {
					t.Fatalf("decomposition stats %v; want them exactly on the decomposed solves", res.Stats.Decomposition)
				}
				return res
			}
			for _, k := range []lp.Kernel{lp.KernelEta, lp.KernelLU} {
				st := solve(WithWorkers(1), WithKernel(k)).Stats
				if eta := k == lp.KernelEta; eta != (st.Etas > 0) || eta == (st.FactorNnz > 0) {
					t.Errorf("kernel %v: %d eta vectors, largest LU factorization %d nonzeros", k, st.Etas, st.FactorNnz)
				}
			}
			if w := solve(WithWorkers(2)).Stats.Workers; w != 2 {
				t.Errorf("WithWorkers(2) solve reports %d workers", w)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if res := solve(WithContext(ctx)); res.Proven || !res.Interrupted && !res.Fallback {
				t.Errorf("cancelled solve: proven %v, interrupted %v, fallback %v; want an anytime stop",
					res.Proven, res.Interrupted, res.Fallback)
			}
		})
	}
}
