package core

import (
	"errors"
	"fmt"
	"runtime"

	"secmon/internal/decomp"
	"secmon/internal/ilp"
	"secmon/internal/lp"
	"secmon/internal/metrics"
	"secmon/internal/model"
)

// DecompositionThreshold is the monitor count at which exact solves switch to
// the graph-partitioned decomposition solver automatically. Below it the
// monolithic branch-and-bound is consistently fast; above it the decomposed
// coordinator wins by orders of magnitude on segmentable systems. Override
// per-optimizer with WithDecomposition / WithoutDecomposition.
const DecompositionThreshold = 1500

// shouldDecompose reports whether the next exact solve should try the
// decomposition solver. Only the plain compact formulation decomposes:
// the expanded encoding, corroboration, certification and the dense oracle
// kernel pin the monolithic path.
func (o *Optimizer) shouldDecompose() bool {
	if o.cfg.decompose < 0 {
		return false
	}
	if o.cfg.expanded || o.cfg.certify || o.corroborationLevel() > 1 || o.cfg.kernel == lp.KernelDense {
		return false
	}
	if o.cfg.decompose > 0 {
		return true
	}
	return len(o.idx.MonitorIDs()) >= DecompositionThreshold
}

func (o *Optimizer) decompConfig() decomp.Config {
	return decomp.Config{Workers: o.cfg.workers, Ctx: o.cfg.ctx}
}

// maxUtilityDecomposed runs the budgeted solve through the decomposition
// coordinator. A nil, nil return means the instance did not decompose and the
// caller should fall through to the monolithic path.
func (o *Optimizer) maxUtilityDecomposed(budget float64, fixed *model.Deployment) (*Result, error) {
	dres, err := decomp.MaxUtility(o.idx, budget, fixed, o.decompConfig())
	if errors.Is(err, decomp.ErrNotDecomposable) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: decomposed max-utility: %w", err)
	}
	d := model.NewDeployment()
	for _, id := range dres.Monitors {
		d.Add(id)
	}
	if !o.cfg.noPrune {
		o.pruneRedundant(d, fixed)
		o.canonicalizeTies(d, fixed)
	}
	res := o.newDecompResult(d, dres)
	res.Budget = budget
	res.BudgetShadowPrice = dres.ShadowPrice
	return res, nil
}

// minCostDecomposed runs the coverage-target solve through the exact
// component decomposition. A nil, nil return means the instance did not
// decompose (or a segment stopped with no incumbent) and the caller should
// fall through to the monolithic path.
func (o *Optimizer) minCostDecomposed(targets CoverageTargets, fixed *model.Deployment) (*Result, error) {
	required := make(map[model.AttackID]float64)
	for _, aid := range o.idx.AttackIDs() {
		r, err := o.requiredEvidence(aid, &targets)
		if err != nil {
			return nil, err
		}
		if r > 0 {
			required[aid] = r
		}
	}
	dres, err := decomp.MinCost(o.idx, required, fixed, o.decompConfig())
	if errors.Is(err, decomp.ErrNotDecomposable) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: decomposed min-cost: %w", err)
	}
	switch dres.Status {
	case ilp.StatusOptimal, ilp.StatusFeasible:
	case ilp.StatusInfeasible:
		return nil, ErrInfeasible
	default:
		// A segment stopped with no incumbent: let the monolithic path run
		// and apply its fallback contract.
		return nil, nil
	}
	d := model.NewDeployment()
	for _, id := range dres.Monitors {
		d.Add(id)
	}
	return o.newDecompResult(d, dres), nil
}

// newDecompResult maps a decomposition outcome onto the Result contract.
func (o *Optimizer) newDecompResult(d *model.Deployment, dres *decomp.Result) *Result {
	workers := o.cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	stats := dres.Stats
	return &Result{
		Deployment:  d,
		Monitors:    d.IDs(),
		Utility:     metrics.Utility(o.idx, d),
		Cost:        metrics.Cost(o.idx, d),
		Proven:      dres.Status == ilp.StatusOptimal,
		Status:      dres.Status.String(),
		BestBound:   dres.BestBound,
		BoundKnown:  dres.BoundKnown,
		Gap:         dres.Gap,
		Interrupted: dres.Interrupted,
		Stats: SolveStats{
			Nodes:                    dres.Nodes,
			LPIterations:             dres.LPIterations,
			Elapsed:                  dres.Elapsed,
			Workers:                  workers,
			Etas:                     dres.Kernel.Etas,
			Refactorizations:         dres.Kernel.Refactorizations,
			DevexResets:              dres.Kernel.DevexResets,
			Updates:                  dres.Kernel.Updates,
			BoundFlips:               dres.Kernel.BoundFlips,
			AdaptiveRefactorizations: dres.Kernel.AdaptiveRefactorizations,
			FactorNnz:                dres.Kernel.FactorNnz,
			KernelFallbacks:          dres.Kernel.KernelFallbacks,
			Decomposition:            &stats,
		},
	}
}
