package core

import (
	"runtime"

	"secmon/internal/decomp"
	"secmon/internal/ilp"
	"secmon/internal/lp"
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
	return o.idx.NumMonitors() >= DecompositionThreshold
}

// requiredCounts maps every attack with a positive coverage requirement to
// its required evidence count (see requiredEvidence), the form the MinCost
// coordinator takes its targets in.
func (o *Optimizer) requiredCounts(targets *CoverageTargets) (map[model.AttackID]float64, error) {
	required := make(map[model.AttackID]float64)
	for _, aid := range o.idx.AttackIDs() {
		a, _ := o.idx.AttackOrdinal(aid)
		r, err := o.requiredEvidence(a, targets)
		if err != nil {
			return nil, err
		}
		if r > 0 {
			required[aid] = r
		}
	}
	return required, nil
}

// decompSolution restates a decomposition outcome in the ILP solution
// fields newResult reads.
func (o *Optimizer) decompSolution(dres *decomp.Result) *ilp.Solution {
	workers := o.cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	k := dres.Kernel
	return &ilp.Solution{
		Status:       dres.Status,
		BestBound:    dres.BestBound,
		BoundKnown:   dres.BoundKnown,
		Gap:          dres.Gap,
		Interrupted:  dres.Interrupted,
		Nodes:        dres.Nodes,
		LPIterations: dres.LPIterations,
		Elapsed:      dres.Elapsed,
		Workers:      workers,

		Etas:                     k.Etas,
		Refactorizations:         k.Refactorizations,
		DevexResets:              k.DevexResets,
		Updates:                  k.Updates,
		BoundFlips:               k.BoundFlips,
		AdaptiveRefactorizations: k.AdaptiveRefactorizations,
		FactorNnz:                k.FactorNnz,
		KernelFallbacks:          k.KernelFallbacks,
	}
}
