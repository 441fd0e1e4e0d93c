package main

import "secmon/internal/core"

// solveAgg sums the solver effort counters of exact solves, for the ilp and
// lp per-layer metrics.
type solveAgg struct {
	solves, nodes, cuts, presolveFixed      float64
	warmAttempts, warmHits, lpIters         float64
	etaSolves, updates, refacs, adaptive    float64
	boundFlips, kernelFallbacks, decomposed float64
	segments, iterations, masters, subprobs float64
	oracleFallbacks                         float64
}

func (a *solveAgg) add(s *core.SolveStats) {
	a.solves++
	a.nodes += float64(s.Nodes)
	a.cuts += float64(s.CutsAdded)
	a.presolveFixed += float64(s.PresolveFixed)
	a.warmAttempts += float64(s.WarmAttempts)
	a.warmHits += float64(s.WarmHits)
	a.lpIters += float64(s.LPIterations)
	if s.Etas > 0 {
		a.etaSolves++
	}
	a.updates += float64(s.Updates)
	a.refacs += float64(s.Refactorizations)
	a.adaptive += float64(s.AdaptiveRefactorizations)
	a.boundFlips += float64(s.BoundFlips)
	a.kernelFallbacks += float64(s.KernelFallbacks)
	if d := s.Decomposition; d != nil {
		a.decomposed++
		a.segments += float64(d.Segments)
		a.iterations += float64(d.Iterations)
		a.masters += float64(d.MasterSolves)
		a.subprobs += float64(d.SubproblemSolves)
		a.oracleFallbacks += float64(d.OracleFallbacks)
	}
}

// fill writes the ilp, lp and decomp per-layer metrics: per-solve means,
// and per-decomposed-solve means for decomp.
func (a *solveAgg) fill(layer map[string]float64) {
	layer["ilp.nodes_per_solve"] = ratio(a.nodes, a.solves)
	layer["ilp.cuts_added_per_solve"] = ratio(a.cuts, a.solves)
	layer["ilp.presolve_fixed_per_solve"] = ratio(a.presolveFixed, a.solves)
	layer["ilp.warm_hit_share"] = ratio(a.warmHits, a.warmAttempts)
	layer["lp.iterations_per_solve"] = ratio(a.lpIters, a.solves)
	layer["lp.eta_solve_share"] = ratio(a.etaSolves, a.solves)
	layer["lp.ft_updates_per_solve"] = ratio(a.updates, a.solves)
	layer["lp.refactorizations_per_solve"] = ratio(a.refacs, a.solves)
	layer["lp.adaptive_refactor_share"] = ratio(a.adaptive, a.refacs)
	layer["lp.bound_flips_per_solve"] = ratio(a.boundFlips, a.solves)
	layer["lp.kernel_fallbacks_per_solve"] = ratio(a.kernelFallbacks, a.solves)
	layer["decomp.segments"] = ratio(a.segments, a.decomposed)
	layer["decomp.iterations"] = ratio(a.iterations, a.decomposed)
	layer["decomp.master_solves"] = ratio(a.masters, a.decomposed)
	layer["decomp.subproblem_solves"] = ratio(a.subprobs, a.decomposed)
	layer["decomp.oracle_fallbacks"] = ratio(a.oracleFallbacks, a.decomposed)
}
