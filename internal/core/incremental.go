package core

// Warm-started incremental re-solves.
//
// A stateful caller (internal/state) holds a live system that mutates in
// small steps: a monitor is added, a cost drifts, the budget moves. Solving
// every step from scratch discards everything the previous solve proved.
// The Prior type captures the reusable part of a proven solve — the result
// itself, the final root basis snapshot, the formulation it was captured on
// and a simplex workspace — and the warm entry points MaxUtilityWarm /
// MinCostWarm thread it through the next solve:
//
//  1. Bound shortcut ("lp-bound"): the previous deployment, repaired for
//     monitors the mutation removed, is re-priced against the mutated
//     instance's LP relaxation (warm-started from the prior basis, remapped
//     across column add/drop by stable monitor names). When the relaxation
//     bound collapses onto the repaired deployment's exact objective, that
//     deployment is proven optimal for the new instance and branch-and-bound
//     never runs — the incremental analog of the warm Pareto sweep's
//     saturated-point skip.
//  2. Warm full solve: otherwise the ordinary exact solve runs, seeded with
//     the repaired previous deployment as the incumbent (ilp.WithIncumbent)
//     and the remapped basis as the root warm start (ilp.WithRootBasis).
//     Both are performance hints validated inside the solver; they never
//     change the proven optimum, so results are bit-identical to a cold
//     solve of the same instance up to the tie canonicalization the cold
//     path itself applies.
//
// Certified optimizers skip all reuse: a certificate's incumbent must be
// discovered by the audited search itself, so the warm entry points reduce
// to the plain cold solves and return a Prior carrying only the result.

import (
	"fmt"
	"math"
	"sort"

	"secmon/internal/ilp"
	"secmon/internal/lp"
	"secmon/internal/metrics"
	"secmon/internal/model"
)

// Prior carries the reusable state of a previous proven solve into the next
// warm solve of a slightly mutated instance. The zero value (or nil) means
// "no prior": the warm entry points then behave exactly like the cold ones
// while still capturing a Prior for the solve after. Priors are not safe for
// concurrent use; they are meant to be owned by one re-solve loop.
type Prior struct {
	// Result is the previous solve's outcome; only proven, non-fallback
	// results are reused.
	Result *Result
	// minCost records which formulation the prior belongs to; a prior is
	// never reused across modes.
	minCost bool
	basis   *lp.Basis
	prob    *ilp.Problem // formulation the basis was captured on
	ws      *lp.Workspace
}

// Workspace returns the prior's simplex workspace, allocating it on first
// use, so chained solves keep their factorization buffers warm.
func (p *Prior) Workspace() *lp.Workspace {
	if p == nil {
		return lp.NewWorkspace()
	}
	if p.ws == nil {
		p.ws = lp.NewWorkspace()
	}
	return p.ws
}

// usable reports whether the prior carries a proven result for the given
// mode that the next solve may reuse.
func (p *Prior) usable(minCost bool) bool {
	return p != nil && p.Result != nil && p.Result.Proven && !p.Result.Fallback &&
		p.Result.Deployment != nil && p.minCost == minCost
}

// MaxUtilityWarm computes the same proven result as MaxUtility(budget) while
// reusing the prior solve's basis, incumbent and workspace (see the package
// comment above). It returns the result together with the Prior to thread
// into the next solve. prior may be nil.
func (o *Optimizer) MaxUtilityWarm(budget float64, prior *Prior) (*Result, *Prior, error) {
	if budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	return o.solveWarm(formulationSpec{kind: kindUtility, budget: budget, fixed: model.NewDeployment()}, prior)
}

// MinCostWarm computes the same proven result as MinCost(targets) while
// reusing the prior solve's basis, incumbent and workspace; the MinCost
// counterpart of MaxUtilityWarm.
func (o *Optimizer) MinCostWarm(targets CoverageTargets, prior *Prior) (*Result, *Prior, error) {
	if err := o.validateTargets(targets); err != nil {
		return nil, nil, err
	}
	return o.solveWarm(formulationSpec{kind: kindCost, targets: &targets, fixed: model.NewDeployment()}, prior)
}

// solveWarm runs the warm entry points: the bound shortcut on the repaired
// prior deployment, else the exact solve seeded with it and warm-started
// from the remapped prior basis.
func (o *Optimizer) solveWarm(spec formulationSpec, prior *Prior) (*Result, *Prior, error) {
	minCost := spec.kind == kindCost
	if o.idx.NumMonitors() == 0 || o.cfg.certify || o.shouldDecompose() {
		// No reuse: certified searches must discover their own incumbent,
		// and the decomposition coordinator has no single root basis.
		res, _, err := o.solve(spec, nil)
		if err != nil {
			return nil, nil, err
		}
		return res, &Prior{Result: res, minCost: minCost}, nil
	}

	f, err := o.buildFormulation(spec)
	if err != nil {
		return nil, nil, err
	}
	next := &Prior{minCost: minCost, ws: prior.Workspace()}
	extras := []ilp.Option{ilp.WithWorkspace(next.ws)}
	warm := false
	if prior.usable(minCost) {
		var rootBasis *lp.Basis
		if prior.basis != nil && prior.prob != nil {
			rootBasis = ilp.RemapRootBasis(prior.basis, prior.prob, f.prob)
		}
		candidate := o.repairSet(prior.Result.Deployment)
		var feasible bool
		if minCost {
			ok, err := o.MeetsTargets(*spec.targets, candidate)
			feasible = err == nil && ok
		} else {
			feasible = metrics.Cost(o.idx, candidate) <= spec.budget
		}
		seed := candidate
		if feasible {
			pristine := candidate.Len() == prior.Result.Deployment.Len()
			if res := o.tryBoundSkip(f, spec, candidate, rootBasis, next, pristine); res != nil {
				next.Result, next.prob = res, f.prob
				if next.basis == nil {
					next.basis = rootBasis
				}
				return res, next, nil
			}
		} else if !minCost {
			seed = o.repairToBudget(candidate, spec.budget)
		}
		if x := o.seedVector(f, seed); x != nil {
			extras = append(extras, ilp.WithIncumbent(x))
			warm = true
		}
		if rootBasis != nil {
			extras = append(extras, ilp.WithRootBasis(rootBasis))
			warm = true
		}
	}

	res, sol, err := o.solve(spec, f, extras...)
	if err != nil {
		return nil, nil, err
	}
	res.Stats.WarmStarted = warm
	next.prob = f.prob
	if sol != nil && sol.RootBasis != nil {
		next.basis = sol.RootBasis
	}
	if res.Proven && !res.Fallback {
		next.Result = res
	}
	return res, next, nil
}

// tryBoundSkip prices the formulation's LP relaxation (warm-started from the
// remapped prior basis) and, when the bound collapses onto the repaired
// previous deployment's exact objective, returns that deployment —
// canonicalized the same way the full solve's post-passes would — as the
// proven optimum. The candidate must already fit the budget or meet the
// targets. nil means the bound could not close and the full solve must
// run. The relaxation objective is a valid bound whatever vertex the warm
// start lands on, so the skip is exact (see trySweepSkip).
//
// pristine marks a candidate that IS the previous optimum, untouched by
// repair. That set already went through the post-passes when it was
// produced, so they — which dominate the skip's cost on large instances,
// each being a full objective sweep per member — are elided. Re-running
// them under mutated costs could at most exchange one member of the proven
// exact tie for another.
func (o *Optimizer) tryBoundSkip(f *formulation, spec formulationSpec, candidate *model.Deployment, basis *lp.Basis, next *Prior, pristine bool) *Result {
	// WithWarmStart(nil) still enables basis capture, so a chain that lost
	// its snapshot (first solve, failed remap) regains one here.
	rsol := o.priceRelaxation(f, lp.WithWorkspace(next.ws), lp.WithWarmStart(basis))
	if rsol == nil {
		return nil
	}
	if rsol.Basis != nil {
		next.basis = rsol.Basis
	}
	// Same proof standard as the branch-and-bound's own pruning rule:
	// a node whose bound is within gapTolerance*max(1,|incumbent|) of the
	// incumbent is fathomed, so a root bound that close proves optimality.
	prevObj := o.objective(spec)(candidate)
	slack := sweepBoundTol * math.Max(1, math.Abs(prevObj))
	closed := rsol.Objective <= prevObj+slack
	if spec.kind == kindCost {
		closed = rsol.Objective >= prevObj-slack
	}
	if !closed {
		return nil
	}
	d := candidate.Clone()
	if !pristine {
		o.postPass(spec, d)
	}
	res := &Result{
		Deployment: d,
		Monitors:   d.IDs(),
		Utility:    metrics.Utility(o.idx, d),
		Cost:       metrics.Cost(o.idx, d),
		Proven:     true,
		Status:     ilp.StatusOptimal.String(),
		BestBound:  prevObj,
		BoundKnown: true,
		Restated:   true,
		Stats: SolveStats{
			LPIterations: rsol.Iterations,
			WarmStarted:  true,
			Shortcut:     "lp-bound",
		},
	}
	if spec.kind != kindCost {
		res.Budget = spec.budget
		res.RelaxationUtility = rsol.Objective
		res.BudgetShadowPrice = rsol.Dual(f.budgetRow)
	}
	return res
}

// priceRelaxation solves the formulation's LP relaxation under the
// recorded kernel and context plus opts (workspace, warm start): the bound
// test of the sweep and incremental shortcuts. nil means the relaxation did
// not come back optimal (numerical trouble, interruption) and the caller
// should run the full solve.
func (o *Optimizer) priceRelaxation(f *formulation, opts ...lp.Option) *lp.Solution {
	opts = append(opts, lp.WithKernel(o.cfg.kernel), lp.WithContext(o.cfg.ctx))
	rsol, err := f.prob.SolveRelaxation(opts...)
	if err != nil || rsol.Status != lp.StatusOptimal {
		return nil
	}
	return rsol
}

// repairSet drops monitors the current system no longer defines, the repair
// applied to a previous deployment before reuse.
func (o *Optimizer) repairSet(d *model.Deployment) *model.Deployment {
	out := model.NewDeployment()
	for _, id := range d.IDs() {
		if _, ok := o.idx.Monitor(id); ok {
			out.Add(id)
		}
	}
	return out
}

// repairToBudget additionally strips the repaired set down to the budget,
// removing the most expensive monitors first (ties by identifier, for
// determinism), so the remainder is a feasible MaxUtility incumbent seed.
func (o *Optimizer) repairToBudget(d *model.Deployment, budget float64) *model.Deployment {
	out := o.repairSet(d)
	cost := metrics.Cost(o.idx, out)
	if cost <= budget {
		return out
	}
	ids := out.IDs()
	sort.SliceStable(ids, func(a, b int) bool {
		ma, _ := o.idx.Monitor(ids[a])
		mb, _ := o.idx.Monitor(ids[b])
		if ma.TotalCost() != mb.TotalCost() {
			return ma.TotalCost() > mb.TotalCost()
		}
		return ids[a] < ids[b]
	})
	for _, id := range ids {
		if cost <= budget {
			break
		}
		m, _ := o.idx.Monitor(id)
		out.Remove(id)
		cost -= m.TotalCost()
	}
	return out
}

// seedVector builds the WithIncumbent vector for deploying exactly the given
// monitor set: selection variables from the set, coverage variables at the
// value the deployment's corroborated coverage implies. The solver validates
// the vector against every row and silently ignores infeasible seeds, so a
// repair that turned out inadequate costs nothing. nil when the set is empty
// (an all-zero seed prunes nothing).
func (o *Optimizer) seedVector(f *formulation, set *model.Deployment) []float64 {
	if set == nil || set.Len() == 0 {
		return nil
	}
	k := o.corroborationLevel()
	covered := func(d model.DataTypeID) bool {
		n := 0
		for _, mid := range o.idx.Producers(d) {
			if set.Contains(mid) {
				n++
			}
		}
		return n >= k
	}
	x := make([]float64, f.prob.NumVariables())
	for m, v := range f.xVars {
		if set.Contains(o.idx.MonitorAt(m)) {
			x[v] = 1
		}
	}
	for v := 0; v < len(x); v++ {
		name := f.prob.VariableName(lp.VarID(v))
		switch {
		case len(name) > 2 && name[:2] == "z:":
			if covered(model.DataTypeID(name[2:])) {
				x[v] = 1
			}
		case len(name) > 2 && name[:2] == "y:":
			// Expanded encoding: y:<attack>:<data-type>.
			rest := name[2:]
			for i := len(rest) - 1; i > 0; i-- {
				if rest[i] == ':' {
					if covered(model.DataTypeID(rest[i+1:])) {
						x[v] = 1
					}
					break
				}
			}
		}
	}
	return x
}

// Objective returns the exact ILP objective the optimizer maximizes for a
// deployment: the corroborated utility at the configured corroboration
// level. Sensitivity shortcuts in the state layer compare candidate
// deployments through this single definition.
func (o *Optimizer) Objective(d *model.Deployment) float64 {
	return metrics.CorroboratedUtility(o.idx, d, o.corroborationLevel())
}

// Cost returns the total deployment cost of d under the optimizer's system.
func (o *Optimizer) Cost(d *model.Deployment) float64 {
	return metrics.Cost(o.idx, d)
}

// Utility returns the plain (corroboration-free) utility of d, the value
// Result.Utility reports.
func (o *Optimizer) Utility(d *model.Deployment) float64 {
	return metrics.Utility(o.idx, d)
}

// Canonicalize rewrites d in place into the canonical representative the
// exact solve's post-passes would report: when prune is set, redundant
// monitors are removed first (the MaxUtility minimality pass); equal-cost
// equal-objective ties are then collapsed onto the lexicographically
// smallest set. A no-op for optimizers built WithoutPruning, mirroring the
// solve paths.
func (o *Optimizer) Canonicalize(d *model.Deployment, prune bool) {
	if o.cfg.noPrune {
		return
	}
	empty := model.NewDeployment()
	if prune {
		o.pruneRedundant(d, empty)
	}
	o.canonicalizeTies(d, empty)
}

// MeetsTargets reports whether the deployment satisfies the MinCost coverage
// targets at the optimizer's corroboration level. The error mirrors MinCost:
// targets no deployment can meet yield ErrInfeasible unless the optimizer
// clamps to achievable coverage.
func (o *Optimizer) MeetsTargets(targets CoverageTargets, d *model.Deployment) (bool, error) {
	if err := o.validateTargets(targets); err != nil {
		return false, err
	}
	k := int32(o.corroborationLevel())
	counts := make([]int32, o.idx.NumDataTypes())
	for _, m := range d.Ordinals(o.idx) {
		for _, e := range o.idx.MonitorData(int(m)) {
			counts[e]++
		}
	}
	for _, aid := range o.idx.AttackIDs() {
		a, _ := o.idx.AttackOrdinal(aid)
		required, err := o.requiredEvidence(a, &targets)
		if err != nil {
			return false, err
		}
		if required <= 0 {
			continue
		}
		covered := 0
		for _, e := range o.idx.AttackData(a) {
			if counts[e] >= k {
				covered++
			}
		}
		if float64(covered) < required {
			return false, nil
		}
	}
	return true, nil
}
