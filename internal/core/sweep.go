package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"secmon/internal/ilp"
	"secmon/internal/lp"
	"secmon/internal/metrics"
	"secmon/internal/model"
)

// BudgetGrid returns n+1 evenly spaced budgets from 0 to the system's total
// monitor cost (inclusive); it is the x-axis of the utility-versus-budget
// experiments. n must be positive.
func BudgetGrid(idx *model.Index, n int) []float64 {
	if n <= 0 {
		return nil
	}
	total := idx.System().TotalMonitorCost()
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		out[i] = total * float64(i) / float64(n)
	}
	return out
}

// SweepPoint is one budget level of a Pareto sweep.
type SweepPoint struct {
	Budget float64 `json:"budget"`
	// Optimal is the exact ILP result at this budget.
	Optimal *Result `json:"optimal"`
	// Greedy is the cost-benefit heuristic at this budget.
	Greedy *Result `json:"greedy"`
	// Random is the seeded random baseline at this budget.
	Random *Result `json:"random"`
}

// ParetoSweep computes the optimal and baseline deployments at each budget,
// tracing the utility-cost trade-off curve of the paper's evaluation. The
// seed drives the random baseline. Reported deployments are stabilized
// across budgets: once the curve saturates, every later point re-reports
// the first saturating deployment instead of an arbitrary equal-utility
// alternate optimum (see StabilizeSweep).
func (o *Optimizer) ParetoSweep(budgets []float64, seed int64) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(budgets))
	for _, b := range budgets {
		p, err := o.sweepPoint(b, seed)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	o.StabilizeSweep(points)
	return points, nil
}

// sweepStabilizeTol is the utility tolerance under which two budget points
// are considered to share an optimum. It sits far below any real utility
// increment (attack weights are unit-scale) and far above both
// floating-point summation noise and the solver's bound tolerance, so the
// stabilization decision is identical however the per-point optimum was
// obtained.
const sweepStabilizeTol = 1e-7

// StabilizeSweep canonicalizes the reported deployments of a sweep in
// place. The exact optimal utility is unique per budget, but the optimal
// deployment often is not — on degenerate instances the branch-and-bound
// trajectory, and even the budget RHS alone, picks different equal-utility
// monitor sets at neighboring saturated budgets. Walking the points in
// ascending budget order (stable for duplicates), whenever a proven point's
// corroborated utility does not exceed the previous proven point's, the
// previous deployment — still feasible, since budgets only grew — is
// re-reported and the point is marked Restated. The utility/cost curve is
// untouched in utility and improves (weakly) in cost; reported deployments
// become a function of the instance and budget grid alone, independent of
// solver trajectory. Every sweep path (cold, parallel, warm) runs this same
// pass, which is what lets the warm path's dominance skip stay bit-identical
// to the cold sweep; it is exported so the serve layer can re-run it after
// assembling a sweep from per-point cache hits plus freshly solved points.
// Idempotent: re-running over a superset of already-stabilized points
// yields the same reported sets as stabilizing raw points directly.
func (o *Optimizer) StabilizeSweep(points []SweepPoint) {
	if o.cfg.certify {
		// A certificate's recorded incumbent must stay the reported
		// deployment; certified sweeps keep their raw per-point sets.
		return
	}
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return points[order[a]].Budget < points[order[b]].Budget })

	k := o.corroborationLevel()
	var last *Result
	var lastObj float64
	for _, i := range order {
		cur := points[i].Optimal
		if cur == nil || !cur.Proven || cur.Fallback || cur.Deployment == nil {
			continue
		}
		obj := metrics.CorroboratedUtility(o.idx, cur.Deployment, k)
		if last != nil && obj <= lastObj+sweepStabilizeTol {
			if !cur.Deployment.Equal(last.Deployment) {
				cur.Deployment = last.Deployment.Clone()
				cur.Monitors = cur.Deployment.IDs()
				cur.Utility = last.Utility
				cur.Cost = last.Cost
				cur.Restated = true
			}
			obj = lastObj
		}
		last, lastObj = cur, obj
	}
}

// ParetoSweepParallel computes the same sweep as ParetoSweep using up to
// `workers` concurrent solves (GOMAXPROCS when workers <= 0). Budget points
// are independent and the optimizer's index is read-only, so the result is
// byte-for-byte identical to the sequential sweep, point order included.
func (o *Optimizer) ParetoSweepParallel(budgets []float64, seed int64, workers int) ([]SweepPoint, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(budgets) {
		workers = len(budgets)
	}
	if workers <= 1 {
		return o.ParetoSweep(budgets, seed)
	}

	points := make([]SweepPoint, len(budgets))
	errs := make([]error, len(budgets))
	next := make(chan int)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				points[i], errs[i] = o.sweepPoint(budgets[i], seed)
			}
		}()
	}
	for i := range budgets {
		next <- i
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	o.StabilizeSweep(points)
	return points, nil
}

// sweepChain is the per-shard warm state threaded through a warm-shared
// sweep: the previous budget point's exact result and budget, a basis
// snapshot to warm-start the next bound LP from, and a reusable simplex
// workspace. Budgets within a shard are solved in ascending order, so each
// point's optimum stays feasible at the next (larger) budget and its basis
// is one RHS change away from the next root — exactly the situation the
// dual-simplex warm start built in PR 2 was made for.
type sweepChain struct {
	prev       *Result
	prevBudget float64
	basis      *lp.Basis
	ws         *lp.Workspace
}

// ParetoSweepWarm computes the same sweep as ParetoSweepParallel, sharing
// solver state between neighboring budget points: budgets are sorted
// ascending, split into contiguous per-worker shards, and within a shard
// every point is first priced by a warm-started LP relaxation carrying the
// previous point's basis snapshot. Optimal utility is nondecreasing in the
// budget and bounded by the (vertex-independent) relaxation objective, so
// whenever that bound collapses onto the previous incumbent's objective the
// previous deployment is proven optimal at the new budget and the entire
// branch-and-bound run is skipped — on typical sweeps the whole saturated
// upper half of the budget grid resolves this way. Points the bound test
// cannot close run the ordinary cold solve (sharing only the shard's
// simplex workspace, which is solver-invisible), so every reported point is
// bit-identical to the cold sweep — same objective, status and monitor set,
// enforced by the sweep-equivalence suite. WithoutSweepWarmStart,
// certification, decomposition-scale instances, and sub-two-point sweeps
// all fall back to the cold path.
func (o *Optimizer) ParetoSweepWarm(budgets []float64, seed int64, workers int) ([]SweepPoint, error) {
	if o.cfg.noSweepWarm || o.cfg.certify || o.shouldDecompose() || len(budgets) < 2 {
		return o.ParetoSweepParallel(budgets, seed, workers)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(budgets) {
		workers = len(budgets)
	}

	// Solve in ascending budget order (stable for duplicates) so every
	// chained incumbent remains feasible, but report in caller order.
	order := make([]int, len(budgets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return budgets[order[a]] < budgets[order[b]] })

	points := make([]SweepPoint, len(budgets))
	errs := make([]error, len(budgets))
	runShard := func(shard []int) {
		ch := &sweepChain{ws: lp.NewWorkspace()}
		for _, i := range shard {
			points[i], errs[i] = o.sweepPointWarm(budgets[i], seed, ch)
			if errs[i] != nil {
				return
			}
		}
	}

	if workers <= 1 {
		runShard(order)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			// Contiguous shards keep neighboring budgets on the same chain.
			lo := w * len(order) / workers
			hi := (w + 1) * len(order) / workers
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(shard []int) {
				defer wg.Done()
				runShard(shard)
			}(order[lo:hi])
		}
		wg.Wait()
	}

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	o.StabilizeSweep(points)
	return points, nil
}

// sweepPointWarm solves one budget level with the exact solve chained
// through the shard's warm state; the greedy and random baselines are
// unaffected by warm starts.
func (o *Optimizer) sweepPointWarm(budget float64, seed int64, ch *sweepChain) (SweepPoint, error) {
	opt, err := o.maxUtilityChained(budget, ch)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("core: sweep at budget %v: %w", budget, err)
	}
	gr, err := Greedy(o.idx, budget)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("core: greedy at budget %v: %w", budget, err)
	}
	rnd, err := RandomDeployment(o.idx, budget, seed)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("core: random at budget %v: %w", budget, err)
	}
	return SweepPoint{Budget: budget, Optimal: opt, Greedy: gr, Random: rnd}, nil
}

// sweepBoundTol is the absolute slack allowed when testing whether the LP
// relaxation bound has collapsed onto the previous incumbent's objective. It
// sits an order of magnitude below the solver's own integrality gap, so a
// skip can only fire where the full solve would be forced to the same
// objective anyway.
const sweepBoundTol = 1e-9

// maxUtilityChained is the chained exact solve of a warm-shared sweep. With
// a proven previous point in hand it prices the new budget's LP relaxation
// (warm-started from the chain's basis snapshot); since budgets ascend, the
// previous deployment is still feasible, and when the relaxation bound does
// not exceed its objective the previous result is returned as the proven
// optimum without running branch-and-bound. Points the bound cannot close —
// and points following a fallback — run the normal solve with only the
// shard's solver-invisible workspace attached, so their trajectory is
// exactly the cold one.
func (o *Optimizer) maxUtilityChained(budget float64, ch *sweepChain) (*Result, error) {
	if budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	spec := formulationSpec{kind: kindUtility, budget: budget, fixed: model.NewDeployment()}
	if o.idx.NumMonitors() == 0 {
		res, _, err := o.solve(spec, nil)
		return res, err
	}

	if ch.prev != nil && budget == ch.prevBudget {
		// Exact duplicate budget: the solver is deterministic, so the cold
		// path would reproduce the previous point verbatim.
		res := *ch.prev
		return &res, nil
	}

	f, err := o.buildFormulation(spec)
	if err != nil {
		return nil, err
	}

	if ch.prev != nil {
		if res := o.trySweepSkip(f, budget, ch); res != nil {
			return res, nil
		}
	}

	res, sol, err := o.solve(spec, f, ilp.WithWorkspace(ch.ws))
	if err != nil {
		return nil, err
	}
	if sol != nil && sol.RootBasis != nil {
		ch.basis = sol.RootBasis
	}
	if res.Proven && !res.Fallback {
		ch.prev, ch.prevBudget = res, budget
	} else {
		ch.prev = nil
	}
	return res, nil
}

// trySweepSkip prices the formulation's LP relaxation and, when the bound
// proves the chain's previous deployment still optimal at the larger
// budget, returns that deployment restated at the new budget; otherwise it
// returns nil and the caller runs the full solve. The relaxation objective
// is a valid upper bound on the integer optimum whatever vertex the simplex
// lands on, so the skip is exact even though the warm start perturbs the
// pivot path. The comparison objective is the corroborated utility — the
// ILP's actual objective — not the plain utility reported in Result.
func (o *Optimizer) trySweepSkip(f *formulation, budget float64, ch *sweepChain) *Result {
	lpOpts := []lp.Option{lp.WithWorkspace(ch.ws)}
	if ch.basis != nil {
		lpOpts = append(lpOpts, lp.WithWarmStart(ch.basis))
	}
	rsol := o.priceRelaxation(f, lpOpts...)
	if rsol == nil {
		return nil
	}
	if rsol.Basis != nil {
		ch.basis = rsol.Basis
	}
	if rsol.Objective > o.Objective(ch.prev.Deployment)+sweepBoundTol {
		return nil
	}
	res := *ch.prev
	res.Budget = budget
	res.RelaxationUtility = rsol.Objective
	res.BudgetShadowPrice = rsol.Dual(f.budgetRow)
	res.Stats = SolveStats{LPIterations: rsol.Iterations}
	// The deployment was inherited, not solved for at this budget; mark it
	// so per-budget-point caches never store a carried-over set.
	res.Restated = true
	ch.prev, ch.prevBudget = &res, budget
	return &res
}

// sweepPoint solves one budget level with all three strategies.
func (o *Optimizer) sweepPoint(budget float64, seed int64) (SweepPoint, error) {
	opt, err := o.MaxUtility(budget)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("core: sweep at budget %v: %w", budget, err)
	}
	gr, err := Greedy(o.idx, budget)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("core: greedy at budget %v: %w", budget, err)
	}
	rnd, err := RandomDeployment(o.idx, budget, seed)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("core: random at budget %v: %w", budget, err)
	}
	return SweepPoint{Budget: budget, Optimal: opt, Greedy: gr, Random: rnd}, nil
}
