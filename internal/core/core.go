// Package core implements the primary contribution of Thakore, Weaver and
// Sanders (DSN 2016): computing cost-optimal, maximum-utility placements of
// security monitors.
//
// Two exact formulations are provided, both solved with the in-repo
// branch-and-bound solver (internal/ilp):
//
//   - MaxUtility: given a budget, choose the set of monitors that maximizes
//     detection utility (attack-weighted evidence coverage).
//   - MinCost: given per-attack coverage targets, choose the cheapest set of
//     monitors that meets them.
//
// Both support incremental planning, in which an existing deployment is kept
// and only new spending is optimized. The package also provides greedy,
// random and exhaustive baselines used by the paper-reproduction experiments,
// and Pareto sweeps over budget grids.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"secmon/internal/certify"
	"secmon/internal/decomp"
	"secmon/internal/ilp"
	"secmon/internal/lp"
	"secmon/internal/metrics"
	"secmon/internal/model"
)

// Errors reported by the optimizer.
var (
	// ErrBadBudget is returned for negative or non-finite budgets.
	ErrBadBudget = errors.New("core: invalid budget")
	// ErrBadTarget is returned for coverage targets outside [0, 1].
	ErrBadTarget = errors.New("core: invalid coverage target")
	// ErrInfeasible is returned by MinCost when the targets cannot be met
	// even by deploying every monitor.
	ErrInfeasible = errors.New("core: coverage targets unachievable")
	// ErrUnknownMonitor is returned when a fixed deployment references a
	// monitor absent from the system.
	ErrUnknownMonitor = errors.New("core: unknown monitor")
	// ErrTooLarge is returned by Exhaustive for systems beyond its subset
	// enumeration limit.
	ErrTooLarge = errors.New("core: system too large for exhaustive search")
)

// SolveStats records the effort spent by an exact solve.
type SolveStats struct {
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int `json:"nodes"`
	// LPIterations is the total simplex pivots across all relaxations.
	LPIterations int `json:"lpIterations"`
	// Elapsed is the wall-clock solve duration.
	Elapsed time.Duration `json:"elapsed"`
	// Workers is the number of branch-and-bound workers used. One worker
	// runs the search on the calling goroutine and is deterministic.
	Workers int `json:"workers,omitempty"`
	// WarmAttempts is the number of LP solves given a parent basis to
	// warm-start from; WarmHits counts those the dual simplex accepted.
	WarmAttempts int `json:"warmAttempts,omitempty"`
	WarmHits     int `json:"warmHits,omitempty"`
	// WarmIterations and ColdIterations split LPIterations by solve kind,
	// and ColdSolves counts the solves done from scratch.
	WarmIterations int `json:"warmIterations,omitempty"`
	ColdIterations int `json:"coldIterations,omitempty"`
	ColdSolves     int `json:"coldSolves,omitempty"`
	// PresolveFixed and PresolveTightened count integer variables fixed by
	// reduced-cost arguments and bounds tightened by constraint propagation
	// at the root.
	PresolveFixed     int `json:"presolveFixed,omitempty"`
	PresolveTightened int `json:"presolveTightened,omitempty"`
	// CutsAdded is the number of lifted cover cuts appended at the root;
	// CutsActive counts those binding at the final root relaxation.
	CutsAdded  int `json:"cutsAdded,omitempty"`
	CutsActive int `json:"cutsActive,omitempty"`
	// Etas, Refactorizations and DevexResets aggregate the sparse
	// revised-simplex kernel's effort across all relaxations: eta vectors
	// appended to the basis factorization, from-scratch refactorizations,
	// and devex reference-framework resets. All zero when the dense
	// tableau kernel ran (see WithDenseKernel).
	Etas             int `json:"etas,omitempty"`
	Refactorizations int `json:"refactorizations,omitempty"`
	DevexResets      int `json:"devexResets,omitempty"`
	// Updates, BoundFlips, AdaptiveRefactorizations and FactorNnz report
	// the LU kernel: Forrest-Tomlin updates applied, nonbasic variables
	// flipped by the long-step dual ratio test, refactorizations forced by
	// fill growth, unstable updates or pivot drift, and the largest base
	// factorization's nonzero count. KernelFallbacks counts node solves the
	// sparse kernel declined to the dense oracle.
	Updates                  int `json:"updates,omitempty"`
	BoundFlips               int `json:"boundFlips,omitempty"`
	AdaptiveRefactorizations int `json:"adaptiveRefactorizations,omitempty"`
	FactorNnz                int `json:"factorNnz,omitempty"`
	KernelFallbacks          int `json:"kernelFallbacks,omitempty"`
	// WarmStarted marks an incremental re-solve that reused a previous
	// solve's state — a (possibly remapped) root basis snapshot and/or a
	// repaired incumbent seed; see Prior and the warm entry points
	// MaxUtilityWarm / MinCostWarm.
	WarmStarted bool `json:"warmStarted,omitempty"`
	// Shortcut names the sensitivity shortcut that proved the previous
	// optimum still optimal without running branch-and-bound: "lp-bound"
	// (warm LP relaxation bound collapsed onto the previous incumbent),
	// "reduced-cost" (cost increase confined to unselected monitors),
	// "budget-slack" (budget change the previous deployment absorbs) or
	// "no-op" (the mutation did not touch the formulation). Empty when the
	// full search ran.
	Shortcut string `json:"shortcut,omitempty"`
	// PerWorker breaks Nodes and LPIterations down by worker, indexed by
	// worker id. Empty for the heuristic baselines.
	PerWorker []WorkerLoad `json:"perWorker,omitempty"`
	// Decomposition reports the graph-partitioned decomposition solver's
	// effort (segments, coordinator iterations, gap trajectory, oracle
	// fallbacks). Nil when the monolithic solver ran.
	Decomposition *decomp.Stats `json:"decomposition,omitempty"`
}

// WarmStartHitRate is the fraction of warm-start attempts the dual simplex
// accepted, or 0 when warm starts never ran.
func (s SolveStats) WarmStartHitRate() float64 {
	if s.WarmAttempts == 0 {
		return 0
	}
	return float64(s.WarmHits) / float64(s.WarmAttempts)
}

// WorkerLoad is one worker's share of the branch-and-bound effort.
type WorkerLoad struct {
	Nodes        int `json:"nodes"`
	LPIterations int `json:"lpIterations"`
	WarmAttempts int `json:"warmAttempts,omitempty"`
	WarmHits     int `json:"warmHits,omitempty"`
}

// Result is the outcome of a deployment computation.
type Result struct {
	// Deployment is the selected set of monitors.
	Deployment *model.Deployment `json:"-"`
	// Monitors is the sorted identifier list of the deployment.
	Monitors []model.MonitorID `json:"monitors"`
	// Utility is the detection utility of the deployment, in [0, 1].
	Utility float64 `json:"utility"`
	// Cost is the total cost of the deployment.
	Cost float64 `json:"cost"`
	// Budget is the budget the computation was given (MaxUtility flavors)
	// or 0 for MinCost.
	Budget float64 `json:"budget,omitempty"`
	// Proven is true when the result was proven optimal.
	Proven bool `json:"proven"`
	// Status reports how the exact solve ended: "optimal", "feasible" (a
	// limit or deadline stopped the search but an incumbent was in hand),
	// "interrupted" or "limit" (stopped with no incumbent; Deployment then
	// holds the heuristic fallback). Empty for the heuristic baselines.
	Status string `json:"status,omitempty"`
	// BestBound is the proven bound on the optimal objective — an upper
	// bound on utility for MaxUtility, a lower bound on cost for MinCost —
	// meaningful only when BoundKnown is true. Equal to the objective when
	// Proven.
	BestBound  float64 `json:"bestBound,omitempty"`
	BoundKnown bool    `json:"boundKnown,omitempty"`
	// Gap is the relative optimality gap between the returned deployment's
	// objective and BestBound, 0 when Proven.
	Gap float64 `json:"gap,omitempty"`
	// Interrupted reports that the solve was stopped by context
	// cancellation or an expired deadline (see WithContext).
	Interrupted bool `json:"interrupted,omitempty"`
	// Fallback is true when the solver stopped with no incumbent and the
	// deployment came from a heuristic instead: the greedy cost-benefit
	// baseline for the budgeted objectives, the full deployment for MinCost.
	Fallback bool `json:"fallback,omitempty"`
	// BudgetShadowPrice estimates the marginal utility of one additional
	// unit of budget, taken from the root LP relaxation's dual price of the
	// budget row (MaxUtility flavors only; zero otherwise). It is the
	// standard what-if answer for "is the monitoring budget worth raising?".
	BudgetShadowPrice float64 `json:"budgetShadowPrice,omitempty"`
	// RelaxationUtility is the root LP relaxation bound on utility
	// (MaxUtility flavors only); the integrality gap is
	// RelaxationUtility - Utility.
	RelaxationUtility float64 `json:"relaxationUtility,omitempty"`
	// Restated is true when the reported deployment was carried over from an
	// earlier budget point of a sweep (stabilization or the warm path's
	// dominance skip) instead of being decoded from this point's own solve.
	// The objective is still this point's proven optimum; only the choice
	// among equal-utility optima came from the neighboring point. Restated
	// results are a function of the whole budget grid, so per-budget-point
	// caches (the serve layer's) must not store them. Not serialized: the
	// HTTP response bytes stay independent of how the point was obtained.
	Restated bool `json:"-"`
	// Stats describes solver effort; zero for the heuristic baselines.
	Stats SolveStats `json:"stats"`
	// Certificate is the machine-checkable optimality (or infeasibility)
	// certificate for the underlying ILP solve, present only when the
	// optimizer ran with WithCertificate and the solve ended proven. It
	// certifies the raw ILP incumbent; the minimality and tie-canonicalization
	// post-passes may swap monitors afterwards but never change the objective
	// the certificate bounds.
	Certificate *certify.Certificate `json:"certificate,omitempty"`
	// CertificateNote explains a missing certificate (limit stop, emission
	// failure) when certification was requested.
	CertificateNote string `json:"certificateNote,omitempty"`
}

// Optimizer computes deployments for one indexed system.
type Optimizer struct {
	idx *model.Index
	cfg options
}

// Option configures an Optimizer.
type Option interface {
	apply(*options)
}

type options struct {
	expanded      bool
	noPrune       bool
	clampTargets  bool
	corroboration int
	// solverOptions are the WithSolverOptions pass-through; ilpOptions
	// derives the rest of every solve's options from the fields below.
	solverOptions []ilp.Option
	// noSweepWarm pins ParetoSweepWarm to the cold per-point path.
	noSweepWarm bool
	// decompose selects the decomposition solver: 0 auto (size threshold),
	// 1 forced on, -1 forced off.
	decompose int
	// The settings every solve carries, recorded once: the branch-and-bound
	// options, the LP relaxation options of the bound shortcuts and the
	// decomposition's Config all derive from them.
	workers int
	kernel  lp.Kernel
	ctx     context.Context
	certify bool
}

// ilpOptions derives the branch-and-bound options of every exact solve
// from the recorded settings. The WithSolverOptions pass-through comes
// last, so it has the final word.
func (c *options) ilpOptions() []ilp.Option {
	opts := []ilp.Option{ilp.WithWorkers(c.workers), ilp.WithKernel(c.kernel), ilp.WithContext(c.ctx)}
	if c.certify {
		opts = append(opts, ilp.WithCertificate())
	}
	return append(opts, c.solverOptions...)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithExpandedFormulation selects the per-(attack, evidence) coverage
// variables used by the paper's straightforward ILP encoding instead of the
// compact shared-per-data-type encoding. Both are exact; the expanded form
// exists for the formulation-size ablation experiment.
func WithExpandedFormulation() Option {
	return optionFunc(func(o *options) { o.expanded = true })
}

// WithoutPruning disables the minimality post-pass that removes monitors
// whose removal does not reduce utility (only MaxUtility results are pruned;
// pruning never changes utility, only cost).
func WithoutPruning() Option {
	return optionFunc(func(o *options) { o.noPrune = true })
}

// WithClampToAchievable makes MinCost clamp each attack's coverage target to
// the achievable maximum (some evidence may have no producer) instead of
// reporting ErrInfeasible.
func WithClampToAchievable() Option {
	return optionFunc(func(o *options) { o.clampTargets = true })
}

// WithCorroboration requires every counted evidence item to be produced by
// at least k deployed monitors (k >= 2; k <= 1 is the default single-monitor
// coverage). MaxUtility then maximizes metrics.CorroboratedUtility and
// MinCost targets corroborated coverage — the deployment stays effective
// when any single monitor is compromised or fails.
func WithCorroboration(k int) Option {
	return optionFunc(func(o *options) { o.corroboration = k })
}

// WithSolverOptions passes options to the branch-and-bound solver (node and
// time limits, gap tolerance, diving ablation). Repeated uses accumulate.
// They apply after the optimizer's own worker, kernel, context and
// certification settings.
func WithSolverOptions(opts ...ilp.Option) Option {
	return optionFunc(func(o *options) { o.solverOptions = append(o.solverOptions, opts...) })
}

// WithCertificate makes every exact solve emit a machine-checkable
// optimality certificate (see internal/certify), attached to
// Result.Certificate. Certification forces cuts and reduced-cost presolve
// off, so solves may explore more nodes than the default configuration.
func WithCertificate() Option {
	return optionFunc(func(o *options) { o.certify = true })
}

// WithWorkers sets the number of branch-and-bound workers; values <= 0
// select runtime.GOMAXPROCS(0). Every count runs the same search: one
// worker runs it on the calling goroutine, deterministically, and more
// share its frontier from their own goroutines. Decomposed solves pass the
// count to every segment, master and oracle solve.
func WithWorkers(n int) Option {
	return optionFunc(func(o *options) { o.workers = n })
}

// WithKernel selects the LP simplex kernel for every relaxation solve.
// lp.KernelAuto (the zero value) pins none and leaves the choice to auto
// dispatch.
func WithKernel(k lp.Kernel) Option {
	return optionFunc(func(o *options) { o.kernel = k })
}

// WithDenseKernel routes every LP relaxation to the dense tableau kernel,
// the correctness oracle for the default sparse revised simplex. The dense
// kernel solves every relaxation cold.
func WithDenseKernel() Option { return WithKernel(lp.KernelDense) }

// WithContext attaches ctx to every solve the optimizer runs. Cancellation
// or an expired deadline stops the branch-and-bound anytime-style: the best
// incumbent found so far is returned (Status "feasible", Gap reported
// against the proven bound), and when no incumbent exists yet the optimizer
// falls back to a heuristic deployment (Fallback true) rather than erroring:
// the greedy cost-benefit deployment within the budget for every budgeted
// objective, the full deployment for MinCost. Gap is then measured against
// the objective's own value for the fallback deployment.
func WithContext(ctx context.Context) Option {
	return optionFunc(func(o *options) { o.ctx = ctx })
}

// WithDecomposition forces the graph-partitioned decomposition solver on for
// every exact solve, regardless of instance size. Decomposition is exact: it
// returns proven-optimal deployments (or falls back to the monolithic solver,
// counted in SolveStats.Decomposition.OracleFallbacks). It is only compatible
// with the compact single-coverage formulation: the expanded ablation
// encoding, corroboration levels >= 2, certification and the dense oracle
// kernel all silently keep the monolithic path. Decomposed solves do not
// report RelaxationUtility (there is no single root LP).
func WithDecomposition() Option {
	return optionFunc(func(o *options) { o.decompose = 1 })
}

// WithoutSweepWarmStart makes ParetoSweepWarm solve every budget point from
// cold instead of chaining the previous point's basis and incumbent — the
// escape hatch for the warm-shared sweep path, and the reference the
// sweep-equivalence suite compares it against. Results are identical either
// way (objective, status and monitor sets); only solver effort differs.
func WithoutSweepWarmStart() Option {
	return optionFunc(func(o *options) { o.noSweepWarm = true })
}

// WithoutDecomposition pins every exact solve to the monolithic solver, even
// above the automatic size threshold.
func WithoutDecomposition() Option {
	return optionFunc(func(o *options) { o.decompose = -1 })
}

// NewOptimizer returns an optimizer for the indexed system.
func NewOptimizer(idx *model.Index, opts ...Option) *Optimizer {
	o := &Optimizer{idx: idx}
	for _, opt := range opts {
		opt.apply(&o.cfg)
	}
	return o
}

// MaxUtility computes the deployment of maximum detection utility whose cost
// does not exceed budget.
func (o *Optimizer) MaxUtility(budget float64) (*Result, error) {
	return o.MaxUtilityIncremental(budget, nil)
}

// MaxUtilityIncremental computes the maximum-utility deployment that keeps
// every monitor of the existing deployment and spends at most budget on new
// monitors. The existing monitors' cost does not count against the budget.
func (o *Optimizer) MaxUtilityIncremental(budget float64, existing *model.Deployment) (*Result, error) {
	if budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	fixed, err := o.fixedSet(existing)
	if err != nil {
		return nil, err
	}
	res, _, err := o.solve(formulationSpec{kind: kindUtility, budget: budget, fixed: fixed}, nil)
	return res, err
}

// solve runs the exact solve of spec and turns its outcome into a Result;
// every exact solve in the package goes through it, so it is where
// cross-cutting concerns are threaded. It owns the solver settings, the
// choice between the decomposition coordinator and the monolithic ILP, the
// status switch with its no-incumbent fallback, the kind's post-passes and
// the Result itself. A non-nil f is spec's already-built formulation (the
// warm paths build it first to price its relaxation); it pins the solve to
// the monolithic ILP. extra options must be performance hints only (warm
// bases, seeds, workspaces), never options that change the proven optimum.
// The raw ILP solution is returned alongside the result, so re-solve loops
// can chain its root basis; it is nil when no monolithic solve ran.
func (o *Optimizer) solve(spec formulationSpec, f *formulation, extra ...ilp.Option) (*Result, *ilp.Solution, error) {
	if o.idx.NumMonitors() == 0 {
		if spec.kind == kindCost {
			if _, err := o.requiredCounts(spec.targets); err != nil {
				return nil, nil, err
			}
		}
		res := o.emptyResult()
		if spec.kind != kindCost {
			res.Budget = spec.budget
		}
		return res, nil, nil
	}

	var (
		sol  *ilp.Solution
		d    *model.Deployment
		dres *decomp.Result
		err  error
	)
	if f == nil && spec.paperObjective() && o.shouldDecompose() {
		cfg := decomp.Config{Workers: o.cfg.workers, Ctx: o.cfg.ctx, Kernel: o.cfg.kernel}
		if spec.kind == kindCost {
			var required map[model.AttackID]float64
			if required, err = o.requiredCounts(spec.targets); err != nil {
				return nil, nil, err
			}
			dres, err = decomp.MinCost(o.idx, required, spec.fixed, cfg)
		} else {
			dres, err = decomp.MaxUtility(o.idx, spec.budget, spec.fixed, cfg)
		}
		switch {
		case err == nil && (dres.Status == ilp.StatusOptimal || dres.Status == ilp.StatusFeasible ||
			dres.Status == ilp.StatusInfeasible):
			sol, d = o.decompSolution(dres), model.NewDeployment(dres.Monitors...)
		case err != nil && !errors.Is(err, decomp.ErrNotDecomposable):
			return nil, nil, fmt.Errorf("core: decomposed %s: %w", spec.name(), err)
		default:
			// Not decomposable, or a MinCost segment stopped with no
			// incumbent: the monolithic solve runs and applies its fallback.
			dres = nil
		}
	}
	if sol == nil {
		if f == nil {
			if f, err = o.buildFormulation(spec); err != nil {
				return nil, nil, err
			}
		}
		if sol, err = f.prob.Solve(append(o.cfg.ilpOptions(), extra...)...); err != nil {
			return nil, nil, fmt.Errorf("core: %s solve: %w", spec.name(), err)
		}
	}

	fallback := false
	switch sol.Status {
	case ilp.StatusOptimal, ilp.StatusFeasible:
		if d == nil {
			d = f.decode(o.idx, sol)
		}
		o.postPass(spec, d)
	case ilp.StatusInfeasible:
		if spec.kind == kindCost {
			return nil, nil, ErrInfeasible
		}
		// Fixing never conflicts with the budget (fixed cost is excluded),
		// so a budgeted formulation is never infeasible.
		return nil, nil, fmt.Errorf("core: %s unexpectedly infeasible", spec.name())
	case ilp.StatusLimit, ilp.StatusInterrupted:
		// Stopped before any integer incumbent existed: fall back to a
		// heuristic deployment so the caller still gets a feasible one,
		// reported against whatever bound the search proved. Deploying every
		// monitor achieves the maximum achievable coverage, so it meets the
		// MinCost targets whenever the instance is feasible; the greedy
		// cost-benefit baseline (seeded with the fixed monitors, whose cost
		// does not count) fits any budget.
		fallback = true
		if spec.kind == kindCost {
			d = model.NewDeployment(o.idx.MonitorIDs()...)
		} else {
			d = greedyFrom(o.idx, spec.budget, spec.fixed)
		}
	default:
		return nil, nil, fmt.Errorf("core: %s solve stopped with status %v and no incumbent", spec.name(), sol.Status)
	}

	res := o.newResult(d, sol)
	// MinCost charges only the monitors it may choose: the kept ones are
	// fixed at no cost, so the ILP's bound omits their cost, which Cost
	// includes. Shift the bound into Cost's units, and the gap with it.
	shifted := spec.kind == kindCost && res.BoundKnown && spec.fixed != nil && spec.fixed.Len() > 0
	if shifted {
		res.BestBound += metrics.Cost(o.idx, spec.fixed)
	}
	if fallback {
		res.Fallback = true
	}
	if res.BoundKnown && (fallback || shifted && !res.Proven) {
		obj := o.objective(spec)(d)
		res.Gap = math.Abs(res.BestBound-obj) / math.Max(1, math.Abs(obj))
	}
	if spec.kind != kindCost {
		res.Budget = spec.budget
	}
	if dres != nil {
		// The coordinator has no single root LP: no RelaxationUtility.
		stats := dres.Stats
		res.Stats.Decomposition = &stats
		res.BudgetShadowPrice = dres.ShadowPrice
		return res, nil, nil
	}
	if spec.kind != kindCost {
		res.BudgetShadowPrice = sol.RootDual(f.budgetRow)
		res.RelaxationUtility = sol.RootObjective
	}
	return res, sol, nil
}

// CoverageTargets specifies MinCost requirements: Global applies to every
// attack unless overridden in PerAttack. Targets are fractions of each
// attack's evidence union, in [0, 1].
type CoverageTargets struct {
	Global    float64
	PerAttack map[model.AttackID]float64
}

// Target returns the effective target for an attack.
func (c CoverageTargets) Target(a model.AttackID) float64 {
	if t, ok := c.PerAttack[a]; ok {
		return t
	}
	return c.Global
}

// MinCost computes the cheapest deployment meeting the coverage targets.
func (o *Optimizer) MinCost(targets CoverageTargets) (*Result, error) {
	return o.MinCostIncremental(targets, nil)
}

// MinCostIncremental computes the cheapest deployment that meets the
// coverage targets while keeping every monitor of the existing deployment.
func (o *Optimizer) MinCostIncremental(targets CoverageTargets, existing *model.Deployment) (*Result, error) {
	if err := o.validateTargets(targets); err != nil {
		return nil, err
	}
	fixed, err := o.fixedSet(existing)
	if err != nil {
		return nil, err
	}
	res, _, err := o.solve(formulationSpec{kind: kindCost, targets: &targets, fixed: fixed}, nil)
	return res, err
}

func (o *Optimizer) validateTargets(targets CoverageTargets) error {
	check := func(t float64) error {
		if t < 0 || t > 1 || math.IsNaN(t) {
			return fmt.Errorf("%w: %v", ErrBadTarget, t)
		}
		return nil
	}
	if err := check(targets.Global); err != nil {
		return err
	}
	for a, t := range targets.PerAttack {
		if _, ok := o.idx.Attack(a); !ok {
			return fmt.Errorf("%w: coverage target for unknown attack %q", ErrBadTarget, a)
		}
		if err := check(t); err != nil {
			return err
		}
	}
	return nil
}

// fixedSet validates an existing deployment against the system.
func (o *Optimizer) fixedSet(existing *model.Deployment) (*model.Deployment, error) {
	if existing == nil {
		return model.NewDeployment(), nil
	}
	for _, id := range existing.IDs() {
		if _, ok := o.idx.Monitor(id); !ok {
			return nil, fmt.Errorf("%w: %q in existing deployment", ErrUnknownMonitor, id)
		}
	}
	return existing.Clone(), nil
}

// pruneRedundant removes monitors (except fixed ones) whose removal leaves
// the optimized objective unchanged, making reported deployments minimal.
// Under corroboration the corroborated utility is preserved (plain utility
// alone would wrongly discard corroborating monitors). Deterministic:
// monitors are considered in sorted order.
func (o *Optimizer) pruneRedundant(d *model.Deployment, fixed *model.Deployment) {
	k := o.corroborationLevel()
	ev := metrics.NewEvaluator(o.idx)
	ev.Load(d)
	utility := ev.CorroboratedUtility(k)
	for _, m := range d.Ordinals(o.idx) {
		id := o.idx.MonitorAt(int(m))
		if fixed.Contains(id) {
			continue
		}
		if o.keepsScore(ev, "prune", int(m), -1, func(_, after float64) bool { return after >= utility-1e-12 }) {
			ev.RemoveOrdinal(int(m))
			d.Remove(id)
		}
	}
}

// decisionMargin is how far, in utility, a move's previewed score change
// must sit from zero for the preview alone to reject it. Both post-pass
// tolerances (1e-12 and 1e-9) and the rounding of the utility sums lie
// orders of magnitude below it.
const decisionMargin = 1e-6

// postPassCheck is a test hook, nil in production. When set, every prune
// and swap decision the threshold preview settles is also taken by the full
// rescoring, which then decides, and both answers are handed to it.
var postPassCheck func(move string, preview, full bool)

// keepsScore decides whether swapping monitor ordinal out for ordinal in
// (-1 for none) keeps the score the post-pass preserves: full tests the
// evaluator's corroborated utility before and after the swap. The
// evaluator's threshold preview settles most moves without rescoring: when
// no evidence data type crosses the corroboration threshold the score is
// unchanged bit for bit, so the move keeps it; when the crossings change it
// by more than decisionMargin, the move cannot. Every other move runs full,
// as does every move under postPassCheck. The evaluator is left as it was.
func (o *Optimizer) keepsScore(ev *metrics.Evaluator, move string, out, in int, full func(before, after float64) bool) bool {
	k := o.corroborationLevel()
	crossed, delta := ev.Change(out, in, k)
	keep, settled := !crossed, !crossed || math.Abs(delta) > decisionMargin
	if settled && postPassCheck == nil {
		return keep
	}
	before := ev.CorroboratedUtility(k)
	swap(ev, out, in)
	fullKeep := full(before, ev.CorroboratedUtility(k))
	swap(ev, in, out)
	if settled {
		postPassCheck(move, keep, fullKeep)
	}
	return fullKeep
}

// swap removes monitor ordinal out from the evaluator and adds ordinal in
// (-1 for none).
func swap(ev *metrics.Evaluator, out, in int) {
	if out >= 0 {
		ev.RemoveOrdinal(out)
	}
	if in >= 0 {
		ev.AddOrdinal(in)
	}
}

// postPass makes an optimal deployment minimal, unless pruning is off.
// Utility deployments are pruned and canonicalized over equal-cost ties;
// expected-utility and earliness deployments drop every monitor their
// objective does not need. MinCost and weighted deployments are kept as
// solved.
func (o *Optimizer) postPass(spec formulationSpec, d *model.Deployment) {
	if o.cfg.noPrune {
		return
	}
	switch spec.kind {
	case kindUtility:
		o.pruneRedundant(d, spec.fixed)
		o.canonicalizeTies(d, spec.fixed)
	case kindExpected, kindEarliness:
		pruneBy(d, spec.fixed, o.objective(spec))
	}
}

// pruneBy removes, in sorted order, every monitor except the fixed ones
// whose removal keeps objective at the deployment's starting value.
func pruneBy(d, fixed *model.Deployment, objective func(*model.Deployment) float64) {
	before := objective(d)
	for _, id := range d.IDs() {
		if fixed.Contains(id) {
			continue
		}
		d.Remove(id)
		if objective(d) < before-1e-12 {
			d.Add(id)
		}
	}
}

// objective returns the objective spec's ILP optimizes, evaluated exactly
// on a deployment.
func (o *Optimizer) objective(spec formulationSpec) func(*model.Deployment) float64 {
	switch spec.kind {
	case kindCost:
		return o.Cost
	case kindWeighted:
		w, k := spec.weights, o.corroborationLevel()
		return func(d *model.Deployment) float64 {
			richness := metrics.Richness(o.idx, d)
			if k > 1 {
				richness, _ = metrics.CorroboratedRichness(o.idx, d, k)
			}
			return w.Utility*metrics.CorroboratedUtility(o.idx, d, k) + w.Richness*richness +
				w.Redundancy*metrics.MeanRedundancy(o.idx, d)
		}
	case kindExpected:
		return func(d *model.Deployment) float64 { return metrics.ExpectedUtility(o.idx, d, spec.failProb) }
	case kindEarliness:
		return func(d *model.Deployment) float64 {
			return spec.weights.Utility*metrics.Utility(o.idx, d) + spec.earliness*metrics.Earliness(o.idx, d)
		}
	}
	return o.Objective
}

// canonicalizeTies rewrites the deployment into the lexicographically
// smallest member of its equal-cost, equal-objective swap neighborhood.
// Degenerate instances (symmetric hosts, duplicated monitors) admit many
// optimal deployments, and which one branch-and-bound lands on depends on
// solver trajectory — feature flags, worker count, and LP kernel all perturb
// it. Swapping a selected monitor for an unselected one that sorts earlier,
// whenever the swap changes neither the objective nor the cost, collapses
// those alternate optima onto one canonical representative, so reported
// deployments are reproducible across solver configurations. Fixed monitors
// are never swapped out.
func (o *Optimizer) canonicalizeTies(d *model.Deployment, fixed *model.Deployment) {
	const tol = 1e-9
	sameScore := func(before, after float64) bool { return math.Abs(after-before) <= tol }
	ev := metrics.NewEvaluator(o.idx)
	ev.Load(d)
	in := make([]bool, o.idx.NumMonitors())
	for _, m := range d.Ordinals(o.idx) {
		in[m] = true
	}
	for changed := true; changed; {
		changed = false
		for _, s := range d.Ordinals(o.idx) {
			sid := o.idx.MonitorAt(int(s))
			if fixed.Contains(sid) {
				continue
			}
			cost := o.idx.MonitorCost(int(s))
			// Only strictly earlier replacements shrink the set, and the cost
			// must be untouched to stay within budget.
			for u := 0; u < int(s); u++ {
				if in[u] || math.Abs(o.idx.MonitorCost(u)-cost) > tol {
					continue
				}
				if o.keepsScore(ev, "swap", int(s), u, sameScore) {
					swap(ev, int(s), u)
					in[s], in[u] = false, true
					d.Remove(sid)
					d.Add(o.idx.MonitorAt(u))
					changed = true
					break
				}
			}
		}
	}
}

// corroborationLevel returns the effective corroboration requirement (>= 1).
func (o *Optimizer) corroborationLevel() int {
	if o.cfg.corroboration < 1 {
		return 1
	}
	return o.cfg.corroboration
}

func (o *Optimizer) newResult(d *model.Deployment, sol *ilp.Solution) *Result {
	return &Result{
		Deployment:      d,
		Monitors:        d.IDs(),
		Utility:         metrics.Utility(o.idx, d),
		Cost:            metrics.Cost(o.idx, d),
		Proven:          sol.Status == ilp.StatusOptimal,
		Status:          sol.Status.String(),
		BestBound:       sol.BestBound,
		BoundKnown:      sol.BoundKnown,
		Gap:             sol.Gap,
		Interrupted:     sol.Interrupted,
		Stats:           newSolveStats(sol),
		Certificate:     sol.Certificate,
		CertificateNote: sol.CertificateNote,
	}
}

func newSolveStats(sol *ilp.Solution) SolveStats {
	st := SolveStats{
		Nodes:             sol.Nodes,
		LPIterations:      sol.LPIterations,
		Elapsed:           sol.Elapsed,
		Workers:           sol.Workers,
		WarmAttempts:      sol.WarmAttempts,
		WarmHits:          sol.WarmHits,
		WarmIterations:    sol.WarmIterations,
		ColdIterations:    sol.ColdIterations,
		ColdSolves:        sol.ColdSolves,
		PresolveFixed:     sol.PresolveFixed,
		PresolveTightened: sol.PresolveTightened,
		CutsAdded:         sol.CutsAdded,
		CutsActive:        sol.CutsActive,
		Etas:              sol.Etas,
		Refactorizations:  sol.Refactorizations,
		DevexResets:       sol.DevexResets,

		Updates:                  sol.Updates,
		BoundFlips:               sol.BoundFlips,
		AdaptiveRefactorizations: sol.AdaptiveRefactorizations,
		FactorNnz:                sol.FactorNnz,
		KernelFallbacks:          sol.KernelFallbacks,
	}
	if len(sol.PerWorker) > 0 {
		st.PerWorker = make([]WorkerLoad, len(sol.PerWorker))
		for i, w := range sol.PerWorker {
			st.PerWorker[i] = WorkerLoad{
				Nodes:        w.Nodes,
				LPIterations: w.LPIterations,
				WarmAttempts: w.WarmAttempts,
				WarmHits:     w.WarmHits,
			}
		}
	}
	return st
}

// Index returns the optimizer's system index.
func (o *Optimizer) Index() *model.Index { return o.idx }
