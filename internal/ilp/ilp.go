// Package ilp provides an exact mixed 0-1/integer linear-programming solver
// built on the simplex solver of internal/lp.
//
// The solver is a best-first branch-and-bound with depth plunging, branching
// priorities, most-fractional variable selection and an optional root diving
// heuristic that quickly produces incumbents for pruning. At one worker it is
// deterministic for a given problem and configuration.
//
// The monitor-deployment formulations of Thakore et al. (DSN 2016) are pure
// 0-1 programs over monitor-selection variables, with continuous coverage
// variables that become integral automatically once the binaries are fixed;
// declaring only the monitor variables integer keeps the search tree small.
package ilp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"secmon/internal/certify"
	"secmon/internal/lp"
)

// Status describes the outcome of a branch-and-bound run.
type Status int

// Solve outcomes.
const (
	// StatusOptimal means an integer-feasible solution was found and proven
	// optimal (within the configured gap tolerance).
	StatusOptimal Status = iota + 1
	// StatusFeasible means an integer-feasible incumbent was found but the
	// node/time budget ran out before optimality was proven.
	StatusFeasible
	// StatusInfeasible means no integer-feasible solution exists.
	StatusInfeasible
	// StatusUnbounded means the relaxation is unbounded.
	StatusUnbounded
	// StatusLimit means the budget ran out before any incumbent was found.
	StatusLimit
	// StatusInterrupted means the solve's context was cancelled (or its
	// deadline expired) before any incumbent was found. When an incumbent
	// exists at interruption time the solve reports StatusFeasible instead,
	// carrying the incumbent and the tightest proven bound: interruption is
	// an anytime stop, never an error.
	StatusInterrupted
)

// String returns a human-readable name for the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusLimit:
		return "limit"
	case StatusInterrupted:
		return "interrupted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Problem is an integer linear program under construction. It wraps an
// lp.Problem and records which variables must take integer values.
type Problem struct {
	lp       *lp.Problem
	integer  []lp.VarID
	isInt    map[lp.VarID]bool
	priority map[lp.VarID]int
}

// NewProblem returns an empty integer program with the given sense.
func NewProblem(sense lp.Sense) *Problem {
	return &Problem{
		lp:       lp.NewProblem(sense),
		isInt:    make(map[lp.VarID]bool),
		priority: make(map[lp.VarID]int),
	}
}

// AddVariable adds a continuous variable; see lp.Problem.AddVariable.
func (p *Problem) AddVariable(name string, lower, upper, cost float64) (lp.VarID, error) {
	return p.lp.AddVariable(name, lower, upper, cost)
}

// AddIntegerVariable adds a variable restricted to integer values in
// [lower, upper].
func (p *Problem) AddIntegerVariable(name string, lower, upper, cost float64) (lp.VarID, error) {
	v, err := p.lp.AddVariable(name, lower, upper, cost)
	if err != nil {
		return 0, err
	}
	p.markInteger(v)
	return v, nil
}

// AddBinaryVariable adds a 0-1 variable.
func (p *Problem) AddBinaryVariable(name string, cost float64) (lp.VarID, error) {
	return p.AddIntegerVariable(name, 0, 1, cost)
}

// AddConstraint adds a linear row; see lp.Problem.AddConstraint.
func (p *Problem) AddConstraint(name string, terms []lp.Term, op lp.Op, rhs float64) (lp.ConID, error) {
	return p.lp.AddConstraint(name, terms, op, rhs)
}

// SetVariableBounds replaces the bounds of an existing variable; see
// lp.Problem.SetVariableBounds. Setting equal bounds fixes a variable, which
// is how callers pin pre-existing deployments.
func (p *Problem) SetVariableBounds(v lp.VarID, lower, upper float64) error {
	return p.lp.SetVariableBounds(v, lower, upper)
}

// SetObjectiveCoefficient replaces the objective coefficient of an existing
// variable; see lp.Problem.SetObjectiveCoefficient. Coordinator loops use it
// to sweep a Lagrangian multiplier through the cost terms without rebuilding
// the problem.
func (p *Problem) SetObjectiveCoefficient(v lp.VarID, cost float64) error {
	return p.lp.SetObjectiveCoefficient(v, cost)
}

// SetInteger marks an existing variable as integer-valued.
func (p *Problem) SetInteger(v lp.VarID) {
	p.markInteger(v)
}

func (p *Problem) markInteger(v lp.VarID) {
	if !p.isInt[v] {
		p.isInt[v] = true
		p.integer = append(p.integer, v)
	}
}

// SetBranchPriority assigns a branching priority to a variable. Variables
// with higher priority are branched on before variables with lower priority;
// the default priority is zero.
func (p *Problem) SetBranchPriority(v lp.VarID, priority int) {
	p.priority[v] = priority
}

// NumVariables reports the number of variables (continuous and integer).
func (p *Problem) NumVariables() int { return p.lp.NumVariables() }

// NumConstraints reports the number of constraints.
func (p *Problem) NumConstraints() int { return p.lp.NumConstraints() }

// VariableName reports the name given to a variable at creation.
func (p *Problem) VariableName(v lp.VarID) string { return p.lp.VariableName(v) }

// NumIntegerVariables reports how many variables are integer-constrained.
func (p *Problem) NumIntegerVariables() int { return len(p.integer) }

// Solution holds the result of a branch-and-bound run.
type Solution struct {
	// Status describes the outcome; X and Objective are meaningful for
	// StatusOptimal and StatusFeasible.
	Status Status
	// Objective is the incumbent objective value in the problem's sense.
	Objective float64
	// X holds one value per variable; integer variables are exactly
	// integral.
	X []float64
	// BestBound is the tightest proven bound on the optimal objective; it is
	// meaningful only when BoundKnown is true.
	BestBound float64
	// BoundKnown reports whether BestBound carries a proven bound. It is
	// false only when the solve stopped before the root relaxation finished
	// (and no incumbent exists), in which case nothing is proven.
	BoundKnown bool
	// Interrupted reports that the solve stopped because its context was
	// cancelled or timed out. The Status is then StatusFeasible (incumbent in
	// hand) or StatusInterrupted (stopped before the first incumbent).
	Interrupted bool
	// RootObjective is the objective of the root LP relaxation.
	RootObjective float64
	// RootDuals holds the shadow prices of the root LP relaxation, indexed
	// by ConID. Integer programs have no exact duals; the root relaxation
	// prices are the standard estimate of marginal constraint value.
	RootDuals []float64
	// Gap is the relative optimality gap |Objective-BestBound| /
	// max(1, |Objective|); zero when proven optimal.
	Gap float64
	// Nodes is the number of branch-and-bound nodes solved.
	Nodes int
	// LPIterations is the total simplex pivots across all node solves.
	LPIterations int
	// Elapsed is the wall-clock duration of the solve.
	Elapsed time.Duration
	// Workers is the number of branch-and-bound workers that ran the
	// search. Worker 0 runs on the calling goroutine, so a one-worker solve
	// starts no goroutine.
	Workers int
	// PerWorker records each worker's share of the search effort, indexed
	// by worker; its length equals Workers.
	PerWorker []WorkerStats
	// WarmAttempts counts node relaxations that were offered a parent
	// basis; WarmHits counts the subset the dual simplex finished without
	// falling back to a cold solve.
	WarmAttempts int
	WarmHits     int
	// WarmIterations is the total dual-simplex pivots across warm hits;
	// ColdIterations the total pivots across cold two-phase solves (the
	// root, warm misses, and every solve when warm starts are disabled),
	// of which there were ColdSolves. Comparing WarmIterations/WarmHits
	// against ColdIterations/ColdSolves shows the per-node warm-start win.
	WarmIterations int
	ColdIterations int
	ColdSolves     int
	// PresolveFixed counts integer variables fixed at the root by
	// reduced-cost fixing; PresolveTightened counts further integer bound
	// changes from coefficient-based bound tightening.
	PresolveFixed     int
	PresolveTightened int
	// CutsAdded counts knapsack cover cuts appended to the root LP;
	// CutsActive counts those binding at the final root optimum.
	CutsAdded  int
	CutsActive int
	// Certificate is the machine-checkable optimality certificate, present
	// only when the solve ran WithCertificate and ended StatusOptimal or
	// StatusInfeasible; CertificateNote explains a nil certificate on a
	// certified solve. See internal/certify.
	Certificate     *certify.Certificate
	CertificateNote string
	// Etas, Refactorizations and DevexResets aggregate the sparse
	// revised-simplex kernel's effort across every node solve: eta vectors
	// appended to the basis factorization (eta kernel only), from-scratch
	// refactorizations, and devex reference-framework resets. All are zero
	// when the dense tableau kernel ran.
	Etas             int
	Refactorizations int
	DevexResets      int
	// Updates, BoundFlips, AdaptiveRefactorizations and FactorNnz are the
	// LU kernel's counters summed across node solves (FactorNnz keeps the
	// largest factorization): Forrest-Tomlin updates applied, nonbasic
	// variables flipped across their boxes by the long-step dual ratio
	// test, refactorizations forced by fill growth / unstable updates /
	// pivot drift rather than the fixed update budget, and the nonzero
	// count of the base L+U+R factors. KernelFallbacks counts node solves
	// the sparse kernel declined to the dense oracle.
	Updates                  int
	BoundFlips               int
	AdaptiveRefactorizations int
	FactorNnz                int
	KernelFallbacks          int
	// RootBasis is the final root-relaxation basis snapshot (nil when warm
	// starts were disabled or the root never solved). Coordinator loops that
	// re-solve the same problem under perturbed objectives or bounds feed it
	// back via WithRootBasis.
	RootBasis *lp.Basis
}

// kernelStats accumulates the sparse-kernel effort counters carried on
// every lp.Solution (all zero under the dense kernel). Counts sum across
// node solves except factorNnz, which keeps the largest factorization seen.
type kernelStats struct {
	etas, refactorizations, devexResets int
	updates, boundFlips                 int
	adaptiveRefacs, kernelFallbacks     int
	factorNnz                           int
}

func (k *kernelStats) add(sol *lp.Solution) {
	k.etas += sol.Etas
	k.refactorizations += sol.Refactorizations
	k.devexResets += sol.DevexResets
	k.updates += sol.Updates
	k.boundFlips += sol.BoundFlips
	k.adaptiveRefacs += sol.AdaptiveRefactorizations
	k.kernelFallbacks += sol.KernelFallbacks
	if sol.FactorNnz > k.factorNnz {
		k.factorNnz = sol.FactorNnz
	}
}

func (k *kernelStats) merge(o kernelStats) {
	k.etas += o.etas
	k.refactorizations += o.refactorizations
	k.devexResets += o.devexResets
	k.updates += o.updates
	k.boundFlips += o.boundFlips
	k.adaptiveRefacs += o.adaptiveRefacs
	k.kernelFallbacks += o.kernelFallbacks
	if o.factorNnz > k.factorNnz {
		k.factorNnz = o.factorNnz
	}
}

// effort accumulates the work of a run of relaxation solves: the root
// prep's, and each search worker's. Callers count nodes and warm-start
// attempts themselves; count records everything a solve reports.
type effort struct {
	nodes, lpIters                    int
	warmAttempts, warmHits, warmIters int
	coldSolves, coldIters             int
	kstats                            kernelStats
}

// count records one relaxation solve.
func (e *effort) count(sol *lp.Solution) {
	e.lpIters += sol.Iterations
	e.kstats.add(sol)
	if sol.Warm {
		e.warmHits++
		e.warmIters += sol.Iterations
	} else {
		e.coldSolves++
		e.coldIters += sol.Iterations
	}
}

func (e *effort) merge(o effort) {
	e.nodes += o.nodes
	e.lpIters += o.lpIters
	e.warmAttempts += o.warmAttempts
	e.warmHits += o.warmHits
	e.warmIters += o.warmIters
	e.coldSolves += o.coldSolves
	e.coldIters += o.coldIters
	e.kstats.merge(o.kstats)
}

func (e effort) workerStats() WorkerStats {
	return WorkerStats{Nodes: e.nodes, LPIterations: e.lpIters,
		WarmAttempts: e.warmAttempts, WarmHits: e.warmHits}
}

// WarmHitRate is the fraction of warm-start attempts the dual simplex
// completed, or 0 when none were attempted.
func (s *Solution) WarmHitRate() float64 {
	if s.WarmAttempts == 0 {
		return 0
	}
	return float64(s.WarmHits) / float64(s.WarmAttempts)
}

// WorkerStats records the branch-and-bound effort of one worker.
type WorkerStats struct {
	// Nodes is the number of nodes whose relaxation the worker solved.
	Nodes int
	// LPIterations is the total simplex pivots the worker performed.
	LPIterations int
	// WarmAttempts and WarmHits are the worker's share of the warm-start
	// accounting (see Solution.WarmAttempts).
	WarmAttempts int
	WarmHits     int
}

// Value returns the solution value of the given variable, or 0 if out of
// range.
func (s *Solution) Value(v lp.VarID) float64 {
	if v < 0 || int(v) >= len(s.X) {
		return 0
	}
	return s.X[v]
}

// RootDual returns the root-relaxation shadow price of the given
// constraint, or 0 if out of range.
func (s *Solution) RootDual(c lp.ConID) float64 {
	if c < 0 || int(c) >= len(s.RootDuals) {
		return 0
	}
	return s.RootDuals[c]
}

// BranchRule selects how the branching variable is chosen among the
// fractional integer variables (after branching priority).
type BranchRule int

// Branching rules.
const (
	// BranchMostFractional picks the variable whose relaxation value is
	// closest to one half (the default).
	BranchMostFractional BranchRule = iota
	// BranchPseudoCost picks the variable with the best product of observed
	// up/down objective degradations (pseudo-costs), falling back to
	// most-fractional until observations exist.
	BranchPseudoCost
)

// Option configures a solve.
type Option interface {
	apply(*options)
}

type options struct {
	maxNodes        int
	timeLimit       time.Duration
	gapTolerance    float64
	intTolerance    float64
	disableDive     bool
	disableFaceDive bool
	branchRule      BranchRule
	lpOptions       []lp.Option
	kernel          lp.Kernel
	workers         int
	noWarm          bool
	noPresolve      bool
	noCuts          bool
	certify         bool
	cert            *certCollector
	ctx             context.Context

	// Cross-solve reuse hooks (see reuse.go).
	seedX     []float64
	seed      *seedIncumbent
	extWS     *lp.Workspace
	rootBasis *lp.Basis
}

// ctxErr reports the configured context's error, nil when no context was
// supplied or it is still live.
func (o *options) ctxErr() error {
	if o.ctx == nil {
		return nil
	}
	return o.ctx.Err()
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithMaxNodes caps the number of branch-and-bound nodes. Non-positive means
// the default of 200000.
func WithMaxNodes(n int) Option {
	return optionFunc(func(o *options) { o.maxNodes = n })
}

// WithTimeLimit caps the wall-clock duration of the solve. Zero or negative
// means no limit.
func WithTimeLimit(d time.Duration) Option {
	return optionFunc(func(o *options) { o.timeLimit = d })
}

// WithGapTolerance sets the relative optimality gap at which the search
// stops and reports optimal. Default 1e-9.
func WithGapTolerance(gap float64) Option {
	return optionFunc(func(o *options) { o.gapTolerance = gap })
}

// WithoutDiving disables the root diving heuristic (useful for ablation
// studies; the search remains exact, only incumbent discovery changes).
func WithoutDiving() Option {
	return optionFunc(func(o *options) { o.disableDive = true })
}

// WithoutFaceDive disables the optimal-face root dive while keeping the
// classic free dive. The search remains exact; only the root incumbent
// discovery — and therefore effort counters like node and LP iteration
// totals — changes.
func WithoutFaceDive() Option {
	return optionFunc(func(o *options) { o.disableFaceDive = true })
}

// WithBranchRule selects the branching variable rule.
func WithBranchRule(rule BranchRule) Option {
	return optionFunc(func(o *options) { o.branchRule = rule })
}

// WithLPOptions passes options through to every LP relaxation solve.
func WithLPOptions(opts ...lp.Option) Option {
	return optionFunc(func(o *options) { o.lpOptions = opts })
}

// WithKernel routes every LP relaxation to the given simplex kernel.
// lp.KernelAuto (the zero value) pins none and leaves the choice to the lp
// package's auto dispatch.
func WithKernel(k lp.Kernel) Option {
	return optionFunc(func(o *options) { o.kernel = k })
}

// WithDenseKernel routes every LP relaxation to the dense tableau kernel,
// the correctness oracle for the default sparse revised simplex. The dense
// kernel solves every relaxation cold.
func WithDenseKernel() Option { return WithKernel(lp.KernelDense) }

// WithoutWarmStart disables dual-simplex warm starts: every node relaxation
// is then solved by the cold two-phase primal simplex. The search remains
// exact either way; this is an escape hatch for ablation and debugging.
func WithoutWarmStart() Option {
	return optionFunc(func(o *options) { o.noWarm = true })
}

// WithoutPresolve disables root presolve (reduced-cost fixing and bound
// tightening). The search remains exact either way.
func WithoutPresolve() Option {
	return optionFunc(func(o *options) { o.noPresolve = true })
}

// WithoutCuts disables root knapsack cover cuts. The search remains exact
// either way.
func WithoutCuts() Option {
	return optionFunc(func(o *options) { o.noCuts = true })
}

// WithContext makes the solve honor ctx end-to-end: cancellation or deadline
// expiry is polled at every node boundary and inside every simplex pivot
// loop, and stops the search as an *anytime* result rather than an error —
// the best incumbent found so far is returned with StatusFeasible and the
// tightest proven bound (Solution.BestBound, Solution.Gap), or
// StatusInterrupted when no incumbent exists yet. A background context adds
// no overhead and changes no behavior.
func WithContext(ctx context.Context) Option {
	return optionFunc(func(o *options) { o.ctx = ctx })
}

// isInterrupted reports whether an error from an LP relaxation means the
// solve's context was cancelled rather than a structural/numerical failure.
func isInterrupted(err error) bool {
	return errors.Is(err, lp.ErrInterrupted) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// WithWorkers sets the number of branch-and-bound workers. Non-positive
// (the default) selects runtime.GOMAXPROCS(0). Every worker count runs the
// same exact best-first search over one shared frontier, pruning against a
// shared incumbent. Worker 0 runs on the calling goroutine and solves on
// the root's own problem and simplex workspace; each further worker runs on
// its own goroutine with a private clone of the problem and a private
// workspace. One worker is fully deterministic; every worker count proves
// the same optimal objective, and with more than one the solution vector
// may differ only among equally-optimal ties.
func WithWorkers(n int) Option {
	return optionFunc(func(o *options) { o.workers = n })
}

// node is an open branch-and-bound subproblem, defined by bounds on the
// integer variables. Root-style nodes (the tree root and the transient
// nodes built by the diving heuristic) carry full lo/hi arrays; branched
// children instead record the single bound changed relative to their parent
// and materialize the full box on demand. The delta representation matters:
// bound clones used to dominate the search's allocation profile, and a
// child node is now a fixed-size object regardless of variable count.
type node struct {
	lo, hi []float64 // full bounds, parallel to Problem.integer; nil on branched children
	parent *node     // chain to the nearest root-style ancestor; nil when lo/hi are set
	bvar   int       // branched integer-variable index (chain nodes only)
	bup    bool      // true: lo[bvar] raised to bval; false: hi[bvar] lowered to bval
	bval   float64

	bound float64 // LP relaxation bound inherited from the parent
	depth int
	seq   int // insertion order; later nodes win ties (plunging)

	// basis is the parent's optimal basis: the child differs by one bound,
	// so the dual simplex usually re-solves it in a handful of pivots. The
	// snapshot is immutable and safely shared across nodes and workers; nil
	// means no warm-start information (solve cold).
	basis *lp.Basis

	// Pseudo-cost bookkeeping: which branch created this node.
	branchedVar  int // index into Problem.integer; -1 at the root
	branchedUp   bool
	branchedFrac float64 // fractional part of the parent relaxation value

	// Certificate bookkeeping (certified solves only): the node's id in the
	// emitted branch tree, and the dual-pool index justifying its bound —
	// the parent's duals at creation, replaced by the node's own once its
	// relaxation is solved.
	certID   int
	certDual int
}

// nodeHeap orders nodes best-bound-first in maximize form, breaking ties by
// depth (deeper first) then recency, which makes the search plunge.
type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound > h[j].bound
	}
	if h[i].depth != h[j].depth {
		return h[i].depth > h[j].depth
	}
	return h[i].seq > h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return item
}

var _ heap.Interface = (*nodeHeap)(nil)

// Solve runs branch-and-bound and returns the outcome. An error is returned
// only for structurally invalid problems or numerical failure of the
// underlying LP solver.
func (p *Problem) Solve(opts ...Option) (*Solution, error) {
	cfg, workers := p.configure(opts)
	started := time.Now()
	// The root node is processed once up front — relaxation, cover cuts,
	// dive, presolve, branching — and its children seed the search below.
	pr, err := prepareRoot(p, &cfg, started)
	if err != nil {
		if pr == nil || !isInterrupted(err) {
			return nil, err
		}
		// Context fired mid-root: whatever the prep proved so far (bound,
		// dive incumbent) is still valid — finish as an anytime stop.
		pr.limited = true
		pr.interrupted = true
	}
	return newSearch(p, cfg, workers, started).run(pr)
}

// configure resolves the solve options: defaults, the LP options every
// relaxation carries, the certificate collector and the validated seed. It
// also returns the resolved worker count.
func (p *Problem) configure(opts []Option) (options, int) {
	cfg := options{}
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.maxNodes <= 0 {
		cfg.maxNodes = 200000
	}
	if cfg.gapTolerance <= 0 {
		cfg.gapTolerance = 1e-9
	}
	if cfg.intTolerance <= 0 {
		cfg.intTolerance = 1e-6
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.ctx != nil && cfg.ctx.Done() != nil {
		// Plumb the context into every LP relaxation solve so even a single
		// long pivot loop notices cancellation; contexts that can never fire
		// (nil, Background) skip the per-pivot polling entirely.
		cfg.lpOptions = append(append([]lp.Option{}, cfg.lpOptions...), lp.WithContext(cfg.ctx))
	}
	if cfg.kernel != lp.KernelAuto {
		cfg.lpOptions = append(append([]lp.Option{}, cfg.lpOptions...), lp.WithKernel(cfg.kernel))
	}
	if cfg.certify {
		// Certified solves prove every prune by plain LP weak duality over
		// the original rows. Cover-cut duals and reduced-cost fixing carry
		// proof obligations the self-contained verifier does not accept, so
		// both are disabled; dives and warm starts only affect incumbent
		// discovery and stay on.
		cfg.noCuts = true
		cfg.noPresolve = true
		cfg.cert = newCertCollector(p, &cfg)
	}
	if cfg.seedX != nil && !cfg.certify {
		cfg.seed = validateSeed(p, &cfg)
	}
	return cfg, workers
}

// pruneSlackFor is the absolute amount by which a node bound must beat the
// incumbent objective to stay open, derived from the relative gap tolerance.
func pruneSlackFor(cfg *options, incObj float64) float64 {
	return cfg.gapTolerance * math.Max(1, math.Abs(incObj))
}

// toMaxForm converts an objective in the problem's sense to maximize form;
// fromMaxForm converts back. The search compares bounds in maximize form.
func toMaxForm(maximize bool, obj float64) float64 {
	if maximize {
		return obj
	}
	return -obj
}

func fromMaxForm(maximize bool, obj float64) float64 { return toMaxForm(maximize, obj) }

// boundScratch is reusable storage for materializing a node's bounds: one
// lo/hi pair sized to the integer-variable count plus the ancestor-walk
// stack. The root prep and each worker own one, so no locking is needed.
type boundScratch struct {
	lo, hi []float64
	chain  []*node
}

func newBoundScratch(nInt int) *boundScratch {
	return &boundScratch{lo: make([]float64, nInt), hi: make([]float64, nInt)}
}

// materializeBounds writes nd's full integer box into lo/hi: the nearest
// root-style ancestor's arrays overlaid with the branch deltas along the
// chain, applied root-to-leaf so a deeper re-branching of the same variable
// wins. The chain scratch is returned for reuse.
func materializeBounds(nd *node, lo, hi []float64, chain []*node) []*node {
	chain = chain[:0]
	r := nd
	for r.lo == nil {
		chain = append(chain, r)
		r = r.parent
	}
	copy(lo, r.lo)
	copy(hi, r.hi)
	for i := len(chain) - 1; i >= 0; i-- {
		c := chain[i]
		if c.bup {
			lo[c.bvar] = c.bval
		} else {
			hi[c.bvar] = c.bval
		}
	}
	return chain
}

// cloneBounds materializes nd's bounds into freshly allocated arrays, for
// consumers outside the hot path (certificate leaves).
func (nd *node) cloneBounds() (lo, hi []float64) {
	r := nd
	for r.lo == nil {
		r = r.parent
	}
	lo = make([]float64, len(r.lo))
	hi = make([]float64, len(r.hi))
	materializeBounds(nd, lo, hi, nil)
	return lo, hi
}

// certLeafBound records a bound-pruned leaf with the certificate collector,
// materializing the node's bounds only when a collector is present.
func certLeafBound(c *certCollector, nd *node) {
	if c == nil {
		return
	}
	lo, hi := nd.cloneBounds()
	c.leafBound(nd.certID, nd.certDual, lo, hi)
}

// certLeafInfeasible records an infeasible leaf with the certificate
// collector, materializing the node's bounds only when a collector is
// present.
func certLeafInfeasible(c *certCollector, nd *node) {
	if c == nil {
		return
	}
	lo, hi := nd.cloneBounds()
	c.leafInfeasible(nd.certID, lo, hi)
}

// applyNodeBounds writes the node's integer bounds into a working problem.
func applyNodeBounds(work *lp.Problem, integer []lp.VarID, nd *node, sc *boundScratch) error {
	sc.chain = materializeBounds(nd, sc.lo, sc.hi, sc.chain)
	for k, v := range integer {
		if err := work.SetVariableBounds(v, sc.lo[k], sc.hi[k]); err != nil {
			return fmt.Errorf("ilp: apply node bounds: %w", err)
		}
	}
	return nil
}

// pickBranch selects the branching variable: highest branching priority
// first, then the configured rule (most-fractional by default, pseudo-cost
// product when selected, with pc supplying the up/down estimates). The root
// prep calls it with empty pseudo-cost tables.
func pickBranch(prob *Problem, cfg *options, x []float64, pc func(int) (float64, float64)) int {
	best := -1
	bestPri := math.MinInt32
	bestScore := -1.0
	for k, v := range prob.integer {
		val := x[v]
		frac := val - math.Floor(val)
		dist := math.Min(frac, 1-frac)
		if dist <= cfg.intTolerance {
			continue
		}
		score := dist
		if cfg.branchRule == BranchPseudoCost {
			down, up := pc(k)
			const eps = 1e-6
			score = math.Max(down*frac, eps) * math.Max(up*(1-frac), eps)
		}
		pri := prob.priority[v]
		if pri > bestPri || (pri == bestPri && score > bestScore) {
			best, bestPri, bestScore = k, pri, score
		}
	}
	return best
}

// makeChildren builds the floor/ceil children of a branched node as bound
// deltas chained to the parent. The parent's basis pointer moves to the
// children and is cleared on the parent: children warm-start from it
// directly, and keeping it on every interior chain node would pin one basis
// snapshot per ancestor for the life of the subtree.
func makeChildren(parent *node, k int, frac, bound float64, c *certCollector) (down, up *node) {
	down = &node{parent: parent, bvar: k, bup: false, bval: math.Floor(frac),
		bound: bound, depth: parent.depth + 1, basis: parent.basis}
	up = &node{parent: parent, bvar: k, bup: true, bval: math.Ceil(frac),
		bound: bound, depth: parent.depth + 1, basis: parent.basis}
	if c != nil {
		down.certID, up.certID = c.recordBranch(parent.certID, k, frac)
		down.certDual, up.certDual = parent.certDual, parent.certDual
	}
	parent.basis = nil
	return down, up
}

// pcAverage is the pseudo-cost estimate for one direction of one variable:
// the per-variable average when observations exist, falling back to the
// global average, then to 1.
func pcAverage(sums []float64, ns []int, k int) float64 {
	if ns[k] > 0 {
		return sums[k] / float64(ns[k])
	}
	totalSum, totalN := 0.0, 0
	for i := range ns {
		totalSum += sums[i]
		totalN += ns[i]
	}
	if totalN > 0 {
		return totalSum / float64(totalN)
	}
	return 1
}

// snapObjective copies x with every integer variable snapped exactly to the
// lattice and recomputes the objective of the snapped point in the
// problem's sense.
func snapObjective(work *lp.Problem, integer []lp.VarID, x []float64) ([]float64, float64) {
	snapped := make([]float64, len(x))
	copy(snapped, x)
	for _, v := range integer {
		snapped[v] = math.Round(snapped[v]) + 0 // +0 normalizes -0 from tiny negatives
	}
	obj := 0.0
	for j := range snapped {
		obj += work.ObjectiveCoefficient(lp.VarID(j)) * snapped[j]
	}
	return snapped, obj
}

// diveFrom is the diving heuristic run by the root prep and by the search
// workers, parameterized over how a relaxation is solved and how an
// incumbent is published.
func diveFrom(prob *Problem, cfg *options, nd *node, x []float64,
	solve func(*node) (*lp.Solution, error), offer func([]float64)) error {
	return diveWithCutoff(prob, cfg, nd, x, math.Inf(-1), solve, offer)
}

// diveWithCutoff is diveFrom with an objective floor (in max form): a step
// whose re-solved relaxation falls below cutoff is treated as a dead end,
// exactly like an infeasible one. With cutoff set to the node bound this
// becomes an optimal-face dive — it only walks between optimal vertices, so
// reaching integrality proves optimality outright. That matters on LP-tight
// instances whose optimal face is highly degenerate: whether the simplex
// kernel happens to stop at an integral vertex is pricing-rule luck, and a
// free dive from a fractional vertex readily degrades its way off the face.
// Pass -Inf for the classic any-incumbent dive. Every step, the first
// included, ends the dive at its LP point's rounding when roundingAttains
// accepts it.
func diveWithCutoff(prob *Problem, cfg *options, nd *node, x []float64, cutoff float64,
	solve func(*node) (*lp.Solution, error), offer func([]float64)) error {
	maximize := prob.lp.Sense() == lp.Maximize
	lo := make([]float64, len(prob.integer))
	hi := make([]float64, len(prob.integer))
	materializeBounds(nd, lo, hi, nil)
	chain := nd.basis // each dive step warm-starts from the previous optimum
	cur := x
	round := make([]float64, len(x)) // scratch for the rounding test
	acceptable := func(sol *lp.Solution) bool {
		return sol.Status == lp.StatusOptimal && toMaxForm(maximize, sol.Objective) >= cutoff
	}
	for step := 0; step <= len(prob.integer); step++ {
		// Find the fractional variable closest to integral.
		pick, pickDist := -1, 2.0
		for k, v := range prob.integer {
			frac := cur[v] - math.Floor(cur[v])
			dist := math.Min(frac, 1-frac)
			if dist <= cfg.intTolerance {
				continue
			}
			if dist < pickDist {
				pick, pickDist = k, dist
			}
		}
		if pick < 0 || roundingAttains(prob, cfg, maximize, cur, round, cutoff) {
			offer(cur)
			return nil
		}
		val := cur[prob.integer[pick]]
		fixed := math.Round(val)
		fixed = math.Max(lo[pick], math.Min(hi[pick], fixed))
		origLo, origHi := lo[pick], hi[pick]
		lo[pick], hi[pick] = fixed, fixed

		sol, err := solve(&node{lo: lo, hi: hi, basis: chain})
		if err != nil {
			return err
		}
		if !acceptable(sol) {
			// Dead end in the preferred direction: retry the other
			// rounding before abandoning the dive.
			alt := math.Floor(val)
			if alt == fixed {
				alt = math.Ceil(val)
			}
			alt = math.Max(origLo, math.Min(origHi, alt))
			if alt == fixed {
				return nil
			}
			lo[pick], hi[pick] = alt, alt
			sol, err = solve(&node{lo: lo, hi: hi, basis: chain})
			if err != nil {
				return err
			}
			if !acceptable(sol) {
				return nil // dead end both ways; the exact search continues
			}
		}
		if sol.Basis != nil {
			chain = sol.Basis
		}
		cur = sol.X
	}
	return nil
}

// diveFeasTol is the feasibility tolerance of a dive's rounding test:
// rows hold within diveFeasTol·(1+|rhs|) ≤ 1e-9·max(1,|rhs|), inside any
// caller's relative budget check.
const diveFeasTol = 5e-10

// roundingAttains is the simple-rounding test a dive runs on each LP point
// x: round every integer variable and accept when the point meets every
// bound and row of the original problem (cut rows are valid for it, node
// boxes do not bind an incumbent), its max-form objective is at least
// cutoff, and it is within the prune slack of x's own objective. Dive LP
// values never increase, so no later step beats an accepted point. round
// is scratch of len(x); a rejected test does not allocate.
func roundingAttains(prob *Problem, cfg *options, maximize bool, x, round []float64, cutoff float64) bool {
	obj, delta := 0.0, 0.0
	for j, xj := range x {
		obj += prob.lp.ObjectiveCoefficient(lp.VarID(j)) * xj
	}
	for _, v := range prob.integer {
		delta += prob.lp.ObjectiveCoefficient(v) * (math.Round(x[v]) - x[v])
	}
	lpObj, rounded := toMaxForm(maximize, obj), toMaxForm(maximize, obj+delta)
	if rounded < cutoff || rounded < lpObj-pruneSlackFor(cfg, lpObj) {
		return false
	}
	copy(round, x)
	for _, v := range prob.integer {
		round[v] = math.Round(x[v])
	}
	return feasibleWithin(prob.lp, round, diveFeasTol)
}

// stopStatus maps an early stop to its reported status: any incumbent makes
// the result feasible; otherwise a context stop is StatusInterrupted and a
// node/time budget stop is StatusLimit.
func stopStatus(hasIncumbent, interrupted bool) Status {
	if hasIncumbent {
		return StatusFeasible
	}
	if interrupted {
		return StatusInterrupted
	}
	return StatusLimit
}

// bestOpenBound returns the best (maximize-form) bound among open nodes.
func bestOpenBound(open *nodeHeap) float64 {
	best := math.Inf(-1)
	for _, nd := range *open {
		if nd.bound > best {
			best = nd.bound
		}
	}
	return best
}

// Enumerate exhaustively enumerates all assignments of the integer variables
// within their bounds and returns the best integer-feasible solution. It is
// exponential and intended only for cross-checking the branch-and-bound on
// small instances (tests and examples).
func (p *Problem) Enumerate() (*Solution, error) {
	started := time.Now()
	work := p.lp.Clone()
	maximize := work.Sense() == lp.Maximize

	nInt := len(p.integer)
	type rng struct{ lo, hi int }
	ranges := make([]rng, nInt)
	for k, v := range p.integer {
		lo, hi, err := work.VariableBounds(v)
		if err != nil {
			return nil, fmt.Errorf("ilp: read bounds: %w", err)
		}
		ranges[k] = rng{lo: int(math.Ceil(lo - 1e-9)), hi: int(math.Floor(hi + 1e-9))}
		if ranges[k].lo > ranges[k].hi {
			return &Solution{Status: StatusInfeasible, Elapsed: time.Since(started)}, nil
		}
	}

	var (
		bestX   []float64
		bestObj float64
		found   bool
		nodes   int
		lpIters int
	)
	assign := make([]int, nInt)
	var recurse func(k int) error
	recurse = func(k int) error {
		if k == nInt {
			for i, v := range p.integer {
				if err := work.SetVariableBounds(v, float64(assign[i]), float64(assign[i])); err != nil {
					return err
				}
			}
			sol, err := work.Solve()
			if err != nil {
				return err
			}
			nodes++
			lpIters += sol.Iterations
			if sol.Status != lp.StatusOptimal {
				return nil
			}
			obj := sol.Objective
			objMax := obj
			if !maximize {
				objMax = -obj
			}
			bestMax := bestObj
			if !maximize {
				bestMax = -bestObj
			}
			if !found || objMax > bestMax {
				found = true
				bestObj = obj
				bestX = make([]float64, len(sol.X))
				copy(bestX, sol.X)
				for _, v := range p.integer {
					bestX[v] = math.Round(bestX[v])
				}
			}
			return nil
		}
		for val := ranges[k].lo; val <= ranges[k].hi; val++ {
			assign[k] = val
			if err := recurse(k + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := recurse(0); err != nil {
		return nil, fmt.Errorf("ilp: enumerate: %w", err)
	}

	sol := &Solution{Nodes: nodes, LPIterations: lpIters, Elapsed: time.Since(started)}
	if !found {
		sol.Status = StatusInfeasible
		return sol, nil
	}
	sol.Status = StatusOptimal
	sol.Objective = bestObj
	sol.BestBound = bestObj
	sol.X = bestX
	return sol, nil
}

// sortedIntegerVariables returns the integer variable identifiers in
// ascending order; exposed for deterministic reporting by callers.
func (p *Problem) sortedIntegerVariables() []lp.VarID {
	out := make([]lp.VarID, len(p.integer))
	copy(out, p.integer)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IntegerVariables returns the integer variable identifiers in ascending
// order.
func (p *Problem) IntegerVariables() []lp.VarID {
	return p.sortedIntegerVariables()
}
