// Package lp provides a self-contained linear-programming solver based on a
// dense, bounded-variable, two-phase primal simplex method.
//
// The package exists because the monitor-deployment optimization of Thakore,
// Weaver and Sanders (DSN 2016) is formulated as an integer linear program,
// and this repository is restricted to the Go standard library. The solver
// supports minimization and maximization, <=, >= and = rows, and per-variable
// lower/upper bounds (upper bounds may be +Inf). It is exact up to floating
// point tolerances and is deterministic for a given problem.
//
// Typical usage:
//
//	p := lp.NewProblem(lp.Maximize)
//	x, _ := p.AddVariable("x", 0, 10, 3)
//	y, _ := p.AddVariable("y", 0, lp.Inf, 2)
//	_, _ = p.AddConstraint("cap", []lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 2}}, lp.LE, 14)
//	sol, err := p.Solve()
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Inf is a convenience alias for positive infinity, used for unbounded
// variable upper bounds.
var Inf = math.Inf(1)

// Sense states whether the objective is minimized or maximized.
type Sense int

// Objective senses.
const (
	Minimize Sense = iota + 1
	Maximize
)

// String returns a human-readable name for the sense.
func (s Sense) String() string {
	switch s {
	case Minimize:
		return "minimize"
	case Maximize:
		return "maximize"
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	// LE constrains the row to be less than or equal to the right-hand side.
	LE Op = iota + 1
	// GE constrains the row to be greater than or equal to the right-hand side.
	GE
	// EQ constrains the row to equal the right-hand side.
	EQ
)

// String returns the mathematical symbol for the operator.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// StatusOptimal means an optimal basic feasible solution was found.
	StatusOptimal Status = iota + 1
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective can be improved without limit.
	StatusUnbounded
	// StatusIterationLimit means the pivot budget was exhausted before
	// optimality was proven.
	StatusIterationLimit
)

// String returns a human-readable name for the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// VarID identifies a variable within a Problem.
type VarID int

// ConID identifies a constraint within a Problem.
type ConID int

// Term is a single coefficient*variable product in a constraint row.
type Term struct {
	Var   VarID
	Coeff float64
}

// Errors returned when building or solving malformed problems.
var (
	// ErrBadBounds is returned when a variable's lower bound exceeds its
	// upper bound or a bound is NaN.
	ErrBadBounds = errors.New("lp: invalid variable bounds")
	// ErrBadCoefficient is returned for NaN or infinite coefficients.
	ErrBadCoefficient = errors.New("lp: invalid coefficient")
	// ErrUnknownVariable is returned when a Term references a variable that
	// was not added to the problem.
	ErrUnknownVariable = errors.New("lp: unknown variable")
	// ErrEmptyProblem is returned when solving a problem with no variables.
	ErrEmptyProblem = errors.New("lp: problem has no variables")
	// ErrInterrupted is returned (wrapped, together with the context's own
	// error) when a solve configured with WithContext is cancelled or its
	// deadline expires mid-pivot. The partial solve state is discarded.
	ErrInterrupted = errors.New("lp: solve interrupted")
)

type variable struct {
	name  string
	lower float64
	upper float64
	cost  float64
}

type constraint struct {
	name  string
	terms []Term
	op    Op
	rhs   float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create problems with NewProblem.
type Problem struct {
	sense Sense
	vars  []variable
	cons  []constraint
	// start is the all-logical start shape inherited from the problem
	// this one was cloned from, startUnknown otherwise; see startShape.
	start startShape
}

// NewProblem returns an empty linear program with the given objective sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// Sense reports the problem's objective sense.
func (p *Problem) Sense() Sense { return p.sense }

// NumVariables reports the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.vars) }

// NumConstraints reports the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// AddVariable adds a variable with bounds [lower, upper] and the given
// objective coefficient, returning its identifier. The lower bound must be
// finite; the upper bound may be Inf.
func (p *Problem) AddVariable(name string, lower, upper, cost float64) (VarID, error) {
	switch {
	case math.IsNaN(lower) || math.IsNaN(upper) || math.IsInf(lower, 0):
		return 0, fmt.Errorf("%w: variable %q has bounds [%v, %v]", ErrBadBounds, name, lower, upper)
	case lower > upper:
		return 0, fmt.Errorf("%w: variable %q has lower %v > upper %v", ErrBadBounds, name, lower, upper)
	case math.IsNaN(cost) || math.IsInf(cost, 0):
		return 0, fmt.Errorf("%w: variable %q has objective coefficient %v", ErrBadCoefficient, name, cost)
	}
	p.vars = append(p.vars, variable{name: name, lower: lower, upper: upper, cost: cost})
	return VarID(len(p.vars) - 1), nil
}

// AddConstraint adds the row sum(terms) op rhs and returns its identifier.
// Terms referencing the same variable are summed. The terms slice is copied.
func (p *Problem) AddConstraint(name string, terms []Term, op Op, rhs float64) (ConID, error) {
	if op != LE && op != GE && op != EQ {
		return 0, fmt.Errorf("lp: constraint %q has invalid operator %d", name, int(op))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return 0, fmt.Errorf("%w: constraint %q has right-hand side %v", ErrBadCoefficient, name, rhs)
	}
	copied := make([]Term, len(terms))
	for i, t := range terms {
		if t.Var < 0 || int(t.Var) >= len(p.vars) {
			return 0, fmt.Errorf("%w: constraint %q references variable %d", ErrUnknownVariable, name, int(t.Var))
		}
		if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			return 0, fmt.Errorf("%w: constraint %q has coefficient %v", ErrBadCoefficient, name, t.Coeff)
		}
		copied[i] = t
	}
	p.cons = append(p.cons, constraint{name: name, terms: copied, op: op, rhs: rhs})
	return ConID(len(p.cons) - 1), nil
}

// SetVariableBounds replaces the bounds of an existing variable. It is the
// primary mutation used by branch-and-bound to explore subproblems.
func (p *Problem) SetVariableBounds(v VarID, lower, upper float64) error {
	if v < 0 || int(v) >= len(p.vars) {
		return fmt.Errorf("%w: variable %d", ErrUnknownVariable, int(v))
	}
	switch {
	case math.IsNaN(lower) || math.IsNaN(upper) || math.IsInf(lower, 0):
		return fmt.Errorf("%w: variable %q bounds [%v, %v]", ErrBadBounds, p.vars[v].name, lower, upper)
	case lower > upper:
		return fmt.Errorf("%w: variable %q lower %v > upper %v", ErrBadBounds, p.vars[v].name, lower, upper)
	}
	p.vars[v].lower = lower
	p.vars[v].upper = upper
	return nil
}

// SetObjectiveCoefficient replaces the objective coefficient of an existing
// variable. Callers that re-solve the same rows under a family of objectives
// — the Lagrangian subproblems of internal/decomp sweep a multiplier through
// the cost terms — mutate coefficients in place instead of rebuilding the
// problem. A prior Basis snapshot remains structurally valid (the rows are
// untouched), though its dual feasibility depends on the new objective.
func (p *Problem) SetObjectiveCoefficient(v VarID, cost float64) error {
	if v < 0 || int(v) >= len(p.vars) {
		return fmt.Errorf("%w: variable %d", ErrUnknownVariable, int(v))
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return fmt.Errorf("%w: variable %q has objective coefficient %v", ErrBadCoefficient, p.vars[v].name, cost)
	}
	p.vars[v].cost = cost
	return nil
}

// VariableBounds reports the current bounds of a variable.
func (p *Problem) VariableBounds(v VarID) (lower, upper float64, err error) {
	if v < 0 || int(v) >= len(p.vars) {
		return 0, 0, fmt.Errorf("%w: variable %d", ErrUnknownVariable, int(v))
	}
	return p.vars[v].lower, p.vars[v].upper, nil
}

// Constraint returns the terms, operator and right-hand side of a row. The
// returned slice is the problem's backing storage and must not be modified;
// it stays valid until the problem is mutated. Out-of-range identifiers
// yield a nil slice.
func (p *Problem) Constraint(c ConID) ([]Term, Op, float64) {
	if c < 0 || int(c) >= len(p.cons) {
		return nil, 0, 0
	}
	con := &p.cons[c]
	return con.terms, con.op, con.rhs
}

// VariableName reports the name given to a variable at creation.
func (p *Problem) VariableName(v VarID) string {
	if v < 0 || int(v) >= len(p.vars) {
		return ""
	}
	return p.vars[v].name
}

// ConstraintName reports the name given to a constraint at creation.
func (p *Problem) ConstraintName(c ConID) string {
	if c < 0 || int(c) >= len(p.cons) {
		return ""
	}
	return p.cons[c].name
}

// ObjectiveCoefficient reports the objective coefficient of a variable.
func (p *Problem) ObjectiveCoefficient(v VarID) float64 {
	if v < 0 || int(v) >= len(p.vars) {
		return 0
	}
	return p.vars[v].cost
}

// Clone returns a deep copy of the problem. Solutions of the copy are
// independent of later mutations to the original. The copy keeps the
// original's start shape, which picks the auto sparse kernel (see
// bindSparse), so a branch-and-bound worker's copy first solved under a
// node's tightened bounds runs the kernel its root ran.
func (p *Problem) Clone() *Problem {
	cp := &Problem{
		sense: p.sense,
		vars:  make([]variable, len(p.vars)),
		cons:  make([]constraint, len(p.cons)),
		start: p.startShape(),
	}
	copy(cp.vars, p.vars)
	for i, c := range p.cons {
		terms := make([]Term, len(c.terms))
		copy(terms, c.terms)
		cp.cons[i] = constraint{name: c.name, terms: terms, op: c.op, rhs: c.rhs}
	}
	return cp
}

// Solution holds the result of solving a Problem.
type Solution struct {
	// Status describes the solve outcome. X and Objective are only
	// meaningful when Status is StatusOptimal.
	Status Status
	// Objective is the optimal objective value in the problem's sense.
	Objective float64
	// X holds one value per variable, indexed by VarID.
	X []float64
	// DualValues holds one shadow price per constraint, indexed by ConID:
	// the rate of change of the optimal objective (in the problem's sense)
	// per unit increase of the constraint's right-hand side. Populated only
	// at optimality.
	DualValues []float64
	// ReducedCosts holds one reduced cost per variable, indexed by VarID:
	// c_j minus the dual prices of the variable's column. At optimality of
	// a maximization, variables at their lower bound have non-positive and
	// variables at their upper bound non-negative reduced cost (signs flip
	// for minimization). Populated only at optimality.
	ReducedCosts []float64
	// Iterations is the total number of simplex pivots performed across
	// both phases.
	Iterations int
	// Basis is a reusable snapshot of the optimal basis in the stable warm
	// layout, populated at optimality for solves run with WithWarmStart.
	// It may be shared across goroutines and fed to later solves of the
	// same problem with different variable bounds.
	Basis *Basis
	// Warm reports whether the dual simplex completed this solve from a
	// warm-start basis; false means the two-phase cold path ran.
	Warm bool
	// Etas counts the eta vectors appended to the eta kernel's basis
	// factorization during this solve (zero on the dense and LU kernels).
	Etas int
	// Refactorizations counts from-scratch rebuilds of the sparse kernels'
	// basis factorization during this solve — eta-budget rebuilds on the
	// eta kernel, Markowitz LU factorizations on the LU kernel (zero on
	// the dense kernel).
	Refactorizations int
	// DevexResets counts devex reference-framework resets during this
	// solve; after a reset pricing restarts from unit weights, which is
	// exactly full Dantzig pricing (zero on the dense kernel).
	DevexResets int
	// Updates counts Forrest-Tomlin basis updates performed by the LU
	// kernel during this solve: pivots absorbed into the factorization
	// without a rebuild (zero on the dense and eta kernels).
	Updates int
	// BoundFlips counts nonbasic variables the bound-flipping dual ratio
	// test moved across their finite box without a pivot; many flips per
	// pivot is the long-step win on 0/1-structured problems (zero on the
	// dense and eta kernels).
	BoundFlips int
	// FactorNnz is the nonzero count (L + U + pivots) of the LU kernel's
	// most recent basis factorization, a fill-in health measure (zero on
	// the dense and eta kernels).
	FactorNnz int
	// AdaptiveRefactorizations counts the subset of Refactorizations the
	// LU kernel triggered adaptively — measured fill growth, an unstable
	// Forrest-Tomlin update, or factorization drift — rather than on a
	// basis (re)install (zero on the dense and eta kernels).
	AdaptiveRefactorizations int
	// KernelFallbacks counts sparse-kernel declines answered by the dense
	// two-phase oracle during this solve: a cold-start shape the sparse
	// kernel does not cover, or a numerically singular (re)factorization.
	KernelFallbacks int
}

// Dual returns the shadow price of the given constraint, or 0 if out of
// range.
func (s *Solution) Dual(c ConID) float64 {
	if c < 0 || int(c) >= len(s.DualValues) {
		return 0
	}
	return s.DualValues[c]
}

// ReducedCost returns the reduced cost of the given variable, or 0 if out of
// range.
func (s *Solution) ReducedCost(v VarID) float64 {
	if v < 0 || int(v) >= len(s.ReducedCosts) {
		return 0
	}
	return s.ReducedCosts[v]
}

// Value returns the solution value of the given variable, or 0 if the
// identifier is out of range.
func (s *Solution) Value(v VarID) float64 {
	if v < 0 || int(v) >= len(s.X) {
		return 0
	}
	return s.X[v]
}

// Option configures a solve.
type Option interface {
	apply(*options)
}

type options struct {
	maxIterations int
	tolerance     float64
	workspace     *Workspace
	warm          bool
	warmBasis     *Basis
	ctx           context.Context
	kernel        Kernel
	// kernelAuto records that no kernel was pinned for this solve; auto
	// solves pick the eta kernel for primal-start problems on small bases
	// (see bindSparse and luAutoMinDim).
	kernelAuto  bool
	volatileSol bool
}

// Kernel selects the simplex implementation used by Solve.
type Kernel int

const (
	// KernelAuto pins no kernel: the solve runs the sparse revised simplex
	// with a per-problem choice of basis representation, the LU kernel for
	// dual-start problems (the all-logical start violates a row, as
	// MinCost coverage rows do) and for bases of luAutoMinDim rows or more,
	// the eta kernel for smaller primal-start problems.
	KernelAuto Kernel = iota
	// KernelSparse is the sparse revised simplex: CSR/CSC constraint
	// matrix, a Markowitz-pivoted LU basis factorization maintained by
	// Forrest-Tomlin updates with hyper-sparse FTRAN/BTRAN, devex pricing
	// and a bound-flipping dual ratio test. The default.
	KernelSparse
	// KernelDense is the original dense-tableau implementation, kept as the
	// correctness oracle. It always solves cold with the two-phase method:
	// a WithWarmStart basis is ignored, though an optimal solve still
	// captures its final basis.
	KernelDense
	// KernelEta is the previous sparse revised simplex, whose basis inverse
	// is a product-form eta file rebuilt on a fixed pivot budget. It is
	// retained as a second, structurally different oracle for differential
	// testing of the LU kernel; production solves should prefer
	// KernelSparse.
	KernelEta
)

// KernelLU names the LU-factorized sparse revised simplex explicitly; it is
// the same kernel as KernelSparse.
const KernelLU = KernelSparse

// String returns a human-readable kernel name.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelSparse:
		return "sparse"
	case KernelDense:
		return "dense"
	case KernelEta:
		return "eta"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

type kernelOption Kernel

func (o kernelOption) apply(opts *options) { opts.kernel = Kernel(o) }

// WithKernel selects the simplex kernel for this solve. KernelAuto (the zero
// value) pins none and leaves the choice to auto dispatch.
func WithKernel(k Kernel) Option { return kernelOption(k) }

// WithDenseKernel runs this solve on the dense-tableau oracle kernel instead
// of the sparse revised simplex.
func WithDenseKernel() Option { return kernelOption(KernelDense) }

// WithSparseKernel forces the sparse revised simplex kernel (the LU
// factorization) at every problem size.
func WithSparseKernel() Option { return kernelOption(KernelSparse) }

// WithEtaKernel runs this solve on the retained product-form eta kernel, the
// pre-LU sparse revised simplex kept as a differential-testing oracle.
func WithEtaKernel() Option { return kernelOption(KernelEta) }

type maxIterationsOption int

func (o maxIterationsOption) apply(opts *options) { opts.maxIterations = int(o) }

// WithMaxIterations caps the total number of simplex pivots. A non-positive
// value selects the default budget, which scales with problem size.
func WithMaxIterations(n int) Option { return maxIterationsOption(n) }

type toleranceOption float64

func (o toleranceOption) apply(opts *options) { opts.tolerance = float64(o) }

// WithTolerance sets the optimality/feasibility tolerance. A non-positive
// value selects the default of 1e-9.
func WithTolerance(eps float64) Option { return toleranceOption(eps) }

type workspaceOption struct{ ws *Workspace }

func (o workspaceOption) apply(opts *options) { opts.workspace = o.ws }

// WithWorkspace makes the solve use the given scratch workspace instead of
// the shared internal pool, eliminating per-solve buffer allocations for
// callers that solve many problems of similar shape (branch-and-bound
// explores thousands of same-shape relaxations). The workspace must not be
// shared between concurrent solves; a nil workspace selects the pool.
func WithWorkspace(ws *Workspace) Option { return workspaceOption{ws: ws} }

type volatileSolutionOption struct{}

func (volatileSolutionOption) apply(opts *options) { opts.volatileSol = true }

// WithVolatileSolution lets the solver reuse one Solution object (and the
// backing arrays of its X, DualValues and ReducedCosts vectors) across
// consecutive solves on the same workspace: the returned *Solution and its
// slices are valid only until the next Solve with that workspace. Callers
// that keep a solution — an incumbent, a set of duals — must copy what they
// need before solving again. Branch-and-bound node loops opt in because they
// discard almost every relaxation solution immediately, and the per-solve
// result vectors otherwise dominate the search's allocation profile.
// Solution.Basis snapshots are always freshly allocated and exempt from
// reuse. Kernels that do not support reuse ignore the option.
func WithVolatileSolution() Option { return volatileSolutionOption{} }

type warmStartOption struct{ b *Basis }

func (o warmStartOption) apply(opts *options) { opts.warm = true; opts.warmBasis = o.b }

type contextOption struct{ ctx context.Context }

func (o contextOption) apply(opts *options) { opts.ctx = o.ctx }

// WithContext makes the solve honor cancellation and deadlines: the pivot
// loops poll ctx and abandon the solve with an error wrapping ErrInterrupted
// (and the context's cause) as soon as it is done. A nil or background
// context adds no per-pivot overhead beyond a nil check.
func WithContext(ctx context.Context) Option { return contextOption{ctx: ctx} }

// interrupted reports the context's error when the configured context is
// done, nil otherwise. The nil/Done fast path keeps undeadlined solves free
// of polling overhead.
func (o *options) interrupted() error {
	if o.ctx == nil {
		return nil
	}
	if err := o.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrInterrupted, err)
	}
	return nil
}

// WithWarmStart enables warm-start support for the solve. When b is non-nil
// and describes a basis of a problem with the same shape, a sparse-kernel
// solve first attempts a dual-simplex re-solve from that basis — the fast
// path for branch-and-bound children, which differ from their parent only
// in variable bounds — and falls back to a cold solve on any structural or
// numerical trouble. The dense kernel ignores b and always solves cold.
// With or without an input basis, an optimal solve captures its final basis
// in Solution.Basis for reuse. Warm-started results are exact: only proven
// outcomes are reported from the warm path.
func WithWarmStart(b *Basis) Option { return warmStartOption{b: b} }

// Solve optimizes the problem and returns the outcome. An error is returned
// only for structurally invalid problems; infeasibility, unboundedness and
// iteration exhaustion are reported through Solution.Status.
func (p *Problem) Solve(opts ...Option) (*Solution, error) {
	if len(p.vars) == 0 {
		return nil, ErrEmptyProblem
	}
	cfg := options{}
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.tolerance <= 0 {
		cfg.tolerance = 1e-9
	}
	if cfg.maxIterations <= 0 {
		cfg.maxIterations = 20000 + 100*(len(p.vars)+len(p.cons))
	}
	if err := cfg.interrupted(); err != nil {
		return nil, err
	}
	if cfg.kernel != KernelSparse && cfg.kernel != KernelDense && cfg.kernel != KernelEta {
		cfg.kernel = KernelSparse
		cfg.kernelAuto = true
	}
	ws := cfg.workspace
	if ws == nil {
		ws = solvePool.Get().(*Workspace)
		defer solvePool.Put(ws)
	}
	fellBack := 0
	if cfg.kernel != KernelDense {
		if cfg.warm && cfg.warmBasis != nil {
			if sol, ok := sparseWarmSolve(p, &cfg, cfg.warmBasis, ws); ok {
				return sol, nil
			}
		}
		sol, ok, err := sparseColdSolve(p, &cfg, ws)
		if err != nil || ok {
			return sol, err
		}
		// The sparse kernel declined (cold-start shape it does not cover, or
		// numerical trouble): the dense two-phase method is the oracle
		// fallback and handles every case.
		fellBack = 1
	}
	s := newSimplex(p, cfg, ws)
	sol, err := s.solve()
	if err == nil {
		sol.KernelFallbacks = fellBack
		if cfg.warm && sol.Status == StatusOptimal {
			sol.Basis = s.captureBasis()
		}
	}
	return sol, err
}
