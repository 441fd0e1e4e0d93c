package ilp

import (
	"math"

	"secmon/internal/lp"
)

// This file holds the cross-solve reuse hooks used by coordinator loops
// (internal/decomp) that solve the same problem shape many times in a row:
// seeding a known-feasible incumbent, reusing a simplex workspace, and
// warm-starting the root relaxation from a previous solve's final basis.

// WithIncumbent seeds the search with a known integer-feasible point. The
// point is validated against the problem (bounds, integrality, every row);
// an infeasible or mis-sized seed is silently ignored — the option is a
// performance hint, never a correctness input. A valid seed lets best-first
// pruning act from the very first node, which matters most when the caller
// already holds a near-optimal solution (decomposition repair heuristics,
// re-solves after small instance edits). Certified solves ignore the seed:
// the certificate's incumbent must be discovered by the audited search
// itself.
func WithIncumbent(x []float64) Option {
	return optionFunc(func(o *options) { o.seedX = x })
}

// WithWorkspace makes the root processing and search worker 0 reuse the
// given simplex workspace instead of allocating a fresh one, so a loop of
// same-shaped solves keeps its factorization buffers warm, at any worker
// count. The workspace must not be shared by concurrent solves. Workers
// beyond the first allocate private workspaces.
func WithWorkspace(ws *lp.Workspace) Option {
	return optionFunc(func(o *options) { o.extWS = ws })
}

// WithRootBasis offers a basis snapshot to warm-start the root relaxation,
// typically Solution.RootBasis of a previous solve of the same problem under
// slightly different bounds or objective. A stale or mis-shaped basis falls
// back to the cold two-phase solve inside the LP layer, so the option is
// always safe. Ignored when warm starts are disabled.
func WithRootBasis(b *lp.Basis) Option {
	return optionFunc(func(o *options) { o.rootBasis = b })
}

// RemapRootBasis translates a root basis captured on `from` into the layout
// of `to`, matching variables and rows by name (see lp.RemapBasis). It lets
// re-solve loops keep their warm start across instance EDITS — monitor
// columns added or dropped between solves — not just bound changes. The
// result is nil when no safe translation exists; passing it to WithRootBasis
// is then simply a no-op cold solve.
func RemapRootBasis(b *lp.Basis, from, to *Problem) *lp.Basis {
	if from == nil || to == nil {
		return nil
	}
	return lp.RemapBasis(b, from.lp, to.lp)
}

// SolveRelaxation solves the problem's LP relaxation — every integrality
// requirement dropped, bounds and rows unchanged — under the given LP
// options. Coordinator loops (the warm-shared Pareto sweep) use it to price
// a perturbed instance cheaply, typically warm-started from a previous
// solve's basis, before deciding whether a full branch-and-bound run is
// needed: the relaxation objective is a valid bound on the integer optimum
// whatever vertex the simplex lands on.
func (p *Problem) SolveRelaxation(opts ...lp.Option) (*lp.Solution, error) {
	return p.lp.Solve(opts...)
}

// seedIncumbent is a validated WithIncumbent point in maximize form.
type seedIncumbent struct {
	x   []float64
	obj float64
}

// seedFeasTol is the absolute-plus-relative feasibility tolerance for seed
// validation, matching the LP layer's working precision.
const seedFeasTol = 1e-6

// validateSeed checks a WithIncumbent vector against the problem and returns
// the snapped point with its maximize-form objective, or nil when the seed
// is unusable.
func validateSeed(p *Problem, cfg *options) *seedIncumbent {
	x := cfg.seedX
	if x == nil || len(x) != p.lp.NumVariables() {
		return nil
	}
	snapped := make([]float64, len(x))
	copy(snapped, x)
	for _, v := range p.integer {
		r := math.Round(snapped[v])
		if math.Abs(snapped[v]-r) > cfg.intTolerance {
			return nil
		}
		snapped[v] = r + 0 // +0 normalizes -0
	}
	if !feasibleWithin(p.lp, snapped, seedFeasTol) {
		return nil
	}
	obj := 0.0
	for j := range snapped {
		obj += p.lp.ObjectiveCoefficient(lp.VarID(j)) * snapped[j]
	}
	return &seedIncumbent{x: snapped, obj: toMaxForm(p.lp.Sense() == lp.Maximize, obj)}
}

// feasibleWithin reports whether x meets every variable bound of p within
// tol and every row within tol·(1+|rhs|). It reads p in place and does not
// allocate.
func feasibleWithin(p *lp.Problem, x []float64, tol float64) bool {
	for j, xj := range x {
		lo, hi, err := p.VariableBounds(lp.VarID(j))
		if err != nil || xj < lo-tol || xj > hi+tol {
			return false
		}
	}
	for c := 0; c < p.NumConstraints(); c++ {
		terms, op, rhs := p.Constraint(lp.ConID(c))
		act := 0.0
		for _, t := range terms {
			act += t.Coeff * x[t.Var]
		}
		rowTol := tol * (1 + math.Abs(rhs))
		switch op {
		case lp.LE:
			if act > rhs+rowTol {
				return false
			}
		case lp.GE:
			if act < rhs-rowTol {
				return false
			}
		case lp.EQ:
			if math.Abs(act-rhs) > rowTol {
				return false
			}
		}
	}
	return true
}
