package ilp

import (
	"fmt"
	"math"
	"time"

	"secmon/internal/lp"
)

// Root-processing limits. Cut separation is cheap but each round re-solves
// the root LP from cold (the row set changed), so both the number of rounds
// and the pool size are kept small; in the monitor-deployment formulations
// only the budget/cost rows qualify, so the caps are never near binding.
const (
	maxCutRounds = 8
	maxCutPool   = 32
	// cutViolationTol is the minimum fractional violation worth cutting off.
	cutViolationTol = 1e-4
	// coverTol guards the knapsack weight comparisons.
	coverTol = 1e-9
	// tightenPasses bounds the constraint-propagation sweeps; bound
	// tightening converges fast and later passes rarely change anything.
	tightenPasses = 4
)

// rootPrep is the outcome of processing the root node once, before the
// search starts. The root relaxation is solved, cover cuts tighten it, the
// diving heuristic hunts for a first incumbent, and presolve (reduced-cost
// fixing plus bound tightening) shrinks the integer boxes. The prep fully
// accounts for the root node — it counts it in nodes, records the pre-cut
// root objective and duals, and either terminates the solve (infeasible /
// unbounded / pruned / integral root) or hands the two branched children to
// the search. The search's worker 0 then keeps solving on work and ws.
type rootPrep struct {
	work *lp.Problem   // problem clone carrying any cut rows
	ws   *lp.Workspace // workspace primed with the final root factorization

	lo, hi []float64 // root integer boxes after lattice snap and presolve
	basis  *lp.Basis // final root basis (nil when warm starts are off)

	branchVar int     // index into Problem.integer; -1 means no children
	frac      float64 // relaxation value of the branching variable
	bound     float64 // final root bound in maximize form

	rootObjective float64   // pre-cut root relaxation objective
	rootDuals     []float64 // pre-cut root shadow prices, original rows only

	unbounded   bool
	limited     bool // a time/context limit stopped the prep early
	interrupted bool // the limit was a context cancellation or deadline

	hasInc    bool
	incObj    float64 // maximize form
	incumbent []float64

	effort // nodes is 1 once the root relaxation has been solved

	presolveFixed, presolveTightened int
	cutsAdded, cutsActive            int
}

// prepareRoot processes the root node: lattice-snap the integer bounds,
// solve the root relaxation, separate cover cuts, dive for an incumbent,
// run presolve, and pick the branching variable. It returns a terminal prep
// (branchVar < 0) when the search is already decided at the root.
func prepareRoot(p *Problem, cfg *options, started time.Time) (*rootPrep, error) {
	pr := &rootPrep{branchVar: -1}
	maximize := p.lp.Sense() == lp.Maximize
	nInt := len(p.integer)
	pr.lo = make([]float64, nInt)
	pr.hi = make([]float64, nInt)
	for k, v := range p.integer {
		lo, hi, err := p.lp.VariableBounds(v)
		if err != nil {
			return pr, fmt.Errorf("ilp: read bounds: %w", err)
		}
		// Tighten fractional bounds to the integer lattice up front.
		pr.lo[k] = math.Ceil(lo - cfg.intTolerance)
		pr.hi[k] = math.Floor(hi + cfg.intTolerance)
		if pr.lo[k] > pr.hi[k] {
			cfg.cert.leafLatticeEmpty(0)
			return pr, nil // infeasible before any LP solve
		}
	}
	if s := cfg.seed; s != nil {
		// A validated WithIncumbent point prunes from the very first node,
		// and survives even a pre-root context stop (anytime contract).
		pr.hasInc, pr.incObj, pr.incumbent = true, s.obj, s.x
	}

	timeUp := func() bool {
		if cfg.ctxErr() != nil {
			pr.interrupted = true
			return true
		}
		return cfg.timeLimit > 0 && time.Since(started) > cfg.timeLimit
	}
	if timeUp() {
		pr.limited = true
		return pr, nil
	}

	pr.work = p.lp.Clone()
	if pr.ws = cfg.extWS; pr.ws == nil {
		pr.ws = lp.NewWorkspace()
	}
	origRows := pr.work.NumConstraints()

	// solve re-solves the root problem under the given integer boxes,
	// accumulating iteration and warm-start accounting exactly like the
	// search workers do. extra options ride along on this solve only.
	bsc := newBoundScratch(len(p.integer))
	solve := func(lo, hi []float64, basis *lp.Basis, extra ...lp.Option) (*lp.Solution, error) {
		if err := applyNodeBounds(pr.work, p.integer, &node{lo: lo, hi: hi}, bsc); err != nil {
			return nil, err
		}
		opts := append(append(append([]lp.Option{}, cfg.lpOptions...), extra...), lp.WithWorkspace(pr.ws))
		if !cfg.noWarm {
			opts = append(opts, lp.WithWarmStart(basis))
			if basis != nil {
				pr.warmAttempts++
			}
		}
		sol, err := pr.work.Solve(opts...)
		if err != nil {
			return nil, fmt.Errorf("ilp: relaxation: %w", err)
		}
		pr.count(sol)
		return sol, nil
	}

	sol, err := solve(pr.lo, pr.hi, cfg.rootBasis)
	if err != nil {
		return pr, err
	}
	// Dive steps read each relaxation point only until the next step
	// solves, so, as in the search, they let the LP kernel recycle
	// the result storage; certified solves are excluded because the
	// collector retains dual vectors. The root solve above and the
	// post-presolve re-solve stay non-volatile: their sol.X is read after
	// the dives.
	var diveOpts []lp.Option
	if cfg.cert == nil {
		diveOpts = []lp.Option{lp.WithVolatileSolution()}
	}
	solveNode := func(nd *node) (*lp.Solution, error) {
		return solve(nd.lo, nd.hi, nd.basis, diveOpts...)
	}
	pr.nodes = 1
	switch sol.Status {
	case lp.StatusInfeasible:
		cfg.cert.leafInfeasible(0, pr.lo, pr.hi)
		return pr, nil
	case lp.StatusUnbounded:
		pr.unbounded = true
		return pr, nil
	case lp.StatusIterationLimit:
		return pr, fmt.Errorf("ilp: LP relaxation hit its iteration limit at node %d", pr.nodes)
	}
	pr.rootObjective = sol.Objective
	pr.rootDuals = sol.DualValues
	pr.bound = toMaxForm(maximize, sol.Objective)
	pr.basis = sol.Basis
	cfg.cert.setRootDual(sol.DualValues)

	offer := func(x []float64) {
		snapped, obj := snapObjective(pr.work, p.integer, x)
		objMax := toMaxForm(maximize, obj)
		if !pr.hasInc || objMax > pr.incObj {
			pr.hasInc = true
			pr.incObj = objMax
			pr.incumbent = snapped
			cfg.cert.observeInc(objMax)
		}
	}
	// closed reports whether the incumbent already matches the root bound,
	// i.e. the search is over before it starts. Checked after every stage
	// so cut separation and presolve only run when they can still help.
	closed := func() bool {
		return pr.hasInc && pr.bound <= pr.incObj+pruneSlackFor(cfg, pr.incObj)
	}

	// Root dive first, on the clean problem: cheap incumbents enable
	// best-first pruning and the reduced-cost fixing below, and on
	// LP-tight instances they close the solve outright. The optimal-face
	// dive runs before the free dive: when the root bound is attained by an
	// integer point, it finds one regardless of which optimal vertex the
	// simplex kernel stopped at and the search ends here.
	faceDive := !cfg.disableFaceDive
	if !cfg.disableDive && !timeUp() {
		root := &node{lo: pr.lo, hi: pr.hi, bound: pr.bound, branchedVar: -1, basis: pr.basis}
		if faceDive {
			cut := pr.bound - pruneSlackFor(cfg, pr.bound)
			if err := diveWithCutoff(p, cfg, root, sol.X, cut, solveNode, offer); err != nil {
				return pr, err
			}
			if closed() {
				cfg.cert.leafBoundRoot(pr.lo, pr.hi)
				return pr, nil
			}
		}
		// A seeded solve starts with an incumbent, and a free-dive step
		// whose LP falls below the search's prune line can only reach
		// points offer rejects: the dive gives such steps up.
		freeCut := math.Inf(-1)
		if cfg.seed != nil {
			freeCut = pr.incObj + pruneSlackFor(cfg, pr.incObj)
		}
		if err := diveWithCutoff(p, cfg, root, sol.X, freeCut, solveNode, offer); err != nil {
			return pr, err
		}
		if closed() {
			cfg.cert.leafBoundRoot(pr.lo, pr.hi)
			return pr, nil
		}
	}

	// Knapsack cover cuts tighten the root bound before any branching.
	if !cfg.noCuts && !timeUp() {
		sol, err = pr.addCoverCuts(p, cfg, maximize, origRows, sol, solve)
		if err != nil {
			return pr, err
		}
		if sol == nil {
			// Valid cuts made the LP infeasible: no integer point exists.
			return pr, nil
		}
		if closed() {
			return pr, nil
		}
	}

	// Presolve: reduced-cost fixing against the incumbent, then
	// coefficient-based bound tightening. Any change forces one warm
	// re-solve so branching uses a relaxation point consistent with the
	// final boxes.
	if !cfg.noPresolve && !timeUp() && pr.presolve(p, cfg, maximize, sol) {
		sol, err = solve(pr.lo, pr.hi, pr.basis)
		if err != nil {
			return pr, err
		}
		switch sol.Status {
		case lp.StatusInfeasible:
			// The presolved region is empty; the incumbent (if any) kept
			// outside the boxes decides optimal vs. infeasible downstream.
			return pr, nil
		case lp.StatusUnbounded:
			return pr, fmt.Errorf("ilp: presolved root relaxation unbounded: %w", lp.ErrNumerical)
		case lp.StatusIterationLimit:
			return pr, fmt.Errorf("ilp: LP relaxation hit its iteration limit at node %d", pr.nodes)
		}
		if b := toMaxForm(maximize, sol.Objective); b < pr.bound {
			pr.bound = b
		}
		pr.basis = sol.Basis
	}

	// Second, cutoff-guarded dive from the post-cut post-presolve vertex:
	// cuts and presolve move the relaxation point and may tighten the
	// bound, so this is a cheap (warm-started) second draw at walking the
	// optimal face to an integer point.
	if faceDive && !cfg.disableDive && !timeUp() && !closed() {
		root := &node{lo: pr.lo, hi: pr.hi, bound: pr.bound, branchedVar: -1, basis: sol.Basis}
		cut := pr.bound - pruneSlackFor(cfg, pr.bound)
		if err := diveWithCutoff(p, cfg, root, sol.X, cut, solveNode, offer); err != nil {
			return pr, err
		}
	}

	pr.countActiveCuts(origRows, sol.X)

	// The same prune rule the search applies on pop.
	if pr.hasInc && pr.bound <= pr.incObj+pruneSlackFor(cfg, pr.incObj) {
		cfg.cert.leafBoundRoot(pr.lo, pr.hi)
		return pr, nil
	}

	// Root branching. Pseudo-cost tables are necessarily empty at the root,
	// so the estimate degenerates to the same constant the search uses.
	bv := pickBranch(p, cfg, sol.X, func(int) (float64, float64) { return 1, 1 })
	if bv < 0 {
		offer(sol.X) // integral root
		cfg.cert.leafBoundRoot(pr.lo, pr.hi)
		return pr, nil
	}
	pr.branchVar = bv
	pr.frac = sol.X[p.integer[bv]]
	return pr, nil
}

// addCoverCuts runs up to maxCutRounds of knapsack cover separation against
// the original LE rows, appending violated lifted covers to the working
// problem and re-solving the root after each round. It returns the final
// root solution, or nil if the cut-tightened LP is infeasible (proving the
// integer program infeasible, since every cut is valid for all integer
// points).
func (pr *rootPrep) addCoverCuts(p *Problem, cfg *options, maximize bool,
	origRows int, sol *lp.Solution,
	solve func(lo, hi []float64, basis *lp.Basis, extra ...lp.Option) (*lp.Solution, error)) (*lp.Solution, error) {

	idx := make(map[lp.VarID]int, len(p.integer))
	for k, v := range p.integer {
		idx[v] = k
	}
	for round := 0; round < maxCutRounds && pr.cutsAdded < maxCutPool; round++ {
		cuts := separateCoverCuts(pr.work, idx, origRows, pr.lo, pr.hi, sol.X)
		if len(cuts) == 0 {
			return sol, nil
		}
		for _, cut := range cuts {
			if pr.cutsAdded >= maxCutPool {
				break
			}
			name := fmt.Sprintf("cover-cut-%d", pr.cutsAdded)
			if _, err := pr.work.AddConstraint(name, cut.terms, lp.LE, cut.rhs); err != nil {
				return nil, fmt.Errorf("ilp: add cover cut: %w", err)
			}
			pr.cutsAdded++
		}
		// The row set changed shape, so this re-solve is necessarily cold;
		// passing no basis keeps the warm-start accounting honest.
		next, err := solve(pr.lo, pr.hi, nil)
		if err != nil {
			return nil, err
		}
		switch next.Status {
		case lp.StatusInfeasible:
			return nil, nil
		case lp.StatusUnbounded:
			return nil, fmt.Errorf("ilp: cut root relaxation unbounded: %w", lp.ErrNumerical)
		case lp.StatusIterationLimit:
			return nil, fmt.Errorf("ilp: LP relaxation hit its iteration limit at node %d", pr.nodes)
		}
		sol = next
		if b := toMaxForm(maximize, sol.Objective); b < pr.bound {
			pr.bound = b
		}
		pr.basis = sol.Basis
	}
	return sol, nil
}

// countActiveCuts records how many appended cut rows bind at the final root
// optimum.
func (pr *rootPrep) countActiveCuts(origRows int, x []float64) {
	if pr.work == nil {
		return
	}
	for c := origRows; c < pr.work.NumConstraints(); c++ {
		terms, _, rhs := pr.work.Constraint(lp.ConID(c))
		act := 0.0
		for _, t := range terms {
			act += t.Coeff * x[t.Var]
		}
		if act >= rhs-1e-6 {
			pr.cutsActive++
		}
	}
}

// coverCut is one lifted cover inequality sum_{E} x_j <= |C|-1.
type coverCut struct {
	terms []lp.Term
	rhs   float64
}

// separateCoverCuts finds violated extended cover inequalities. Only the
// original rows are scanned (never previously added cuts), and only LE rows
// whose free integer variables are all binary with positive coefficients
// qualify as knapsacks; fixed variables and non-negative continuous terms
// are folded into the capacity at their lower bounds. A cut already in the
// LP is satisfied by x and therefore never regenerated.
func separateCoverCuts(work *lp.Problem, idx map[lp.VarID]int, origRows int,
	lo, hi []float64, x []float64) []coverCut {

	var cuts []coverCut
	items := make([]knapItem, 0, 64)
	for c := 0; c < origRows; c++ {
		terms, op, rhs := work.Constraint(lp.ConID(c))
		if op != lp.LE {
			continue
		}
		b := rhs
		items = items[:0]
		usable := true
		for _, t := range terms {
			if t.Coeff == 0 {
				continue
			}
			k, isInt := idx[t.Var]
			if !isInt {
				l, _, err := work.VariableBounds(t.Var)
				if err != nil || t.Coeff < 0 {
					usable = false
					break
				}
				b -= t.Coeff * l // x >= l, coefficient positive: safe relaxation
				continue
			}
			if lo[k] == hi[k] {
				b -= t.Coeff * lo[k] // fixed: exact fold
				continue
			}
			if t.Coeff < 0 || lo[k] != 0 || hi[k] != 1 {
				usable = false
				break
			}
			items = append(items, knapItem{v: t.Var, a: t.Coeff, x: x[t.Var]})
		}
		if !usable || len(items) < 2 {
			continue
		}

		// Greedy cover: take items in decreasing fractional value (cheapest
		// to violate) until the knapsack capacity is exceeded.
		sortKnapItems(items)
		weight := 0.0
		cover := items[:0]
		for i := range items {
			cover = items[:i+1]
			weight += items[i].a
			if weight > b+coverTol {
				break
			}
		}
		if weight <= b+coverTol {
			continue // the row cannot be covered: no cut exists
		}
		// Minimalize from the back (smallest x first) so the violation stays
		// as large as possible.
		n := len(cover)
		keep := append([]knapItem(nil), cover...)
		for i := n - 1; i >= 0 && len(keep) > 1; i-- {
			if weight-keep[i].a > b+coverTol {
				weight -= keep[i].a
				keep = append(keep[:i], keep[i+1:]...)
			}
		}
		sumX := 0.0
		maxA := 0.0
		for _, it := range keep {
			sumX += it.x
			if it.a > maxA {
				maxA = it.a
			}
		}
		rhsCut := float64(len(keep) - 1)
		if sumX <= rhsCut+cutViolationTol {
			continue // not violated by the current relaxation point
		}
		// Extend: any free item at least as heavy as the heaviest cover
		// member also belongs (any |C|-subset of the extension outweighs the
		// capacity), strengthening the cut at no cost.
		cutTerms := make([]lp.Term, 0, len(keep))
		inKeep := make(map[lp.VarID]bool, len(keep))
		for _, it := range keep {
			inKeep[it.v] = true
			cutTerms = append(cutTerms, lp.Term{Var: it.v, Coeff: 1})
		}
		for _, it := range items {
			if !inKeep[it.v] && it.a >= maxA-coverTol {
				cutTerms = append(cutTerms, lp.Term{Var: it.v, Coeff: 1})
			}
		}
		cuts = append(cuts, coverCut{terms: cutTerms, rhs: rhsCut})
	}
	return cuts
}

// knapItem is one free binary variable of a knapsack row during cover
// separation: its weight a and relaxation value x.
type knapItem struct {
	v    lp.VarID
	a, x float64
}

// sortKnapItems orders knapsack items by decreasing relaxation value,
// breaking ties by decreasing weight then ascending variable id so the
// separation is deterministic. The candidate lists are small (one per
// budget row), so a quadratic sort is fine and allocation-free.
func sortKnapItems(s []knapItem) {
	less := func(a, b knapItem) bool {
		if a.x != b.x {
			return a.x > b.x
		}
		if a.a != b.a {
			return a.a > b.a
		}
		return a.v < b.v
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// presolve applies reduced-cost fixing (against the incumbent, when one
// exists) and coefficient-based bound tightening to the root integer boxes.
// It reports whether any bound changed. If tightening proves a box empty it
// reverts every change and reports false: the exact search handles the
// (rare) case without a special terminal path.
func (pr *rootPrep) presolve(p *Problem, cfg *options, maximize bool, sol *lp.Solution) bool {
	saveLo := append([]float64(nil), pr.lo...)
	saveHi := append([]float64(nil), pr.hi...)

	fixed := 0
	if pr.hasInc {
		// A variable glued to one of its bounds at the root optimum whose
		// reduced cost says moving it off the bound costs at least the
		// root-to-incumbent gap can be fixed there: the branch-and-bound
		// prune rule would discard every node that moves it.
		slack := pruneSlackFor(cfg, pr.incObj)
		for k, v := range p.integer {
			if pr.lo[k] >= pr.hi[k] {
				continue
			}
			rc := sol.ReducedCost(v)
			dmax := rc
			if !maximize {
				dmax = -rc
			}
			x := sol.Value(v)
			switch {
			case x <= pr.lo[k]+cfg.intTolerance && dmax <= 0 &&
				pr.bound+dmax <= pr.incObj+slack:
				pr.hi[k] = pr.lo[k]
				fixed++
			case x >= pr.hi[k]-cfg.intTolerance && dmax >= 0 &&
				pr.bound-dmax <= pr.incObj+slack:
				pr.lo[k] = pr.hi[k]
				fixed++
			}
		}
	}

	tightened, ok := tightenBounds(pr.work, p, cfg, pr.lo, pr.hi)
	if !ok {
		copy(pr.lo, saveLo)
		copy(pr.hi, saveHi)
		return false
	}
	if fixed+tightened == 0 {
		return false
	}
	pr.presolveFixed = fixed
	pr.presolveTightened = tightened
	return true
}

// tightenBounds propagates every row's minimum activity into the integer
// boxes: in a row sum a_j x_j <= b, variable x_k can use at most the slack
// left by the other terms at their cheapest. GE rows are handled negated and
// EQ rows in both directions. Returns the number of bound changes and false
// if some box became empty (the caller reverts).
func tightenBounds(work *lp.Problem, p *Problem, cfg *options, lo, hi []float64) (int, bool) {
	idx := make(map[lp.VarID]int, len(p.integer))
	for k, v := range p.integer {
		idx[v] = k
	}
	total := 0
	for pass := 0; pass < tightenPasses; pass++ {
		changed := 0
		for c := 0; c < work.NumConstraints(); c++ {
			terms, op, rhs := work.Constraint(lp.ConID(c))
			if op == lp.LE || op == lp.EQ {
				ch, ok := tightenRow(work, idx, lo, hi, terms, rhs, 1, cfg.intTolerance)
				if !ok {
					return total, false
				}
				changed += ch
			}
			if op == lp.GE || op == lp.EQ {
				ch, ok := tightenRow(work, idx, lo, hi, terms, -rhs, -1, cfg.intTolerance)
				if !ok {
					return total, false
				}
				changed += ch
			}
		}
		total += changed
		if changed == 0 {
			break
		}
	}
	return total, true
}

// tightenRow tightens integer bounds against one row read as
// sum sign*a_j x_j <= rhs. Returns changes made and false on an empty box.
func tightenRow(work *lp.Problem, idx map[lp.VarID]int, lo, hi []float64,
	terms []lp.Term, rhs, sign, intTol float64) (int, bool) {

	minAct := 0.0
	for _, t := range terms {
		a := sign * t.Coeff
		if a == 0 {
			continue
		}
		var l, u float64
		if k, isInt := idx[t.Var]; isInt {
			l, u = lo[k], hi[k]
		} else {
			var err error
			l, u, err = work.VariableBounds(t.Var)
			if err != nil {
				return 0, true
			}
		}
		if a > 0 {
			minAct += a * l
		} else {
			if math.IsInf(u, 1) {
				return 0, true // unbounded term: no finite minimum activity
			}
			minAct += a * u
		}
	}
	if math.IsInf(minAct, 0) || math.IsNaN(minAct) {
		return 0, true
	}

	changed := 0
	for _, t := range terms {
		a := sign * t.Coeff
		if a == 0 {
			continue
		}
		k, isInt := idx[t.Var]
		if !isInt || lo[k] >= hi[k] {
			continue
		}
		var contrib float64
		if a > 0 {
			contrib = a * lo[k]
		} else {
			contrib = a * hi[k]
		}
		slack := rhs - (minAct - contrib)
		if a > 0 {
			nh := math.Floor(slack/a + intTol)
			if nh < hi[k] {
				if nh < lo[k] {
					return changed, false
				}
				hi[k] = nh
				changed++
			}
		} else {
			nl := math.Ceil(slack/a - intTol)
			if nl > lo[k] {
				if nl > hi[k] {
					return changed, false
				}
				lo[k] = nl
				changed++
			}
		}
	}
	return changed, true
}
