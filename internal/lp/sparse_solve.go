package lp

// Sparse revised-simplex solve drivers: the warm-started dual simplex that
// serves branch-and-bound children, the cold entry (primal devex phase 2
// when the all-lower point is feasible, otherwise a dual solve from the
// cost-sign flip point) and the shared pivot loops. See sparse.go for the
// factorization machinery and the kernel overview.

import "math"

// sparseWarmSolve attempts a dual-simplex solve of p from basis b using the
// workspace's sparse state. ok=false means nothing conclusive happened and
// the caller falls through to the cold path; ok=true returns a proven
// outcome, mirroring the dense warmSolve contract exactly.
func sparseWarmSolve(p *Problem, cfg *options, b *Basis, ws *Workspace) (*Solution, bool) {
	n, m := len(p.vars), len(p.cons)
	if b == nil || b.n != n || b.m != m {
		return nil, false
	}
	s := bindSparse(p, cfg, ws)
	st := s.st
	if st.valid && st.basisID == b.id {
		if !s.rebind() {
			return nil, false
		}
	} else if !s.install(b) {
		return nil, false
	}
	st.basisID = 0 // pivots below leave the state describing no captured basis
	status := s.dualIterate()
	switch status {
	case StatusOptimal:
		sol := s.extract(true)
		if s.iterations == 0 {
			// Nothing pivoted: b still describes the optimum exactly, so
			// children can share the pointer and hit the rebind fast path.
			sol.Basis = b
		} else {
			sol.Basis = s.capture()
		}
		st.basisID = sol.Basis.id
		return sol, true
	case StatusInfeasible:
		// A violated basic variable with no eligible entering column proves
		// the tightened box empty; report without a cold re-solve.
		return s.conclude(StatusInfeasible, true), true
	case statusAbort:
		st.valid = false
		return nil, false
	default:
		// Iteration cap (possible cycling): let the cold path decide.
		return nil, false
	}
}

// conclude builds a minimal Solution carrying the solve counters for
// outcomes without a value vector.
func (s *spx) conclude(status Status, warm bool) *Solution {
	sol := s.solutionOut()
	sol.Status = status
	sol.Iterations = s.iterations
	sol.Warm = warm
	sol.Etas = s.etas
	sol.Refactorizations = s.refactorizations
	sol.DevexResets = s.devexResets
	sol.Updates = s.ftUpdates
	sol.BoundFlips = s.boundFlips
	sol.AdaptiveRefactorizations = s.adaptiveRefacs
	if s.lu {
		sol.FactorNnz = s.st.luf.baseNnz
	}
	return sol
}

// install (re)factorizes the sparse state so that b is the current basis,
// preferring an incremental eta install on a still-valid factorization and
// rebuilding from scratch otherwise. It reports false when the basis is
// structurally unusable or not dual feasible.
func (s *spx) install(b *Basis) bool {
	st := s.st
	fail := func() bool {
		st.valid = false
		st.basisID = 0
		return false
	}
	if s.lu {
		// Prefer the incremental install on a still-valid factorization:
		// branch-and-bound siblings share most of their basis with the
		// factorized one, so pivoting the few differing columns in as
		// Forrest-Tomlin updates beats a from-scratch Markowitz rebuild.
		// Larger diffs, a spent update budget, or a torn factor fall back to
		// refactorizing the snapshot directly.
		if !(st.valid && s.luInstall(b.rowBasic)) && !s.refactor(b.rowBasic) {
			return fail()
		}
	} else if st.valid {
		if !s.installColumns(b.rowBasic) || st.eta.count()-st.baseEtas >= refactorEvery {
			// Incremental install failed on the stale factorization, or the
			// eta chain it produced is already past the budget: rebuild.
			if !s.refactor(b.rowBasic) {
				return fail()
			}
		}
	} else if !s.refactor(b.rowBasic) {
		return fail()
	}
	st.valid = true
	st.basisID = 0
	s.loadBounds()
	if !s.setStatuses(b) {
		return false
	}
	s.computeX()
	s.computeD()
	return s.dualFeasible()
}

// rebind is the fast path for re-solving with the exact basis already
// factorized: only variable bounds may have changed, so the factorization,
// statuses and reduced costs all remain valid. Bound deltas of moved
// nonbasic variables are accumulated into a single right-hand-side update
// and propagated to the basic values with one FTRAN.
func (s *spx) rebind() bool {
	st := s.st
	a := &st.mat
	v := st.col
	clear(v)
	moved := false
	for j := 0; j < s.n; j++ {
		lo, up := s.prob.vars[j].lower, s.prob.vars[j].upper
		if lo == st.lo[j] && up == st.up[j] {
			continue
		}
		st.lo[j], st.up[j] = lo, up
		if st.stat[j] == statusBasic {
			continue // value unchanged; dual iterations restore feasibility
		}
		var nv float64
		if st.stat[j] == statusUpper {
			if math.IsInf(up, 1) {
				return false
			}
			nv = up
		} else {
			nv = lo
		}
		delta := nv - st.x[j]
		if delta == 0 {
			continue
		}
		st.x[j] = nv
		for k := a.colPtr[j]; k < a.colPtr[j+1]; k++ {
			v[a.colInd[k]] += a.colVal[k] * delta
		}
		moved = true
	}
	if moved {
		if s.lu {
			st.luf.ftran(v, st.rho, nil, false)
			for i := 0; i < s.m; i++ {
				if st.rho[i] != 0 {
					st.x[st.basis[i]] -= st.rho[i]
				}
			}
		} else {
			for i := 0; i < s.m; i++ {
				if a.sigma[i] < 0 {
					v[i] = -v[i]
				}
			}
			st.eta.ftran(v)
			for i := 0; i < s.m; i++ {
				if v[i] != 0 {
					st.x[st.basis[i]] -= v[i]
				}
			}
		}
	}
	s.recoverDtol()
	return true
}

// setStatuses applies the basis snapshot's variable statuses; nonbasic
// logicals always sit at their lower bound.
func (s *spx) setStatuses(b *Basis) bool {
	st := s.st
	for j := 0; j < s.n; j++ {
		stj := varStatus(b.vstat[j])
		if stj == statusUpper && math.IsInf(st.up[j], 1) {
			return false
		}
		st.stat[j] = stj
	}
	for j := s.n; j < s.nCols; j++ {
		st.stat[j] = statusLower
	}
	for i := 0; i < s.m; i++ {
		st.stat[st.basis[i]] = statusBasic
	}
	return true
}

// dualFeasible verifies the iterate is a valid dual-simplex starting point,
// with the same tolerance and fixed-variable exemption as the dense path.
func (s *spx) dualFeasible() bool {
	st := s.st
	for j := 0; j < s.nCols; j++ {
		if st.lo[j] == st.up[j] {
			continue
		}
		switch st.stat[j] {
		case statusLower:
			if st.d[j] > s.dtol {
				return false
			}
		case statusUpper:
			if st.d[j] < -s.dtol {
				return false
			}
		}
	}
	return true
}

// pickLeaving selects the basic variable with the largest bound violation,
// or row -1 when the basis is primal feasible (optimal, since dual
// feasibility is invariant).
func (s *spx) pickLeaving() (row int, below bool) {
	st := s.st
	row = -1
	best := 0.0
	for i := 0; i < s.m; i++ {
		b := st.basis[i]
		xb := st.x[b]
		if v := st.lo[b] - xb; v > s.feasTol(st.lo[b]) && v > best {
			best, row, below = v, i, true
		}
		if math.IsInf(st.up[b], 1) {
			continue
		}
		if v := xb - st.up[b]; v > s.feasTol(st.up[b]) && v > best {
			best, row, below = v, i, false
		}
	}
	return row, below
}

// pickEntering runs the dual ratio test over the scattered pivot row
// (st.arow/st.atouch): only touched columns can be eligible, so the scan is
// proportional to the row's fill rather than to n+m. Semantics match the
// dense pickEntering; -1 proves primal infeasibility.
func (s *spx) pickEntering(below bool) int {
	const pivTol = 1e-9
	st := s.st
	sign := 1.0
	if !below {
		sign = -1
	}
	best := -1
	bestRatio, bestAbs := math.Inf(1), 0.0
	for _, j32 := range st.atouch {
		j := int(j32)
		if st.stat[j] == statusBasic || st.lo[j] == st.up[j] {
			continue
		}
		a := sign * st.arow[j]
		var ratio float64
		switch st.stat[j] {
		case statusLower:
			if a >= -pivTol {
				continue
			}
			ratio = st.d[j] / a // d <= 0, a < 0 => ratio >= 0
		case statusUpper:
			if a <= pivTol {
				continue
			}
			ratio = st.d[j] / a // d >= 0, a > 0 => ratio >= 0
		}
		if ratio < 0 {
			ratio = 0
		}
		abs := math.Abs(st.arow[j])
		if s.useBland {
			// Anti-cycling: smallest column index among the minimal ratios,
			// independent of the scatter order of atouch.
			if best < 0 || ratio < bestRatio-s.cfg.tolerance ||
				(ratio < bestRatio+s.cfg.tolerance && j < best) {
				best, bestRatio, bestAbs = j, ratio, abs
			}
			continue
		}
		if ratio < bestRatio-s.cfg.tolerance ||
			(best >= 0 && ratio < bestRatio+s.cfg.tolerance && abs > bestAbs) {
			best, bestRatio, bestAbs = j, ratio, abs
		}
	}
	return best
}

// pickEnteringBFRT is the bound-flipping (long-step) dual ratio test used by
// the LU kernel outside Bland mode. Eligible candidates are collected with
// the same rules as pickEntering and visited in ascending (ratio, column)
// order; a candidate whose box is finite and whose flip leaves the leaving
// variable's infeasibility positive is recorded in st.flips and skipped —
// the dual objective keeps improving without spending a pivot — until a
// blocking candidate becomes the entering column. Among near-tie ratios at
// the block the largest pivot magnitude wins, matching pickEntering's
// stability tie-break. If every candidate flips with infeasibility to
// spare, the dual is unbounded and the primal infeasible: -1 is returned
// and no flips are recorded. The walk usually stops after a short prefix,
// so the candidates sit in a min-heap built in O(n) and are popped only as
// far as the walk goes, instead of being fully sorted.
func (s *spx) pickEnteringBFRT(r int, below bool) int {
	const pivTol = 1e-9
	st := s.st
	st.flips = st.flips[:0]
	sign := 1.0
	if !below {
		sign = -1
	}
	cands := st.cands[:0]
	for _, j32 := range st.atouch {
		j := int(j32)
		if st.stat[j] == statusBasic || st.lo[j] == st.up[j] {
			continue
		}
		a := sign * st.arow[j]
		var ratio float64
		switch st.stat[j] {
		case statusLower:
			if a >= -pivTol {
				continue
			}
			ratio = st.d[j] / a // d <= 0, a < 0 => ratio >= 0
		case statusUpper:
			if a <= pivTol {
				continue
			}
			ratio = st.d[j] / a // d >= 0, a > 0 => ratio >= 0
		}
		if ratio < 0 {
			ratio = 0
		}
		cands = append(cands, bfCand{ratio: ratio, j: j32})
	}
	st.cands = cands
	bfHeapify(cands)
	pending := cands
	leave := st.basis[r]
	var delta float64 // current primal infeasibility of the leaving variable
	if below {
		delta = st.lo[leave] - st.x[leave]
	} else {
		delta = st.x[leave] - st.up[leave]
	}
	var best bfCand
	for {
		if len(pending) == 0 {
			st.flips = st.flips[:0]
			return -1
		}
		best, pending = bfPop(pending)
		j := int(best.j)
		width := st.up[j] - st.lo[j]
		gain := math.Abs(st.arow[j]) * width
		if math.IsInf(width, 1) || delta-gain <= s.cfg.tolerance {
			break
		}
		st.flips = append(st.flips, best.j)
		delta -= gain
	}
	bestAbs := math.Abs(st.arow[best.j])
	for len(pending) > 0 && pending[0].ratio <= best.ratio+s.cfg.tolerance {
		var c bfCand
		c, pending = bfPop(pending)
		if a := math.Abs(st.arow[c.j]); a > bestAbs {
			best, bestAbs = c, a
		}
	}
	return int(best.j)
}

// bfLess orders ratio-test candidates by ascending ratio, breaking ties on
// column index so the visiting order is deterministic.
func bfLess(x, y bfCand) bool {
	return x.ratio < y.ratio || (x.ratio == y.ratio && x.j < y.j)
}

// bfHeapify arranges h into a bfLess min-heap in place, in O(len(h)).
func bfHeapify(h []bfCand) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		bfSiftDown(h, i)
	}
}

// bfPop removes the least candidate from the min-heap h and returns it with
// the shrunk heap.
func bfPop(h []bfCand) (bfCand, []bfCand) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	bfSiftDown(h, 0)
	return top, h
}

// bfSiftDown moves h[root] down until neither child is less than it.
func bfSiftDown(h []bfCand, root int) {
	for {
		c := 2*root + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && bfLess(h[c+1], h[c]) {
			c++
		}
		if !bfLess(h[c], h[root]) {
			return
		}
		h[root], h[c] = h[c], h[root]
		root = c
	}
}

// applyBoundFlips moves the recorded columns across their boxes and restores
// the basic values with a single FTRAN of the accumulated right-hand-side
// delta. Reduced costs are untouched here: each flipped column's ratio is at
// most the entering ratio, so the caller's post-pivot reduced-cost update
// carries its d across zero to the sign that is dual feasible at the new
// bound. The flips must therefore always be followed by the pivot whose
// ratio test chose them.
func (s *spx) applyBoundFlips() {
	st := s.st
	a := &st.mat
	w := st.rowv // all-zero between calls; ftran consumes it back to zero
	nz := st.nzbuf[:0]
	for _, j32 := range st.flips {
		j := int(j32)
		var nv float64
		if st.stat[j] == statusLower {
			st.stat[j] = statusUpper
			nv = st.up[j]
		} else {
			st.stat[j] = statusLower
			nv = st.lo[j]
		}
		d := nv - st.x[j]
		st.x[j] = nv
		if d == 0 {
			continue
		}
		if j < s.n {
			for k := a.colPtr[j]; k < a.colPtr[j+1]; k++ {
				i := a.colInd[k]
				if w[i] == 0 {
					nz = append(nz, i)
				}
				w[i] += a.colVal[k] * d
			}
		} else {
			i := int32(j - s.n)
			if w[i] == 0 {
				nz = append(nz, i)
			}
			w[i] += a.sigma[i] * d
		}
	}
	st.nzbuf = nz
	s.boundFlips += len(st.flips)
	st.flips = st.flips[:0]
	st.luf.ftran(w, st.rho, nz, false)
	for i := 0; i < s.m; i++ {
		if st.rho[i] != 0 {
			st.x[st.basis[i]] -= st.rho[i]
		}
	}
}

// dualIterate runs dual-simplex pivots until primal feasibility (optimal), a
// proven infeasibility, the iteration budget, or a numerical abort. Each
// pivot costs one BTRAN, one sparse row scatter, one FTRAN and one basis
// update (eta append or Forrest-Tomlin) — no tableau elimination.
func (s *spx) dualIterate() Status {
	st := s.st
	justRefactored := false
	for {
		if s.iterations >= s.cfg.maxIterations {
			return StatusIterationLimit
		}
		if s.cfg.interrupted() != nil {
			// Reported as an iteration limit: the warm caller treats it as
			// inconclusive and the cold path notices the context immediately.
			return StatusIterationLimit
		}
		r, below := s.pickLeaving()
		if r < 0 {
			return StatusOptimal
		}
		s.btranRow(r, st.rho)
		s.pivotRowInto(st.rho)
		var q int
		if s.lu && !s.useBland {
			q = s.pickEnteringBFRT(r, below)
		} else {
			q = s.pickEntering(below)
		}
		if q < 0 {
			return StatusInfeasible
		}
		s.ftranColumn(q, st.col)
		piv := st.col[r]
		// The row (BTRAN) and column (FTRAN) views of the pivot element must
		// agree; drift past the tolerance means the factorization has
		// degraded, so rebuild once and re-pick. A disagreement right after
		// a rebuild is a genuine numerical failure: abort to the dense
		// oracle.
		if math.Abs(piv-st.arow[q]) > 1e-7*(1+math.Abs(piv)) || math.Abs(piv) < 1e-11 {
			if justRefactored {
				return statusAbort
			}
			if s.lu {
				s.adaptiveRefacs++
			}
			if !s.renumber() {
				return statusAbort
			}
			justRefactored = true
			continue
		}
		justRefactored = false
		// Apply the bound flips the long-step ratio test chose. This sits
		// after the drift check on purpose: an aborted pick must not leave
		// flipped columns whose reduced costs were never updated. The flip
		// FTRAN does not save a spike, so the entering column's spike from
		// ftranColumn above survives for the Forrest-Tomlin update below.
		if len(st.flips) > 0 {
			s.applyBoundFlips()
		}
		s.iterations++
		if math.Abs(st.d[q]) <= s.cfg.tolerance {
			s.degenerate++
			if !s.useBland && s.degenerate > 4*(s.m+s.nCols) {
				s.useBland = true
			}
		} else {
			s.degenerate = 0
		}

		leave := st.basis[r]
		bound := st.lo[leave]
		if !below {
			bound = st.up[leave]
		}
		delta := (st.x[leave] - bound) / piv
		if delta != 0 {
			for i := 0; i < s.m; i++ {
				if i == r {
					continue
				}
				if a := st.col[i]; a != 0 {
					st.x[st.basis[i]] -= a * delta
				}
			}
		}
		st.x[q] += delta
		st.x[leave] = bound
		if below {
			st.stat[leave] = statusLower
		} else {
			st.stat[leave] = statusUpper
		}
		if f := st.d[q] / piv; f != 0 {
			for _, j32 := range st.atouch {
				st.d[j32] -= f * st.arow[j32]
			}
		}
		st.d[q] = 0
		st.basis[r] = q
		st.stat[q] = statusBasic
		if !s.recordPivot(st.col, r) {
			return statusAbort
		}
		if !s.maybeRefactor() {
			return statusAbort
		}
	}
}

// initDevex starts a fresh devex reference framework: all weights 1, which
// makes the first pricing pass exactly Dantzig.
func (s *spx) initDevex() {
	w := s.st.devexW
	for j := range w {
		w[j] = 1
	}
}

// resetDevex restarts the reference framework after the weights blow up.
func (s *spx) resetDevex() {
	s.initDevex()
	s.devexResets++
}

// price selects the entering column by devex score d^2/w among eligible
// nonbasic columns (Bland's smallest-index rule under anti-cycling), with
// the same eligibility conditions as the dense pricing.
func (s *spx) price() (col, dir int) {
	eps := s.cfg.tolerance
	st := s.st
	col, dir = -1, 0
	bestScore := 0.0
	for j := 0; j < s.nCols; j++ {
		if st.lo[j] == st.up[j] {
			continue
		}
		switch st.stat[j] {
		case statusBasic:
			continue
		case statusLower:
			if st.d[j] > eps {
				if s.useBland {
					return j, 1
				}
				if sc := st.d[j] * st.d[j] / st.devexW[j]; sc > bestScore {
					bestScore, col, dir = sc, j, 1
				}
			}
		case statusUpper:
			if st.d[j] < -eps {
				if s.useBland {
					return j, -1
				}
				if sc := st.d[j] * st.d[j] / st.devexW[j]; sc > bestScore {
					bestScore, col, dir = sc, j, -1
				}
			}
		}
	}
	return col, dir
}

// sparseRatioTest computes the maximum primal step for the FTRANed entering
// column in st.col, with the dense ratioTest's semantics (bound flips,
// largest-pivot tie-break) translated to unshifted bounds.
func (s *spx) sparseRatioTest(q, dir int) (t float64, pivotRow int, leavesAtUpper, ok bool) {
	const pivTol = 1e-9
	eps := s.cfg.tolerance
	st := s.st

	t = st.up[q] - st.lo[q] // bound-flip step; may be +Inf
	pivotRow = -1
	for i := 0; i < s.m; i++ {
		a := float64(dir) * st.col[i]
		if a > pivTol {
			b := st.basis[i]
			limit := (st.x[b] - st.lo[b]) / a
			if limit < 0 {
				limit = 0
			}
			if limit < t-eps || (pivotRow >= 0 && limit < t+eps && math.Abs(st.col[i]) > math.Abs(st.col[pivotRow])) {
				t, pivotRow, leavesAtUpper = limit, i, false
			}
		} else if a < -pivTol {
			b := st.basis[i]
			ub := st.up[b]
			if math.IsInf(ub, 1) {
				continue
			}
			limit := (ub - st.x[b]) / -a
			if limit < 0 {
				limit = 0
			}
			if limit < t-eps || (pivotRow >= 0 && limit < t+eps && math.Abs(st.col[i]) > math.Abs(st.col[pivotRow])) {
				t, pivotRow, leavesAtUpper = limit, i, true
			}
		}
	}
	if math.IsInf(t, 1) {
		return 0, 0, false, false
	}
	return t, pivotRow, leavesAtUpper, true
}

// devexUpdate refreshes the reference weights after a pivot on (row r,
// entering q) with pivot element piv: nonbasic weights grow to
// (alpha_rj/alpha_rq)^2 * w_q when that exceeds them, the leaving variable
// inherits max(w_q/piv^2, 1), and the framework resets when any weight
// passes the cap.
func (s *spx) devexUpdate(q, r int, piv float64) {
	st := s.st
	wq := st.devexW[q]
	if wq < 1 {
		wq = 1
	}
	invp2 := 1 / (piv * piv)
	maxW := 0.0
	for _, j32 := range st.atouch {
		j := int(j32)
		if j == q || st.stat[j] == statusBasic {
			continue
		}
		aj := st.arow[j]
		if aj == 0 {
			continue
		}
		if cand := aj * aj * invp2 * wq; cand > st.devexW[j] {
			st.devexW[j] = cand
		}
		if st.devexW[j] > maxW {
			maxW = st.devexW[j]
		}
	}
	wl := wq * invp2
	if wl < 1 {
		wl = 1
	}
	st.devexW[st.basis[r]] = wl // the leaving variable turns nonbasic
	st.devexW[q] = 1
	if maxW > devexWeightCap || wl > devexWeightCap {
		s.resetDevex()
	}
}

// primalIterate runs primal pivots with devex pricing from a primal feasible
// iterate until optimality, unboundedness, the iteration budget, or a
// numerical abort.
func (s *spx) primalIterate() Status {
	eps := s.cfg.tolerance
	st := s.st
	for {
		if s.iterations >= s.cfg.maxIterations {
			return StatusIterationLimit
		}
		if s.cfg.interrupted() != nil {
			return StatusIterationLimit
		}
		q, dir := s.price()
		if q < 0 {
			return StatusOptimal
		}
		s.ftranColumn(q, st.col)
		t, pivotRow, leavesAtUpper, ok := s.sparseRatioTest(q, dir)
		if !ok {
			return StatusUnbounded
		}
		s.iterations++
		if t <= eps {
			s.degenerate++
			if !s.useBland && s.degenerate > 4*(s.m+s.nCols) {
				s.useBland = true
			}
		} else {
			s.degenerate = 0
		}

		if t > 0 {
			st.x[q] += float64(dir) * t
			for i := 0; i < s.m; i++ {
				if a := st.col[i]; a != 0 {
					st.x[st.basis[i]] -= float64(dir) * t * a
				}
			}
		}
		if pivotRow < 0 {
			// Bound flip: the entering variable moved across its own box.
			if st.stat[q] == statusLower {
				st.stat[q] = statusUpper
				st.x[q] = st.up[q]
			} else {
				st.stat[q] = statusLower
				st.x[q] = st.lo[q]
			}
			continue
		}

		r := pivotRow
		piv := st.col[r]
		s.btranRow(r, st.rho)
		s.pivotRowInto(st.rho)
		s.devexUpdate(q, r, piv)
		if f := st.d[q] / piv; f != 0 {
			for _, j32 := range st.atouch {
				st.d[j32] -= f * st.arow[j32]
			}
		}
		st.d[q] = 0
		leave := st.basis[r]
		if leavesAtUpper {
			st.stat[leave] = statusUpper
			st.x[leave] = st.up[leave]
		} else {
			st.stat[leave] = statusLower
			st.x[leave] = st.lo[leave]
		}
		st.basis[r] = q
		st.stat[q] = statusBasic
		if !s.recordPivot(st.col, r) {
			return statusAbort
		}
		if !s.maybeRefactor() {
			return statusAbort
		}
	}
}

// sparseColdSolve runs a cold solve on the sparse kernel. ok=false (with a
// nil error) means the kernel declined — a cold-start shape it does not
// cover, or numerical trouble — and the caller falls back to the dense
// two-phase oracle. A non-nil error reports an interrupted solve.
func sparseColdSolve(p *Problem, cfg *options, ws *Workspace) (sol *Solution, ok bool, err error) {
	s := bindSparse(p, cfg, ws)
	st := s.st

	// Start from the all-logical basis: an empty eta file over B0 for the
	// eta kernel, a (trivial) fresh factorization for the LU kernel.
	if s.lu {
		target := i32s(&st.target, s.m)
		for i := 0; i < s.m; i++ {
			target[i] = int32(s.n + i)
		}
		if !s.refactor(target) {
			st.valid = false
			st.basisID = 0
			return nil, false, nil
		}
	} else {
		st.eta.reset()
		st.baseEtas = 0
		for i := 0; i < s.m; i++ {
			st.basis[i] = s.n + i
		}
	}
	st.valid = true
	st.basisID = 0
	s.loadBounds()
	for j := 0; j < s.n; j++ {
		st.stat[j] = statusLower
	}
	for i := 0; i < s.m; i++ {
		st.stat[s.n+i] = statusBasic
	}
	s.computeX()

	primal := s.primalStartFeasible()
	if !primal {
		// Dual flip: park attractive columns at their (finite) upper bound
		// so d = c is dual feasible, then let the dual simplex restore
		// primal feasibility. A profitable column with an infinite upper
		// bound has no dual-feasible parking spot: decline to the oracle.
		for j := 0; j < s.n; j++ {
			if st.lo[j] == st.up[j] {
				continue
			}
			if st.cost[j] > s.dtol {
				if math.IsInf(st.up[j], 1) {
					return nil, false, nil
				}
				st.stat[j] = statusUpper
			}
		}
		s.computeX()
	}
	s.computeD()

	var status Status
	if primal {
		s.initDevex()
		status = s.primalIterate()
	} else {
		status = s.dualIterate()
	}
	switch status {
	case StatusOptimal:
		sol = s.extract(false)
		if cfg.warm {
			sol.Basis = s.capture()
			st.basisID = sol.Basis.id
		}
		return sol, true, nil
	case StatusInfeasible:
		// Dual-simplex certificate from a dual-feasible start: genuine.
		return s.conclude(StatusInfeasible, false), true, nil
	case StatusUnbounded:
		// Primal ray from a primal-feasible iterate: genuine.
		return s.conclude(StatusUnbounded, false), true, nil
	case StatusIterationLimit:
		if err := cfg.interrupted(); err != nil {
			return nil, false, err
		}
		return s.conclude(StatusIterationLimit, false), true, nil
	default: // statusAbort
		st.valid = false
		st.basisID = 0
		return nil, false, nil
	}
}

// primalStartFeasible reports whether the all-logical basis is primal
// feasible with every structural variable at its lower bound.
func (s *spx) primalStartFeasible() bool {
	st := s.st
	for i := 0; i < s.m; i++ {
		b := st.basis[i]
		xb := st.x[b]
		if xb < st.lo[b]-s.feasTol(st.lo[b]) {
			return false
		}
		if !math.IsInf(st.up[b], 1) && xb > st.up[b]+s.feasTol(st.up[b]) {
			return false
		}
	}
	return true
}
