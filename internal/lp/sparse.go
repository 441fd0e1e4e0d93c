package lp

// Sparse revised simplex: the shared machinery behind the two sparse
// kernels, the LU kernel (KernelSparse, the default) and the retained eta
// kernel (KernelEta, a differential-testing oracle).
//
// The dense kernels in simplex.go and warm.go carry an explicit m x (n+m)
// tableau and pay O(m*(n+m)) per pivot to keep it eliminated. The deployment
// ILP's constraint matrix is overwhelmingly sparse — each coverage or cost
// row touches a handful of monitor variables — so both sparse kernels store
// the constraint matrix once in CSR/CSC form and never form a tableau; they
// differ only in how the basis inverse is represented.
//
// The LU kernel (lu.go) factorizes the basis matrix directly as
// R_k...R_1 L^-1 B = U via Markowitz-ordered Gaussian elimination under
// threshold partial pivoting, absorbs each pivot with a Forrest-Tomlin
// update (one replaced U column plus one row eta R instead of a growing eta
// file), and solves FTRAN/BTRAN hyper-sparsely: a depth-first reachability
// closure over the factor pattern restricts the triangular solves to the
// result's nonzeros. Its refactorization policy is adaptive, not periodic —
// a rebuild is triggered exactly when (a) accumulated Forrest-Tomlin
// updates reach luMaxUpdates, (b) the live factor nonzeros exceed
// luFillGrowth times the post-factorization count (measured fill growth),
// (c) an update's new diagonal fails its stability test, or (d) the row and
// column views of a pivot element drift apart past the agreement tolerance
// in the pivot loop. Triggers (b)-(d) are counted as adaptive
// refactorizations in the solve stats. Its dual simplex prices the leaving
// row by dual steepest edge (Forrest-Goldfarb weights ||e_i^T B^-1||^2,
// updated with one extra hyper-sparse FTRAN per pivot) and runs a
// bound-flipping dual ratio test (sparse_solve.go): one dual pivot flips
// whole runs of cheap finite-box nonbasic columns across their bounds
// before the blocking column enters, which suits the almost entirely
// 0/1-bounded deployment ILP.
//
// The eta kernel represents the basis inverse as a product form
// B = B0 * E_1 * ... * E_k over the all-logical base B0 = diag(sigma)
// (sigma_i is the logical coefficient of row i: +1 for <= and = rows, -1
// for >= rows), appends one eta per pivot, and rebuilds the file on a fixed
// budget of refactorEvery etas, which may permute basis positions; its dual
// simplex therefore keeps Dantzig pricing (largest violation). It predates
// the LU kernel and is kept unchanged as a second, structurally different
// oracle for differential tests; production solves should use the LU
// kernel.
//
// Both kernels share the stable column layout of warm.go — columns 0..n-1
// are the structural variables, column n+i the logical of row i — and the
// same basis-position semantics, so Basis snapshots move freely between the
// dense, eta and LU warm paths. They serve both phases of the
// branch-and-bound inner loop: warm-started dual simplex for children
// (bound changes only) and a cold start at the root, either a primal devex
// phase 2 when the all-lower point is feasible or a dual solve from the
// cost-sign "flip" point when it is dual feasible. The rare remainder (an
// attractive column with an infinite upper bound from a primal-infeasible
// start, or a numerically singular (re)factorization) falls back to the
// dense two-phase oracle transparently, counted in
// Solution.KernelFallbacks.

import (
	"math"
	"sort"
)

const (
	// refactorEvery is the eta budget between from-scratch rebuilds of the
	// basis factorization; see the package comment for the rationale.
	refactorEvery = 64
	// etaDropTol discards eta entries (and BTRAN row-multiplier entries)
	// too small to survive the 1e-9 pivot tolerance downstream.
	etaDropTol = 1e-12
	// devexWeightCap triggers a devex reference-framework reset: weights
	// restart at 1, which makes the next pricing pass exactly Dantzig.
	devexWeightCap = 1e7
	// dseMinWeight floors an updated dual steepest-edge weight: the
	// recurrence can cancel to (or, by rounding, below) zero, which would
	// make a row look arbitrarily attractive to pricing.
	dseMinWeight = 1e-4
	// statusAbort is the sparse kernel's internal "give up, fall back to
	// the dense oracle" outcome; it is never surfaced to callers.
	statusAbort Status = 0
)

// sparseMatrix is the CSR+CSC form of a problem's structural columns in the
// stable layout. Logical columns are implicit: column n+i is sigma[i]*e_i.
type sparseMatrix struct {
	n, m   int
	rowPtr []int32 // m+1 offsets into rowInd/rowVal
	rowInd []int32 // structural column per entry
	rowVal []float64
	colPtr []int32 // n+1 offsets into colInd/colVal
	colInd []int32 // row per entry
	colVal []float64
	sigma  []float64 // logical coefficient per row: +1 (<=, =) or -1 (>=)
	rhs    []float64
	eq     []bool
}

// build fills the matrix from the problem's rows, summing duplicate terms
// exactly as the dense kernels do. Buffers are reused across builds.
func (a *sparseMatrix) build(p *Problem, acc []float64, mark []int32) {
	n, m := len(p.vars), len(p.cons)
	a.n, a.m = n, m
	a.rowPtr = i32s(&a.rowPtr, m+1)
	a.sigma = f64(&a.sigma, m, false)
	a.rhs = f64(&a.rhs, m, false)
	a.eq = bools(&a.eq, m, false)
	a.rowInd = a.rowInd[:0]
	a.rowVal = a.rowVal[:0]
	for i, c := range p.cons {
		a.rowPtr[i] = int32(len(a.rowInd))
		a.sigma[i] = 1
		if c.op == GE {
			a.sigma[i] = -1
		}
		a.rhs[i] = c.rhs
		a.eq[i] = c.op == EQ
		start := len(a.rowInd)
		for _, t := range c.terms {
			j := int(t.Var)
			if acc[j] == 0 {
				// First touch in this row (or the sum returned to zero, in
				// which case a duplicate entry is harmless).
				a.rowInd = append(a.rowInd, int32(j))
			}
			acc[j] += t.Coeff
		}
		// Compact: drop entries whose summed coefficient is zero.
		out := start
		for _, j32 := range a.rowInd[start:] {
			if v := acc[j32]; v != 0 {
				a.rowInd[out] = j32
				a.rowVal = append(a.rowVal, v)
				out++
			}
			acc[j32] = 0
		}
		a.rowInd = a.rowInd[:out]
	}
	a.rowPtr[m] = int32(len(a.rowInd))

	// CSC from CSR by counting sort.
	a.colPtr = i32s(&a.colPtr, n+1)
	for j := 0; j <= n; j++ {
		a.colPtr[j] = 0
	}
	for _, j := range a.rowInd {
		a.colPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		a.colPtr[j+1] += a.colPtr[j]
	}
	nnz := len(a.rowInd)
	a.colInd = i32s(&a.colInd, nnz)
	a.colVal = f64(&a.colVal, nnz, false)
	next := mark[:n] // per-column fill cursors
	for j := 0; j < n; j++ {
		next[j] = a.colPtr[j]
	}
	for i := 0; i < m; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			j := a.rowInd[k]
			at := next[j]
			a.colInd[at] = int32(i)
			a.colVal[at] = a.rowVal[k]
			next[j]++
		}
	}
}

// colNNZ reports the structural column's nonzero count.
func (a *sparseMatrix) colNNZ(j int) int { return int(a.colPtr[j+1] - a.colPtr[j]) }

// etaFile is the product-form basis representation: eta k has pivot row
// pivRow[k], pivot value pivVal[k] and off-pivot entries ind/val in
// [start[k], start[k+1]).
type etaFile struct {
	pivRow []int32
	pivVal []float64
	start  []int32
	ind    []int32
	val    []float64
}

func (e *etaFile) reset() {
	e.pivRow = e.pivRow[:0]
	e.pivVal = e.pivVal[:0]
	e.ind = e.ind[:0]
	e.val = e.val[:0]
	if cap(e.start) == 0 {
		e.start = append(e.start, 0)
	}
	e.start = e.start[:1]
	e.start[0] = 0
}

func (e *etaFile) count() int { return len(e.pivRow) }

// push appends an eta built from the FTRANed entering column w with pivot
// row r. Identity etas (pivot 1, no off-pivot fill) are skipped. It reports
// whether an eta was stored.
func (e *etaFile) push(w []float64, r int) bool {
	piv := w[r]
	base := len(e.ind)
	for i, v := range w {
		if i == r || v == 0 {
			continue
		}
		if math.Abs(v) < etaDropTol {
			continue
		}
		e.ind = append(e.ind, int32(i))
		e.val = append(e.val, v)
	}
	if piv == 1 && len(e.ind) == base {
		return false
	}
	e.pivRow = append(e.pivRow, int32(r))
	e.pivVal = append(e.pivVal, piv)
	e.start = append(e.start, int32(len(e.ind)))
	return true
}

// ftran solves (E_1 ... E_k) z = v in place (the B0 scaling is applied by
// the caller before this runs).
func (e *etaFile) ftran(v []float64) {
	for k := 0; k < len(e.pivRow); k++ {
		r := e.pivRow[k]
		t := v[r]
		if t == 0 {
			continue
		}
		t /= e.pivVal[k]
		v[r] = t
		for idx := e.start[k]; idx < e.start[k+1]; idx++ {
			v[e.ind[idx]] -= e.val[idx] * t
		}
	}
}

// btran solves (E_1 ... E_k)^T z = y in place (the B0 scaling is applied by
// the caller after this runs).
func (e *etaFile) btran(y []float64) {
	for k := len(e.pivRow) - 1; k >= 0; k-- {
		t := y[e.pivRow[k]]
		for idx := e.start[k]; idx < e.start[k+1]; idx++ {
			t -= e.val[idx] * y[e.ind[idx]]
		}
		y[e.pivRow[k]] = t / e.pivVal[k]
	}
}

// sparseState is the workspace sub-struct backing the sparse kernel: the
// cached constraint matrix, the basis factorization that persists between
// warm solves, and all scratch buffers. It is disjoint from the dense
// kernels' buffers by construction.
type sparseState struct {
	// Constraint-matrix cache, keyed on the identity and shape of the
	// problem. Branch-and-bound mutates only variable bounds in place, so
	// (pointer, n, m) identifies the row structure: appending cut rows to
	// the same problem changes m and invalidates the cache.
	matProb *Problem
	mat     sparseMatrix

	// Persistent factorization of prob's basis, analogous to warmState.
	// Exactly one of the two representations is live at a time: luf when
	// isLU, the eta file otherwise. A kernel switch on the same workspace
	// invalidates the state, so one kernel never trusts the other's
	// factorization.
	prob      *Problem
	n, m      int
	valid     bool   // factorization/basis are consistent for prob
	basisID   uint64 // Basis.id the statuses/values correspond to; 0 = none
	isLU      bool   // which sparse kernel owns the state
	dualStart bool   // matProb's start shape, decided when mat was built
	eta       etaFile
	luf       luFactor
	baseEtas  int // eta count right after the last refactorization/install
	basis     []int
	stat      []varStatus
	x, lo, up []float64
	cost, d   []float64
	devexW    []float64

	// Dual steepest-edge pricing state of the LU kernel's dual simplex.
	// dseW[i] tracks ||e_i^T B^-1||^2 for basis position i; dseOK reports
	// whether it describes the factorized basis. Refactorizations keep
	// positions, so the weights survive them; installing a different basis
	// and primal pivots do not maintain them and clear dseOK, and the next
	// dual solve restarts every weight at 1 (exact for the all-logical
	// basis). tau is the m-length update scratch B^-1 rho_r.
	dseW  []float64
	dseOK bool
	tau   []float64

	// Scratch.
	col, rho []float64 // m-length FTRAN/BTRAN vectors
	arow     []float64 // (n+m)-length pivot-row scatter
	atouch   []int32   // columns touched in arow
	amark    []int64   // stamp per column guarding atouch
	astamp   int64
	acc      []float64 // matrix-build accumulator, n-length
	accMark  []int32   // matrix-build scratch, max(n,m)-length
	order    []int32   // refactorization column ordering
	inTarget []bool
	inBasis  []bool // installColumns' basis membership mark
	rowFree  []bool

	// LU-kernel scratch. rowv is the row-space FTRAN workload vector and
	// posv the position-space BTRAN seed vector; both are kept all-zero
	// between uses so the hyper-sparse solves never pay an O(m) clear.
	rowv   []float64
	posv   []float64
	nzbuf  []int32  // input-pattern scratch for ftran/btran
	target []int32  // renumber/refactor target-basis scratch
	cands  []bfCand // bound-flipping ratio test candidates, a min-heap
	flips  []int32  // columns flipped by the current BFRT pivot

	// Reused result storage for WithVolatileSolution solves: one Solution
	// object and one backing array for its three result vectors, recycled
	// across solves on this workspace instead of allocated per solve.
	volSol Solution
	volBuf []float64
}

// bfCand is one bound-flipping dual ratio test candidate: nonbasic column j
// with dual ratio d_j/a_j.
type bfCand struct {
	ratio float64
	j     int32
}

func i32s(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}

func i64s(buf *[]int64, n int) []int64 {
	if cap(*buf) < n {
		*buf = make([]int64, n)
	}
	return (*buf)[:n]
}

// spx is one sparse revised-simplex solve bound to a workspace's state.
type spx struct {
	cfg         *options
	prob        *Problem
	st          *sparseState
	n, m, nCols int
	negate      bool
	lu          bool // LU kernel; false runs the retained eta kernel
	dtol        float64

	iterations                          int
	degenerate                          int
	useBland                            bool
	etas, refactorizations, devexResets int
	ftUpdates, boundFlips               int
	adaptiveRefacs                      int
}

// bindSparse sizes the state for the problem and refreshes the matrix cache,
// invalidating the factorization when the cached matrix does not describe
// this problem's rows or was built by the other sparse kernel.
func bindSparse(p *Problem, cfg *options, ws *Workspace) *spx {
	n, m := len(p.vars), len(p.cons)
	st := &ws.sparse
	s := &spx{cfg: cfg, prob: p, st: st, n: n, m: m, nCols: n + m, negate: p.sense == Minimize}
	if st.matProb != p || st.mat.n != n || st.mat.m != m {
		st.acc = f64(&st.acc, n, true)
		wide := n
		if m > wide {
			wide = m
		}
		st.accMark = i32s(&st.accMark, wide)
		st.mat.build(p, st.acc, st.accMark)
		st.dualStart = p.startShape() == startDual
		st.matProb = p
		st.valid = false
		st.basisID = 0
	}
	// Auto-kernel solves pick by start shape and basis dimension. A
	// dual-start problem runs LU at every size: its cold solve is a dual
	// simplex, where dual steepest-edge pricing and the bound-flipping
	// ratio test win even on small bases. A primal-start problem runs LU
	// only from luAutoMinDim rows up; below it the eta file's cheap cold
	// starts and short product-form solves win. The shape is decided once
	// per cached matrix, so warm children, dives and tree nodes never flip
	// kernels (a flip discards the factorization). Explicit WithKernel pins
	// are honored unconditionally — differential tests and kernel
	// benchmarks need the pinned kernel, not the heuristic.
	s.lu = cfg.kernel != KernelEta && !(cfg.kernelAuto && m < luAutoMinDim && !st.dualStart)
	if st.isLU != s.lu {
		st.isLU = s.lu
		st.valid = false
		st.basisID = 0
	}
	if st.prob != p || st.n != n || st.m != m {
		st.valid = false
		st.basisID = 0
		st.prob = p
		st.n, st.m = n, m
	}
	st.basis = ints(&st.basis, m)
	st.stat = statuses2(&st.stat, s.nCols, !st.valid)
	st.x = f64(&st.x, s.nCols, false)
	st.lo = f64(&st.lo, s.nCols, false)
	st.up = f64(&st.up, s.nCols, false)
	st.cost = f64(&st.cost, s.nCols, false)
	st.d = f64(&st.d, s.nCols, false)
	st.devexW = f64(&st.devexW, s.nCols, false)
	st.col = f64(&st.col, m, false)
	st.rho = f64(&st.rho, m, false)
	st.arow = f64(&st.arow, s.nCols, false)
	st.amark = i64s(&st.amark, s.nCols)
	if s.lu {
		// rowv/posv carry an all-zero invariant between uses; growing them
		// yields fresh zeroed memory, so only sizing is needed here.
		st.rowv = f64(&st.rowv, m, cap(st.rowv) < m)
		st.posv = f64(&st.posv, m, cap(st.posv) < m)
		st.dseW = f64(&st.dseW, m, false)
		st.tau = f64(&st.tau, m, false)
	}
	return s
}

// startShape classifies a problem's all-logical simplex start.
type startShape uint8

const (
	startUnknown startShape = iota
	// startPrimal: every row holds with the structurals at their lower
	// bounds, so a cold sparse solve runs the primal simplex.
	startPrimal
	// startDual: some row is violated there, so a cold sparse solve parks
	// attractive columns and runs the dual simplex (MinCost coverage rows).
	startDual
)

// startShape reports the shape of the all-logical start under the current
// rows, right-hand sides and lower bounds, or the shape a clone inherited.
// The tolerance is the cold start's feasibility test at the default solve
// tolerance (see primalStartFeasible).
func (p *Problem) startShape() startShape {
	if p.start != startUnknown {
		return p.start
	}
	const tol = 1e-8
	for _, c := range p.cons {
		act := 0.0
		for _, t := range c.terms {
			act += t.Coeff * p.vars[t.Var].lower
		}
		slack := c.rhs - act
		if c.op == GE {
			slack = -slack
		}
		if slack < -tol || (c.op == EQ && slack > tol) {
			return startDual
		}
	}
	return startPrimal
}

// statuses2 sizes a status buffer, clearing it only when requested (a valid
// factorization's statuses must survive rebinding).
func statuses2(buf *[]varStatus, n int, zero bool) []varStatus {
	if cap(*buf) < n {
		*buf = make([]varStatus, n)
	}
	s := (*buf)[:n]
	if zero {
		clear(s)
	}
	return s
}

// loadBounds refreshes the stable-layout bounds and maximize-form costs from
// the problem, exactly as the dense warm path does.
func (s *spx) loadBounds() {
	st := s.st
	for j := 0; j < s.n; j++ {
		v := &s.prob.vars[j]
		st.lo[j], st.up[j] = v.lower, v.upper
		c := v.cost
		if s.negate {
			c = -c
		}
		st.cost[j] = c
	}
	for i := 0; i < s.m; i++ {
		j := s.n + i
		st.cost[j] = 0
		if st.mat.eq[i] {
			st.lo[j], st.up[j] = 0, 0
		} else {
			st.lo[j], st.up[j] = 0, Inf
		}
	}
	s.recoverDtol()
}

func (s *spx) recoverDtol() {
	maxc := 0.0
	for j := 0; j < s.n; j++ {
		if a := math.Abs(s.st.cost[j]); a > maxc {
			maxc = a
		}
	}
	s.dtol = 1e-7 * (1 + maxc)
}

// feasTol is the primal feasibility tolerance against a bound of the given
// magnitude, matching the dense warm path.
func (s *spx) feasTol(bound float64) float64 {
	return s.cfg.tolerance * 10 * (1 + math.Abs(bound))
}

// columnInto materializes stable column c of [A | logicals] into the dense
// m-vector v (cleared first).
func (s *spx) columnInto(c int, v []float64) {
	clear(v)
	a := &s.st.mat
	if c < s.n {
		for k := a.colPtr[c]; k < a.colPtr[c+1]; k++ {
			v[a.colInd[k]] = a.colVal[k]
		}
	} else {
		i := c - s.n
		v[i] = a.sigma[i]
	}
}

// ftranColumn computes B^-1 times stable column c into v (position space).
// On the LU kernel the solve is hyper-sparse off the column's own pattern
// and leaves the partial-FTRAN spike saved for a Forrest-Tomlin update.
func (s *spx) ftranColumn(c int, v []float64) {
	a := &s.st.mat
	if s.lu {
		st := s.st
		w := st.rowv // all-zero; luf.ftran consumes it back to zero
		nz := st.nzbuf[:0]
		if c < s.n {
			for k := a.colPtr[c]; k < a.colPtr[c+1]; k++ {
				i := a.colInd[k]
				w[i] = a.colVal[k]
				nz = append(nz, i)
			}
		} else {
			i := int32(c - s.n)
			w[i] = a.sigma[i]
			nz = append(nz, i)
		}
		st.nzbuf = nz
		st.luf.ftran(w, v, nz, true)
		return
	}
	s.columnInto(c, v)
	if c < s.n {
		for k := a.colPtr[c]; k < a.colPtr[c+1]; k++ {
			i := a.colInd[k]
			if a.sigma[i] < 0 {
				v[i] = -v[i]
			}
		}
	} else if i := c - s.n; a.sigma[i] < 0 {
		v[i] = -v[i] // sigma^2 = 1: B0^-1 times the logical is e_i
	}
	s.st.eta.ftran(v)
}

// btranRow computes rho = B^-T e_r into v: row r of B^-1.
func (s *spx) btranRow(r int, v []float64) {
	if s.lu {
		st := s.st
		st.posv[r] = 1
		st.nzbuf = append(st.nzbuf[:0], int32(r))
		st.luf.btran(st.posv, v, st.nzbuf)
		st.posv[r] = 0 // restore the all-zero invariant
		return
	}
	clear(v)
	v[r] = 1
	s.st.eta.btran(v)
	a := &s.st.mat
	for i := 0; i < s.m; i++ {
		if a.sigma[i] < 0 {
			v[i] = -v[i]
		}
	}
}

// pivotRowInto scatters alpha_row = rho^T [A | logicals] into st.arow,
// recording touched columns in st.atouch. Only touched columns can have a
// nonzero pivot-row entry; everything else is implicitly zero.
func (s *spx) pivotRowInto(rho []float64) {
	st := s.st
	a := &st.mat
	st.astamp++
	stamp := st.astamp
	st.atouch = st.atouch[:0]
	for i := 0; i < s.m; i++ {
		ri := rho[i]
		if ri == 0 || math.Abs(ri) < etaDropTol {
			continue
		}
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			j := a.rowInd[k]
			if st.amark[j] != stamp {
				st.amark[j] = stamp
				st.arow[j] = 0
				st.atouch = append(st.atouch, j)
			}
			st.arow[j] += ri * a.rowVal[k]
		}
		j := int32(s.n + i)
		if st.amark[j] != stamp {
			st.amark[j] = stamp
			st.arow[j] = 0
			st.atouch = append(st.atouch, j)
		}
		st.arow[j] += ri * a.sigma[i]
	}
}

// appendEta records the pivot on (FTRANed entering column w, row r).
func (s *spx) appendEta(w []float64, r int) {
	if s.st.eta.push(w, r) {
		s.etas++
	}
}

// recordPivot absorbs the pivot at basis position r into the factorization:
// an appended eta on the eta kernel, a Forrest-Tomlin update on the LU
// kernel. An unstable update falls back to an adaptive refactorization of
// the (already updated) basis; false reports a singular rebuild. w is the
// FTRANed entering column (used by the eta kernel only; the LU update works
// from the spike its ftran saved).
func (s *spx) recordPivot(w []float64, r int) bool {
	if !s.lu {
		s.appendEta(w, r)
		return true
	}
	if s.st.luf.update(r) {
		s.ftUpdates++
		return true
	}
	s.adaptiveRefacs++
	return s.renumber()
}

// installColumns greedily pivots the target basis columns into the current
// factorization, mirroring the dense installBasis: each missing target
// column is FTRANed and pivoted into the free row where it has the largest
// magnitude. On the eta kernel each pivot appends an eta; on the LU kernel
// it is absorbed as a Forrest-Tomlin update off the spike the FTRAN saved,
// so a warm start whose basis differs from the factorized one in a handful
// of columns costs a handful of sparse updates instead of a from-scratch
// refactorization. It reports false on duplicate targets, a (numerically)
// singular basis, or a declined update — after which the LU factor is torn
// and the caller must refactorize.
func (s *spx) installColumns(target []int32) bool {
	st := s.st
	inTarget := bools(&st.inTarget, s.nCols, true)
	for _, c := range target {
		if c < 0 || int(c) >= s.nCols || inTarget[c] {
			return false
		}
		inTarget[c] = true
	}
	rowFree := bools(&st.rowFree, s.m, false)
	inBasis := bools(&st.inBasis, s.nCols, true)
	for i := 0; i < s.m; i++ {
		rowFree[i] = !inTarget[st.basis[i]]
		inBasis[st.basis[i]] = true
	}
	for _, c32 := range target {
		c := int(c32)
		if inBasis[c] {
			continue
		}
		s.ftranColumn(c, st.col)
		best, bestAbs := -1, 1e-8
		for i := 0; i < s.m; i++ {
			if !rowFree[i] {
				continue
			}
			if a := math.Abs(st.col[i]); a > bestAbs {
				best, bestAbs = i, a
			}
		}
		if best < 0 {
			return false
		}
		if s.lu {
			if !st.luf.update(best) {
				return false
			}
			s.ftUpdates++
		} else {
			s.appendEta(st.col, best)
		}
		inBasis[st.basis[best]] = false
		st.basis[best] = c
		inBasis[c] = true
		rowFree[best] = false
	}
	return true
}

// luInstall attempts the incremental warm install on a still-valid LU
// factorization: when the target basis differs from the factorized one in
// few enough columns to fit the remaining Forrest-Tomlin update budget (and
// the diff is small relative to m, where updates beat a Markowitz rebuild),
// the missing columns are pivoted in as updates. A false return leaves the
// caller to refactorize from scratch; the factor may be torn by a declined
// mid-install update, which the rebuild repairs.
func (s *spx) luInstall(target []int32) bool {
	st := s.st
	missing := 0
	for _, c := range target {
		if st.stat[c] != statusBasic {
			missing++
		}
	}
	if missing == 0 {
		// The factorized basis already spans the target set (possibly in a
		// different position order, which the simplex never observes).
		return true
	}
	if st.luf.nUpdates+missing > s.luBudget() || missing*4 > s.m+3 {
		return false
	}
	st.dseOK = false // pivoted-in columns get no steepest-edge updates
	return s.installColumns(target)
}

// luBudget is the effective Forrest-Tomlin update budget between
// refactorizations: half the basis dimension, clamped to
// [luMinUpdates, luMaxUpdates]. Every FTRAN/BTRAN applies the whole
// accumulated row-eta chain, so on small bases the chain outgrows the cost
// of simply refactorizing long before the flat cap is reached.
func (s *spx) luBudget() int {
	b := s.m / 2
	if b > luMaxUpdates {
		return luMaxUpdates
	}
	if b < luMinUpdates {
		return luMinUpdates
	}
	return b
}

// refactor rebuilds the basis factorization from scratch for the given
// target basis. On the LU kernel this is a Markowitz LU of the target
// columns, which keeps the position order of target; on the eta kernel the
// eta file is rebuilt from the all-logical base, installing structural
// columns in ascending-nonzero order to limit fill (which may permute
// positions). On success the caller must recompute x and d.
func (s *spx) refactor(target []int32) bool {
	st := s.st
	if s.lu {
		s.refactorizations++
		if !st.luf.factorize(s, target) {
			return false
		}
		for i := 0; i < s.m; i++ {
			st.basis[i] = int(target[i])
		}
		return true
	}
	st.eta.reset()
	for i := 0; i < s.m; i++ {
		st.basis[i] = s.n + i
	}
	order := st.order[:0]
	for _, c := range target {
		if int(c) < s.n {
			order = append(order, c)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		na, nb := st.mat.colNNZ(int(order[a])), st.mat.colNNZ(int(order[b]))
		if na != nb {
			return na < nb
		}
		return order[a] < order[b]
	})
	// Logical targets keep their own rows under the all-logical base; only
	// the structural columns need pivoting, and they may not claim a row a
	// logical target owns. installColumns' rowFree logic needs the full
	// target set, so append the logicals (cheap no-ops) after the sorted
	// structurals.
	for _, c := range target {
		if int(c) >= s.n {
			order = append(order, c)
		}
	}
	st.order = order
	s.refactorizations++
	ok := s.installColumns(order)
	st.baseEtas = st.eta.count()
	return ok
}

// maybeRefactor applies each kernel's refactorization policy after a pivot:
// the eta kernel rebuilds once the fixed eta budget is spent; the LU kernel
// rebuilds adaptively, when accumulated Forrest-Tomlin updates reach
// luMaxUpdates or the live factor nonzeros show fill growth past
// luFillGrowth times the post-factorization baseline. It reports false on a
// singular rebuild (numerical abort).
func (s *spx) maybeRefactor() bool {
	st := s.st
	if s.lu {
		luf := &st.luf
		if luf.nUpdates >= s.luBudget() {
			return s.renumber()
		}
		if float64(luf.liveNnz()) > luFillGrowth*float64(luf.baseNnz) {
			s.adaptiveRefacs++
			return s.renumber()
		}
		return true
	}
	if st.eta.count()-st.baseEtas < refactorEvery {
		return true
	}
	return s.renumber()
}

// renumber refactorizes the current basis unconditionally and recomputes the
// iterate from it.
func (s *spx) renumber() bool {
	st := s.st
	// refactor mutates st.basis (and, on the eta kernel, sorts its own view
	// of st.order), so hand it a stable copy of the current basis.
	target := i32s(&st.target, s.m)
	for i := 0; i < s.m; i++ {
		target[i] = int32(st.basis[i])
	}
	if !s.refactor(target) {
		st.valid = false
		st.basisID = 0
		return false
	}
	s.computeX()
	s.computeD()
	return true
}

// computeX sets nonbasic variables to their bound values and solves
// B x_B = b - A_N x_N for the basic values.
func (s *spx) computeX() {
	st := s.st
	a := &st.mat
	v := st.col
	for i := 0; i < s.m; i++ {
		v[i] = a.rhs[i]
	}
	for j := 0; j < s.nCols; j++ {
		if st.stat[j] == statusBasic {
			continue
		}
		xv := st.lo[j]
		if st.stat[j] == statusUpper {
			xv = st.up[j]
		}
		st.x[j] = xv
		if xv == 0 {
			continue
		}
		if j < s.n {
			for k := a.colPtr[j]; k < a.colPtr[j+1]; k++ {
				v[a.colInd[k]] -= a.colVal[k] * xv
			}
		} else {
			i := j - s.n
			v[i] -= a.sigma[i] * xv
		}
	}
	if s.lu {
		// v is a true row-space right-hand side; the LU factors carry the
		// logical signs themselves, so no B0 scaling applies. The solve is
		// dense (the RHS generally is), consuming v back to zero.
		st.luf.ftran(v, st.rho, nil, false)
		for i := 0; i < s.m; i++ {
			st.x[st.basis[i]] = st.rho[i]
		}
		return
	}
	for i := 0; i < s.m; i++ {
		if a.sigma[i] < 0 {
			v[i] = -v[i]
		}
	}
	st.eta.ftran(v)
	for i := 0; i < s.m; i++ {
		st.x[st.basis[i]] = v[i]
	}
}

// computeD recomputes the reduced costs d = c - c_B^T B^-1 A from the
// current factorization.
func (s *spx) computeD() {
	st := s.st
	a := &st.mat
	y := st.rho
	if s.lu {
		// Position-space basic costs in, true row-space duals out; the LU
		// factors include the logical signs, so no B0 scaling applies.
		cb := st.col
		for i := 0; i < s.m; i++ {
			cb[i] = st.cost[st.basis[i]]
		}
		st.luf.btran(cb, y, nil)
	} else {
		for i := 0; i < s.m; i++ {
			y[i] = st.cost[st.basis[i]]
		}
		st.eta.btran(y)
		for i := 0; i < s.m; i++ {
			if a.sigma[i] < 0 {
				y[i] = -y[i]
			}
		}
	}
	for j := 0; j < s.n; j++ {
		d := st.cost[j]
		for k := a.colPtr[j]; k < a.colPtr[j+1]; k++ {
			d -= y[a.colInd[k]] * a.colVal[k]
		}
		st.d[j] = d
	}
	for i := 0; i < s.m; i++ {
		st.d[s.n+i] = -y[i] * a.sigma[i]
	}
	for i := 0; i < s.m; i++ {
		st.d[st.basis[i]] = 0
	}
}

// solutionOut returns the Solution object a finished solve should fill:
// freshly allocated normally, the workspace's recycled one (reset to zero)
// under WithVolatileSolution.
func (s *spx) solutionOut() *Solution {
	if !s.cfg.volatileSol {
		return &Solution{}
	}
	s.st.volSol = Solution{}
	return &s.st.volSol
}

// extract builds a Solution from an optimal sparse iterate, mirroring the
// dense paths' clamping and sign conventions exactly.
func (s *spx) extract(warm bool) *Solution {
	st := s.st
	sol := s.solutionOut()
	sol.Status = StatusOptimal
	sol.Iterations = s.iterations
	sol.Warm = warm
	sol.Etas = s.etas
	sol.Refactorizations = s.refactorizations
	sol.DevexResets = s.devexResets
	sol.Updates = s.ftUpdates
	sol.BoundFlips = s.boundFlips
	sol.AdaptiveRefactorizations = s.adaptiveRefacs
	if s.lu {
		sol.FactorNnz = st.luf.baseNnz
	}
	// One backing array for the three result vectors: node solves in
	// branch-and-bound build Solutions at a high rate, and the allocator and
	// GC costs of three small slices per solve are measurable at the E9
	// scale. Full slice expressions keep the views append-safe. Volatile
	// solves recycle the workspace's array; every element is overwritten
	// below, so no clear is needed.
	need := 2*s.n + s.m
	var buf []float64
	if s.cfg.volatileSol {
		if cap(st.volBuf) < need {
			st.volBuf = make([]float64, need)
		}
		buf = st.volBuf[:need]
	} else {
		buf = make([]float64, need)
	}
	sol.X = buf[:s.n:s.n]
	sol.DualValues = buf[s.n : s.n+s.m : s.n+s.m]
	sol.ReducedCosts = buf[s.n+s.m : need : need]
	obj := 0.0
	for j := 0; j < s.n; j++ {
		v := st.x[j]
		if v < st.lo[j] {
			v = st.lo[j]
		}
		if !math.IsInf(st.up[j], 1) && v > st.up[j] {
			v = st.up[j]
		}
		sol.X[j] = v
		obj += st.cost[j] * v
	}
	if s.negate {
		obj = -obj
	}
	sol.Objective = obj

	senseSign := 1.0
	if s.negate {
		senseSign = -1
	}
	for i := 0; i < s.m; i++ {
		sol.DualValues[i] = senseSign * -st.mat.sigma[i] * st.d[s.n+i]
	}
	for j := 0; j < s.n; j++ {
		sol.ReducedCosts[j] = senseSign * st.d[j]
	}
	return sol
}

// capture snapshots the current basis in the shared stable layout.
func (s *spx) capture() *Basis {
	st := s.st
	b := &Basis{
		id:       basisIDs.Add(1),
		n:        s.n,
		m:        s.m,
		rowBasic: make([]int32, s.m),
		vstat:    make([]uint8, s.n),
	}
	for i := 0; i < s.m; i++ {
		b.rowBasic[i] = int32(st.basis[i])
	}
	for j := 0; j < s.n; j++ {
		b.vstat[j] = uint8(st.stat[j])
	}
	return b
}
