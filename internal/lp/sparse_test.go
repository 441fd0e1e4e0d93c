package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// buildBoundedLP is a small helper: maximize 3x + 2y + 4z subject to
// x+y+z <= 10, x+2z <= 8, boxes [0,6] each. Optimum: z=4, x=0... verified
// against the dense kernel in the tests themselves rather than hand-solved.
func buildBoundedLP() *Problem {
	p := NewProblem(Maximize)
	x, _ := p.AddVariable("x", 0, 6, 3)
	y, _ := p.AddVariable("y", 0, 6, 2)
	z, _ := p.AddVariable("z", 0, 6, 4)
	p.AddConstraint("r1", []Term{{x, 1}, {y, 1}, {z, 1}}, LE, 10)
	p.AddConstraint("r2", []Term{{x, 1}, {z, 2}}, LE, 8)
	return p
}

func solveBoth(t *testing.T, p *Problem, opts ...Option) (sparse, dense *Solution) {
	t.Helper()
	dense, err := p.Clone().Solve(append([]Option{WithDenseKernel()}, opts...)...)
	if err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	sparse, err = p.Clone().Solve(append([]Option{WithSparseKernel()}, opts...)...)
	if err != nil {
		t.Fatalf("sparse solve: %v", err)
	}
	return sparse, dense
}

func TestSparsePrimalColdMatchesDense(t *testing.T) {
	sparse, dense := solveBoth(t, buildBoundedLP())
	if sparse.Status != StatusOptimal || dense.Status != StatusOptimal {
		t.Fatalf("statuses: sparse %v, dense %v", sparse.Status, dense.Status)
	}
	if math.Abs(sparse.Objective-dense.Objective) > testTol {
		t.Fatalf("objective: sparse %v, dense %v", sparse.Objective, dense.Objective)
	}
}

func TestSparseDualFlipStart(t *testing.T) {
	// A >= row makes the all-logical start primal infeasible, forcing the
	// sparse cold path through the dual-flip start and dual iterations.
	p := NewProblem(Minimize)
	x, _ := p.AddVariable("x", 0, 5, 2)
	y, _ := p.AddVariable("y", 0, 5, 3)
	p.AddConstraint("cover", []Term{{x, 1}, {y, 1}}, GE, 4)
	sparse, dense := solveBoth(t, p)
	if sparse.Status != StatusOptimal || math.Abs(sparse.Objective-dense.Objective) > testTol {
		t.Fatalf("sparse %v obj %v, dense obj %v", sparse.Status, sparse.Objective, dense.Objective)
	}
	if math.Abs(sparse.Objective-8) > testTol { // x=4 at cost 2 each
		t.Fatalf("objective = %v, want 8", sparse.Objective)
	}
}

func TestSparseEqualityRow(t *testing.T) {
	p := NewProblem(Maximize)
	x, _ := p.AddVariable("x", 0, 10, 1)
	y, _ := p.AddVariable("y", 0, 10, 1)
	p.AddConstraint("eq", []Term{{x, 1}, {y, 2}}, EQ, 6)
	sparse, dense := solveBoth(t, p)
	if sparse.Status != StatusOptimal || math.Abs(sparse.Objective-dense.Objective) > testTol {
		t.Fatalf("sparse %v obj %v, dense obj %v", sparse.Status, sparse.Objective, dense.Objective)
	}
}

func TestSparseInfeasible(t *testing.T) {
	p := NewProblem(Maximize)
	x, _ := p.AddVariable("x", 0, 1, 1)
	p.AddConstraint("need", []Term{{x, 1}}, GE, 3)
	sparse, dense := solveBoth(t, p)
	if sparse.Status != StatusInfeasible || dense.Status != StatusInfeasible {
		t.Fatalf("statuses: sparse %v, dense %v, want infeasible", sparse.Status, dense.Status)
	}
}

func TestSparseInfiniteUpperFallsBackToDense(t *testing.T) {
	// An attractive column with an infinite upper bound cannot take the
	// dual-flip start; the sparse kernel must decline and the dense oracle
	// must take over transparently (unbounded here).
	p := NewProblem(Maximize)
	x, _ := p.AddVariable("x", 0, Inf, 1)
	p.AddConstraint("r", []Term{{x, -1}}, LE, 5) // -x <= 5 never binds upward
	sol, err := p.Solve(WithSparseKernel())
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

// TestSparseWarmAcrossBoundChanges mirrors the branch-and-bound access
// pattern: solve, tighten a bound, re-solve warm from the captured basis —
// on one shared workspace — and cross-check each step against the dense
// kernel on its own workspace.
func TestSparseWarmAcrossBoundChanges(t *testing.T) {
	ps := buildBoundedLP()
	pd := buildBoundedLP()
	wss, wsd := NewWorkspace(), NewWorkspace()

	ssol, err := ps.Solve(WithSparseKernel(), WithWorkspace(wss), WithWarmStart(nil))
	if err != nil {
		t.Fatalf("sparse root: %v", err)
	}
	dsol, err := pd.Solve(WithDenseKernel(), WithWorkspace(wsd), WithWarmStart(nil))
	if err != nil {
		t.Fatalf("dense root: %v", err)
	}
	if ssol.Basis == nil || dsol.Basis == nil {
		t.Fatalf("missing basis: sparse %v, dense %v", ssol.Basis, dsol.Basis)
	}

	bounds := [][2]float64{{0, 2}, {1, 5}, {0, 0}, {0, 6}}
	sb, db := ssol.Basis, dsol.Basis
	for i, b := range bounds {
		if err := ps.SetVariableBounds(VarID(2), b[0], b[1]); err != nil {
			t.Fatal(err)
		}
		if err := pd.SetVariableBounds(VarID(2), b[0], b[1]); err != nil {
			t.Fatal(err)
		}
		ssol, err = ps.Solve(WithSparseKernel(), WithWorkspace(wss), WithWarmStart(sb))
		if err != nil {
			t.Fatalf("step %d sparse: %v", i, err)
		}
		dsol, err = pd.Solve(WithDenseKernel(), WithWorkspace(wsd), WithWarmStart(db))
		if err != nil {
			t.Fatalf("step %d dense: %v", i, err)
		}
		if ssol.Status != dsol.Status {
			t.Fatalf("step %d: sparse %v, dense %v", i, ssol.Status, dsol.Status)
		}
		if ssol.Status == StatusOptimal && math.Abs(ssol.Objective-dsol.Objective) > testTol {
			t.Fatalf("step %d objective: sparse %v, dense %v", i, ssol.Objective, dsol.Objective)
		}
		sb, db = ssol.Basis, dsol.Basis
	}
}

// TestWorkspaceKernelAlternation is the regression test for kernel-aware
// workspace acquisition: alternating kernels on ONE workspace (and one
// problem, with bounds shifting between solves) must never hand one kernel
// the other's stale scratch. Before the sparse state was kept disjoint and
// keyed on (problem, shape, basis identity), this pattern could replay a
// stale factorization.
func TestWorkspaceKernelAlternation(t *testing.T) {
	p := buildBoundedLP()
	ws := NewWorkspace()
	ref := buildBoundedLP()

	bounds := [][2]float64{{0, 6}, {0, 3}, {2, 6}, {0, 1}, {0, 6}}
	var sb, db *Basis
	for i, b := range bounds {
		if err := p.SetVariableBounds(VarID(0), b[0], b[1]); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetVariableBounds(VarID(0), b[0], b[1]); err != nil {
			t.Fatal(err)
		}
		// Fresh-workspace dense solve as the trusted value for this step.
		want, err := ref.Clone().Solve(WithDenseKernel())
		if err != nil {
			t.Fatalf("step %d reference: %v", i, err)
		}

		ssol, err := p.Solve(WithSparseKernel(), WithWorkspace(ws), WithWarmStart(sb))
		if err != nil {
			t.Fatalf("step %d sparse on shared ws: %v", i, err)
		}
		dsol, err := p.Solve(WithDenseKernel(), WithWorkspace(ws), WithWarmStart(db))
		if err != nil {
			t.Fatalf("step %d dense on shared ws: %v", i, err)
		}
		for name, got := range map[string]*Solution{"sparse": ssol, "dense": dsol} {
			if got.Status != want.Status {
				t.Fatalf("step %d %s: status %v, want %v", i, name, got.Status, want.Status)
			}
			if want.Status == StatusOptimal && math.Abs(got.Objective-want.Objective) > testTol {
				t.Fatalf("step %d %s: objective %v, want %v", i, name, got.Objective, want.Objective)
			}
		}
		sb, db = ssol.Basis, dsol.Basis
	}
}

// TestSparseCountersPopulated checks a sparse solve reports its effort
// counters and the dense kernel reports none.
func TestSparseCountersPopulated(t *testing.T) {
	sparse, dense := solveBoth(t, buildBoundedLP())
	// The sparse default is the LU kernel: pivots land as Forrest-Tomlin
	// updates (or refactorizations when an update is declined), never etas.
	if sparse.Updates == 0 && sparse.Refactorizations == 0 {
		t.Errorf("sparse solve reported zero updates and zero refactorizations")
	}
	if sparse.FactorNnz == 0 {
		t.Errorf("sparse solve reported zero factorization nonzeros")
	}
	if sparse.Etas != 0 {
		t.Errorf("LU kernel reported %d etas", sparse.Etas)
	}
	if dense.Etas != 0 || dense.Refactorizations != 0 || dense.DevexResets != 0 {
		t.Errorf("dense solve reported sparse counters: %d/%d/%d",
			dense.Etas, dense.Refactorizations, dense.DevexResets)
	}
	eta, err := buildBoundedLP().Solve(WithEtaKernel())
	if err != nil {
		t.Fatal(err)
	}
	if eta.Etas == 0 {
		t.Errorf("eta kernel reported zero etas")
	}
	if eta.Updates != 0 || eta.FactorNnz != 0 {
		t.Errorf("eta kernel reported LU counters: updates=%d factorNnz=%d",
			eta.Updates, eta.FactorNnz)
	}
}

// TestSparseRefactorization drives enough warm re-solves through one
// workspace to exceed the eta budget and force periodic refactorization.
func TestSparseRefactorization(t *testing.T) {
	p := buildBoundedLP()
	ws := NewWorkspace()
	sol, err := p.Solve(WithSparseKernel(), WithWorkspace(ws), WithWarmStart(nil))
	if err != nil {
		t.Fatal(err)
	}
	refactors := sol.Refactorizations
	b := sol.Basis
	for i := 0; i < 200; i++ {
		hi := float64(1 + i%6)
		if err := p.SetVariableBounds(VarID(i%3), 0, hi); err != nil {
			t.Fatal(err)
		}
		sol, err = p.Solve(WithSparseKernel(), WithWorkspace(ws), WithWarmStart(b))
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		refactors += sol.Refactorizations
		if sol.Basis != nil {
			b = sol.Basis
		}
	}
	if refactors == 0 {
		t.Errorf("200 warm re-solves never refactorized; eta budget not enforced")
	}
}

// TestWithKernelPin checks that a per-solve kernel pin beats auto dispatch:
// buildBoundedLP is a small primal-start problem, which auto dispatch runs
// on the eta kernel, yet an LU pin runs LU. The dense pin runs cold even
// when handed a warm basis, and still captures one.
func TestWithKernelPin(t *testing.T) {
	root, err := buildBoundedLP().Solve(WithWarmStart(nil))
	if err != nil {
		t.Fatal(err)
	}
	if root.Basis == nil {
		t.Fatal("auto solve captured no basis")
	}
	sol, err := buildBoundedLP().Solve(WithKernel(KernelDense), WithWarmStart(root.Basis))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Warm || sol.Etas != 0 || sol.Updates != 0 || sol.Refactorizations != 0 {
		t.Errorf("dense pin: warm %v, %d etas, %d updates, %d refactorizations; want a cold dense solve",
			sol.Warm, sol.Etas, sol.Updates, sol.Refactorizations)
	}
	if sol.Basis == nil {
		t.Errorf("dense pin captured no basis")
	}
	sol, err = buildBoundedLP().Solve(WithKernel(KernelLU))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Etas != 0 || (sol.Updates == 0 && sol.Refactorizations == 0) {
		t.Errorf("LU pin: %d etas, %d updates, %d refactorizations; want the LU kernel",
			sol.Etas, sol.Updates, sol.Refactorizations)
	}
	sol, err = buildBoundedLP().Solve(WithKernel(KernelEta))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Etas == 0 {
		t.Errorf("eta pin reported zero etas")
	}
}

// buildCoverLP is a small MinCost-shaped LP: covering rows with positive
// right-hand sides, so the all-logical start is primal infeasible and the
// cold sparse solve runs the dual simplex.
func buildCoverLP() *Problem {
	p := NewProblem(Minimize)
	x, _ := p.AddVariable("x", 0, 1, 3)
	y, _ := p.AddVariable("y", 0, 1, 2)
	z, _ := p.AddVariable("z", 0, 1, 4)
	w, _ := p.AddVariable("w", 0, 1, 1.5)
	p.AddConstraint("c1", []Term{{x, 1}, {y, 1}}, GE, 1)
	p.AddConstraint("c2", []Term{{y, 1}, {z, 1}, {w, 0.5}}, GE, 1)
	p.AddConstraint("c3", []Term{{x, 1}, {z, 1}, {w, 1}}, GE, 1)
	p.AddConstraint("c4", []Term{{w, 1}, {z, 0.5}}, GE, 0.5)
	return p
}

// TestAutoKernelDimensionDispatch checks the auto dispatch — no WithKernel
// pin. A small primal-start problem runs the
// eta kernel (below luAutoMinDim the eta file's cheap cold starts win); a
// small dual-start problem runs LU, and keeps it through warm re-solves on
// the same workspace and in clones first solved under tightened bounds; an
// explicit sparse pin runs the LU machinery.
func TestAutoKernelDimensionDispatch(t *testing.T) {
	onLU := func(what string, sol *Solution) {
		t.Helper()
		if sol.Etas != 0 {
			t.Errorf("%s: %d etas; want the LU kernel", what, sol.Etas)
		}
		if sol.Updates == 0 && sol.Refactorizations == 0 {
			t.Errorf("%s: zero updates and refactorizations; want the LU kernel", what)
		}
	}
	sameObjective := func(what string, got *Solution, p *Problem) {
		t.Helper()
		want, err := p.Clone().Solve(WithDenseKernel())
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != StatusOptimal || want.Status != StatusOptimal {
			t.Fatalf("%s: status %v, dense oracle %v", what, got.Status, want.Status)
		}
		if math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
			t.Errorf("%s: objective %v, dense oracle %v", what, got.Objective, want.Objective)
		}
	}

	auto, err := buildBoundedLP().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if auto.Etas == 0 {
		t.Errorf("auto kernel on a tiny primal-start basis reported zero etas")
	}
	if auto.Updates != 0 || auto.FactorNnz != 0 {
		t.Errorf("auto kernel on a tiny primal-start basis ran the LU machinery: %d updates, %d factor nonzeros",
			auto.Updates, auto.FactorNnz)
	}
	pinned, err := buildBoundedLP().Solve(WithSparseKernel())
	if err != nil {
		t.Fatal(err)
	}
	onLU("pinned sparse kernel", pinned)
	sameObjective("auto primal-start", auto, buildBoundedLP())

	// Dual start: cold, then warm children on one workspace after bound
	// tightening that makes the all-logical start primal feasible. The
	// kernel was decided when the workspace cached this matrix, so no
	// re-solve flips to eta or falls back cold.
	p := buildCoverLP()
	ws := NewWorkspace()
	cold, err := p.Solve(WithWorkspace(ws), WithWarmStart(nil))
	if err != nil {
		t.Fatal(err)
	}
	onLU("auto dual-start cold", cold)
	sameObjective("auto dual-start cold", cold, p)
	basis := cold.Basis
	for i, fix := range []VarID{3, 1, 2} {
		if err := p.SetVariableBounds(fix, 1, 1); err != nil {
			t.Fatal(err)
		}
		warm, err := p.Solve(WithWorkspace(ws), WithWarmStart(basis))
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("warm child %d", i)
		if !warm.Warm || warm.KernelFallbacks != 0 {
			t.Errorf("%s: warm %v, %d kernel fallbacks; want a warm LU re-solve", what, warm.Warm, warm.KernelFallbacks)
		}
		if warm.Etas != 0 {
			t.Errorf("%s: %d etas; the kernel flipped inside the tree", what, warm.Etas)
		}
		sameObjective(what, warm, p)
		basis = warm.Basis
	}

	// p's bounds now make its all-logical start feasible. A fresh problem
	// with those bounds is primal-start and runs eta; a clone taken before
	// the tightening keeps the original's dual-start shape, as a
	// branch-and-bound worker's copy does at its first node.
	fresh := buildCoverLP()
	clone := fresh.Clone()
	for _, fix := range []VarID{3, 1, 2} {
		if err := fresh.SetVariableBounds(fix, 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := clone.SetVariableBounds(fix, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	freshSol, err := fresh.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if freshSol.Updates != 0 || freshSol.FactorNnz != 0 {
		t.Errorf("fresh primal-start problem ran the LU machinery: %d updates, %d factor nonzeros",
			freshSol.Updates, freshSol.FactorNnz)
	}
	cloneSol, err := clone.Solve()
	if err != nil {
		t.Fatal(err)
	}
	onLU("clone of a dual-start problem", cloneSol)
	sameObjective("clone of a dual-start problem", cloneSol, fresh)
}

// fullSortBFRT is the reference bound-flipping ratio test: it collects the
// eligible candidates with pickEntering's rules, sorts all of them by
// (ratio, column), walks to the block and takes the largest pivot among the
// near-tie ratios that follow. retie reports whether that tie-break moved
// the pick off the blocking candidate.
func fullSortBFRT(s *spx, r int, below bool) (flips []int32, q int, retie bool) {
	const pivTol = 1e-9
	st := s.st
	sign := 1.0
	if !below {
		sign = -1
	}
	var cands []bfCand
	for _, j32 := range st.atouch {
		j := int(j32)
		if st.stat[j] == statusBasic || st.lo[j] == st.up[j] {
			continue
		}
		a := sign * st.arow[j]
		if (st.stat[j] == statusLower && a >= -pivTol) || (st.stat[j] == statusUpper && a <= pivTol) {
			continue
		}
		cands = append(cands, bfCand{ratio: math.Max(st.d[j]/a, 0), j: j32})
	}
	sort.Slice(cands, func(x, y int) bool {
		return cands[x].ratio < cands[y].ratio ||
			(cands[x].ratio == cands[y].ratio && cands[x].j < cands[y].j)
	})
	leave := st.basis[r]
	delta := st.x[leave] - st.up[leave]
	if below {
		delta = st.lo[leave] - st.x[leave]
	}
	for i, c := range cands {
		width := st.up[c.j] - st.lo[c.j]
		gain := math.Abs(st.arow[c.j]) * width
		if math.IsInf(width, 1) || delta-gain <= s.cfg.tolerance {
			best := c
			for _, c2 := range cands[i+1:] {
				if c2.ratio > best.ratio+s.cfg.tolerance {
					break
				}
				if math.Abs(st.arow[c2.j]) > math.Abs(st.arow[best.j]) {
					best = c2
				}
			}
			return flips, int(best.j), best != c
		}
		flips = append(flips, c.j)
		delta -= gain
	}
	return nil, -1, false
}

// TestBFRTMatchesFullSort checks the bound-flipping ratio test against the
// full-sort reference: the flips (in order) and the entering column must be
// identical. Three regimes run. Random candidate sets are rich in exactly
// equal ratios, ratios inside the tolerance band, ineligible columns,
// infinite boxes and both leaving directions. Dual-degenerate sets put 100
// or more eligible candidates at one exact ratio with no flip, so the
// one-pass tie scan decides them. Chained near-ties at ratios 0, 0.6*tol
// and 1.2*tol with rising |a| move the pick out of the first tie window,
// so the scan must hand over to the heap walk. Each path must be taken.
func TestBFRTMatchesFullSort(t *testing.T) {
	const nCols = 256
	const tol = 1e-9
	rng := rand.New(rand.NewSource(3))
	st := &sparseState{
		stat: make([]varStatus, nCols), x: make([]float64, nCols),
		lo: make([]float64, nCols), up: make([]float64, nCols),
		d: make([]float64, nCols), arow: make([]float64, nCols),
		basis: []int{nCols - 1},
	}
	s := &spx{cfg: &options{tolerance: tol}, st: st, nCols: nCols}
	var flipped, blocked, unbounded, reties, scanned, handed int

	// setCol makes column j an eligible candidate (unless wrongSign) with
	// the given ratio, pivot magnitude and box width.
	setCol := func(j int, below bool, ratio, a, width float64, wrongSign bool) {
		sign := 1.0
		if !below {
			sign = -1
		}
		st.atouch = append(st.atouch, int32(j))
		if st.stat[j] == statusLower {
			a = -a
		}
		if wrongSign {
			a = -a
		}
		st.arow[j] = sign * a
		st.d[j] = ratio * a
		st.lo[j], st.up[j] = 0, width
	}
	// check runs both ratio tests on the current pivot row and leaving
	// infeasibility, and tallies the outcome and the path taken.
	check := func(trial int, below bool, infeas float64) {
		leave := nCols - 1
		st.stat[leave] = statusBasic
		st.lo[leave], st.up[leave] = 0, 1
		st.x[leave] = -infeas
		if !below {
			st.x[leave] = 1 + infeas
		}
		wantFlips, wantQ, retie := fullSortBFRT(s, 0, below)
		q := s.pickEnteringBFRT(0, below)
		if q != wantQ || len(st.flips) != len(wantFlips) {
			t.Fatalf("trial %d: entering %d with %d flips, reference %d with %d",
				trial, q, len(st.flips), wantQ, len(wantFlips))
		}
		for i := range wantFlips {
			if st.flips[i] != wantFlips[i] {
				t.Fatalf("trial %d: flip %d is column %d, reference %d", trial, i, st.flips[i], wantFlips[i])
			}
		}
		switch {
		case q < 0:
			unbounded++
		case len(wantFlips) > 0:
			flipped++
		default:
			blocked++
			// The least candidate blocked, so the tie scan ran first.
			cands, least := s.bfCandidates(below)
			if sq, ok := s.pickTieScan(cands, cands[least]); ok {
				scanned++
				if sq != q {
					t.Fatalf("trial %d: tie scan picks %d, ratio test %d", trial, sq, q)
				}
			} else {
				handed++
			}
		}
		if retie {
			reties++
		}
	}

	for trial := 0; trial < 3000; trial++ {
		below := rng.Intn(2) == 0
		st.atouch = st.atouch[:0]
		for _, j := range rng.Perm(63) {
			ratio := []float64{0, 0.25, 0.5, 1, 1.5}[rng.Intn(5)]
			if rng.Intn(3) == 0 {
				ratio += float64(rng.Intn(4)) * 3e-10 // inside the tolerance band
			}
			a := []float64{0.5, 1, 2, 4, 1e-10}[rng.Intn(5)]
			st.stat[j] = []varStatus{statusLower, statusUpper, statusBasic}[rng.Intn(3)]
			widths := []float64{0, 0.5, 1, 2, math.Inf(1), math.Inf(1)}
			if trial%4 == 0 {
				widths = widths[:4] // every box finite: the dual may be unbounded
			}
			setCol(j, below, ratio, a, widths[rng.Intn(len(widths))], rng.Intn(10) == 0)
		}
		infeas := rng.Float64() * 8
		if trial%8 == 0 {
			infeas *= 100
		}
		check(trial, below, infeas)
	}

	for trial := 0; trial < 200; trial++ {
		below := rng.Intn(2) == 0
		st.atouch = st.atouch[:0]
		ratio := []float64{0, 0.5, 1}[rng.Intn(3)]
		ties := 100 + rng.Intn(100)
		for k, j := range rng.Perm(nCols - 1)[:ties+rng.Intn(20)] {
			st.stat[j] = []varStatus{statusLower, statusUpper}[rng.Intn(2)]
			r := ratio
			if k >= ties {
				r += 0.5 // beyond the tie window
			}
			setCol(j, below, r, []float64{0.5, 1, 2, 4}[rng.Intn(4)], math.Inf(1), false)
		}
		before := scanned
		check(3000+trial, below, 1+rng.Float64())
		if scanned != before+1 {
			t.Fatalf("trial %d: dual-degenerate ties were not settled by the tie scan", 3000+trial)
		}
	}

	for trial := 0; trial < 200; trial++ {
		below := rng.Intn(2) == 0
		st.atouch = st.atouch[:0]
		perm := rng.Perm(nCols - 1)
		for k, ratio := range []float64{0, 0.6 * tol, 1.2 * tol} {
			j := perm[k]
			st.stat[j] = []varStatus{statusLower, statusUpper}[rng.Intn(2)]
			setCol(j, below, ratio, float64(int(1)<<k), math.Inf(1), false)
		}
		for _, j := range perm[3 : 3+rng.Intn(40)] {
			st.stat[j] = []varStatus{statusLower, statusUpper}[rng.Intn(2)]
			ratio := []float64{0, 0.6 * tol, 1.2 * tol, 3 * tol, 0.5}[rng.Intn(5)]
			setCol(j, below, ratio, []float64{0.25, 0.5}[rng.Intn(2)], math.Inf(1), false)
		}
		before := handed
		check(3200+trial, below, 1+rng.Float64())
		if handed != before+1 {
			t.Fatalf("trial %d: chained near-ties were settled without the heap walk", 3200+trial)
		}
	}

	if flipped == 0 || blocked == 0 || unbounded == 0 || reties == 0 || scanned == 0 || handed == 0 {
		t.Fatalf("coverage: %d with flips, %d blocked at once, %d unbounded, %d tie-breaks off the block, "+
			"%d settled by the tie scan, %d handed to the heap",
			flipped, blocked, unbounded, reties, scanned, handed)
	}
}
