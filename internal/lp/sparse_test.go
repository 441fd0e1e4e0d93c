package lp

import (
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

func TestSetDefaultKernel(t *testing.T) {
	prev := SetDefaultKernel(KernelDense)
	defer SetDefaultKernel(prev)
	if DefaultKernel() != KernelDense {
		t.Fatalf("DefaultKernel = %v after pinning dense", DefaultKernel())
	}
	sol, err := buildBoundedLP().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Etas != 0 {
		t.Errorf("dense default kernel reported %d etas", sol.Etas)
	}
	SetDefaultKernel(KernelSparse)
	sol, err = buildBoundedLP().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Updates == 0 && sol.Refactorizations == 0 {
		t.Errorf("sparse default kernel reported zero updates and refactorizations")
	}
	SetDefaultKernel(KernelEta)
	sol, err = buildBoundedLP().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Etas == 0 {
		t.Errorf("eta default kernel reported zero etas")
	}
}

// TestAutoKernelDimensionDispatch checks that a solve with no kernel pin —
// neither WithKernel nor SetDefaultKernel — routes small bases to the eta
// kernel (below luAutoMinDim the eta file's cheap cold starts win), while an
// explicit sparse pin on the same problem runs the LU machinery.
func TestAutoKernelDimensionDispatch(t *testing.T) {
	prev := SetDefaultKernel(KernelAuto)
	defer SetDefaultKernel(prev)

	auto, err := buildBoundedLP().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if auto.Etas == 0 {
		t.Errorf("auto kernel on a tiny basis reported zero etas")
	}
	if auto.Updates != 0 || auto.FactorNnz != 0 {
		t.Errorf("auto kernel on a tiny basis ran the LU machinery: %d updates, %d factor nonzeros",
			auto.Updates, auto.FactorNnz)
	}

	pinned, err := buildBoundedLP().Solve(WithSparseKernel())
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Etas != 0 {
		t.Errorf("pinned sparse kernel reported %d etas", pinned.Etas)
	}
	if pinned.Updates == 0 && pinned.Refactorizations == 0 {
		t.Errorf("pinned sparse kernel reported zero updates and refactorizations")
	}
	if auto.Objective != pinned.Objective {
		if math.Abs(auto.Objective-pinned.Objective) > 1e-9*(1+math.Abs(pinned.Objective)) {
			t.Errorf("auto objective %v, pinned sparse objective %v", auto.Objective, pinned.Objective)
		}
	}
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

// TestBFRTMatchesFullSort checks the lazily popped bound-flipping ratio
// test against the full-sort reference on random candidate sets rich in
// exactly equal ratios, ratios inside the tolerance band, ineligible
// columns, infinite boxes and both leaving directions: the flips (in order)
// and the entering column must be identical.
func TestBFRTMatchesFullSort(t *testing.T) {
	const nCols = 64
	rng := rand.New(rand.NewSource(3))
	st := &sparseState{
		stat: make([]varStatus, nCols), x: make([]float64, nCols),
		lo: make([]float64, nCols), up: make([]float64, nCols),
		d: make([]float64, nCols), arow: make([]float64, nCols),
		basis: []int{nCols - 1},
	}
	s := &spx{cfg: &options{tolerance: 1e-9}, st: st, nCols: nCols}
	var flipped, blocked, unbounded, reties int
	for trial := 0; trial < 3000; trial++ {
		below := rng.Intn(2) == 0
		sign := 1.0
		if !below {
			sign = -1
		}
		st.atouch = st.atouch[:0]
		for _, j := range rng.Perm(nCols - 1) {
			st.atouch = append(st.atouch, int32(j))
			ratio := []float64{0, 0.25, 0.5, 1, 1.5}[rng.Intn(5)]
			if rng.Intn(3) == 0 {
				ratio += float64(rng.Intn(4)) * 3e-10 // inside the tolerance band
			}
			a := []float64{0.5, 1, 2, 4, 1e-10}[rng.Intn(5)]
			st.stat[j] = []varStatus{statusLower, statusUpper, statusBasic}[rng.Intn(3)]
			if st.stat[j] == statusLower {
				a = -a
			}
			if rng.Intn(10) == 0 {
				a = -a // wrong sign: ineligible
			}
			st.arow[j] = sign * a
			st.d[j] = ratio * a
			st.lo[j] = 0
			widths := []float64{0, 0.5, 1, 2, math.Inf(1), math.Inf(1)}
			if trial%4 == 0 {
				widths = widths[:4] // every box finite: the dual may be unbounded
			}
			st.up[j] = widths[rng.Intn(len(widths))]
		}
		leave := nCols - 1
		st.stat[leave] = statusBasic
		st.lo[leave], st.up[leave] = 0, 1
		infeas := rng.Float64() * 8
		if trial%8 == 0 {
			infeas *= 100
		}
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
		}
		if retie {
			reties++
		}
	}
	if flipped == 0 || blocked == 0 || unbounded == 0 || reties == 0 {
		t.Fatalf("coverage: %d with flips, %d blocked at once, %d unbounded, %d tie-breaks off the block",
			flipped, blocked, unbounded, reties)
	}
}
