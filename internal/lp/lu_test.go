package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomLPWithBasis builds a seeded random bounded LP, solves it with the
// dense oracle and returns the problem together with the captured optimal
// basis snapshot — a genuine, nonsingular basis the LU tests can factorize.
func randomLPWithBasis(t *testing.T, seed int64) (*Problem, *Basis) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(10)
	m := 2 + rng.Intn(8)
	p := NewProblem(Maximize)
	for j := 0; j < n; j++ {
		up := float64(1 + rng.Intn(5))
		if _, err := p.AddVariable("x", 0, up, rng.Float64()*4-1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, 0, n)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				terms = append(terms, Term{Var: VarID(j), Coeff: float64(rng.Intn(7) - 3)})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: VarID(rng.Intn(n)), Coeff: 1})
		}
		op := []Op{LE, GE}[rng.Intn(2)]
		rhs := float64(rng.Intn(15))
		if op == GE {
			rhs = -rhs
		}
		if _, err := p.AddConstraint("c", terms, op, rhs); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := p.Clone().Solve(WithDenseKernel(), WithWarmStart(nil))
	if err != nil {
		t.Fatalf("seed %d: dense solve: %v", seed, err)
	}
	if sol.Status != StatusOptimal || sol.Basis == nil {
		return nil, nil
	}
	return p, sol.Basis
}

// basisColumn scatters the basis matrix column for factorization position i
// (the column of variable s.st.basis[i], logical columns included) into out.
func basisColumn(s *spx, i int, out []float64) {
	clear(out)
	a := &s.st.mat
	j := s.st.basis[i]
	if j < s.n {
		for k := a.colPtr[j]; k < a.colPtr[j+1]; k++ {
			out[a.colInd[k]] = a.colVal[k]
		}
	} else {
		out[j-s.n] = a.sigma[j-s.n]
	}
}

// checkFtranResidual verifies B*out = v for the current basis.
func checkFtranResidual(t *testing.T, s *spx, out, v []float64, label string) {
	t.Helper()
	m := s.m
	col := make([]float64, m)
	res := make([]float64, m)
	copy(res, v)
	for i := 0; i < m; i++ {
		if out[i] == 0 {
			continue
		}
		basisColumn(s, i, col)
		for r := 0; r < m; r++ {
			res[r] -= col[r] * out[i]
		}
	}
	for r := 0; r < m; r++ {
		if math.Abs(res[r]) > 1e-8 {
			t.Fatalf("%s: ftran residual %v at row %d", label, res[r], r)
		}
	}
}

// checkBtranResidual verifies B^T*out = v for the current basis.
func checkBtranResidual(t *testing.T, s *spx, out, v []float64, label string) {
	t.Helper()
	m := s.m
	col := make([]float64, m)
	for i := 0; i < m; i++ {
		basisColumn(s, i, col)
		dot := 0.0
		for r := 0; r < m; r++ {
			dot += col[r] * out[r]
		}
		if math.Abs(dot-v[i]) > 1e-8 {
			t.Fatalf("%s: btran residual %v at position %d", label, dot-v[i], i)
		}
	}
}

// bindLU factorizes the snapshot's basis on a fresh LU-kernel spx.
func bindLU(t *testing.T, p *Problem, b *Basis) *spx {
	t.Helper()
	cfg := options{tolerance: 1e-9, maxIterations: 1000, kernel: KernelLU}
	s := bindSparse(p, &cfg, NewWorkspace())
	if !s.refactor(b.rowBasic) {
		t.Fatalf("refactor of an optimal dense basis failed")
	}
	return s
}

// TestLUFactorizeSolves factorizes genuine optimal bases across seeds and
// checks both the dense and the hyper-sparse FTRAN/BTRAN paths by residual:
// a solve is correct iff B*out = v (resp. B^T*out = v), no oracle needed.
func TestLUFactorizeSolves(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p, b := randomLPWithBasis(t, seed)
		if p == nil {
			continue
		}
		s := bindLU(t, p, b)
		m := s.m
		rng := rand.New(rand.NewSource(seed * 977))

		// Dense path: a full random vector.
		v := make([]float64, m)
		want := make([]float64, m)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
			want[i] = v[i]
		}
		out := make([]float64, m)
		s.st.luf.ftran(v, out, &pattern{all: true}, nil, false)
		checkFtranResidual(t, s, out, want, "dense ftran")
		for i := range v {
			v[i] = rng.Float64()*2 - 1
			want[i] = v[i]
		}
		s.st.luf.btran(v, out, &pattern{all: true}, nil)
		checkBtranResidual(t, s, out, v, "dense btran")

		// Hyper-sparse path: a single-entry vector per position.
		for i := 0; i < m; i++ {
			clear(v)
			clear(want)
			v[i], want[i] = 1, 1
			nz := []int32{int32(i)}
			s.st.luf.ftran(v, out, &pattern{all: true}, nz, false)
			checkFtranResidual(t, s, out, want, "hyper ftran")
			for r := range v {
				if v[r] != 0 {
					t.Fatalf("hyper ftran left input nonzero at %d", r)
				}
			}
			clear(v)
			v[i] = 1
			s.st.luf.btran(v, out, &pattern{all: true}, nz)
			checkBtranResidual(t, s, out, v, "hyper btran")
		}
	}
}

// TestLUUpdateResidual drives Forrest-Tomlin updates through real basis
// changes: each step FTRANs a nonbasic structural column (saving the spike),
// replaces the most stable pivot row's variable with it, applies update()
// and re-verifies both solve directions against the changed basis by
// residual. Declined updates fall back to a fresh factorization, mirroring
// the solver.
func TestLUUpdateResidual(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		p, b := randomLPWithBasis(t, seed)
		if p == nil {
			continue
		}
		s := bindLU(t, p, b)
		st := s.st
		m := s.m
		rng := rand.New(rand.NewSource(seed * 31))
		inBasis := make(map[int]bool, m)
		for i := 0; i < m; i++ {
			inBasis[st.basis[i]] = true
		}
		updates := 0
		for step := 0; step < 12; step++ {
			q := rng.Intn(s.n)
			if inBasis[q] || st.mat.colNNZ(q) == 0 {
				continue
			}
			s.ftranColumn(q) // saves the spike for update()
			col := st.col
			r, best := -1, 1e-7
			for i := 0; i < m; i++ {
				if a := math.Abs(col[i]); a > best {
					r, best = i, a
				}
			}
			if r < 0 {
				continue // q is dependent on the current basis: skip
			}
			leave := st.basis[r]
			if st.luf.update(r) {
				updates++
				st.basis[r] = q
			} else {
				// Declined update: the factor is torn until refactorized,
				// exactly as the solver's recordPivot path does.
				st.basis[r] = q
				target := make([]int32, m)
				for i := 0; i < m; i++ {
					target[i] = int32(st.basis[i])
				}
				if !s.refactor(target) {
					t.Fatalf("seed %d step %d: refactor after declined update failed", seed, step)
				}
			}
			delete(inBasis, leave)
			inBasis[q] = true

			v := make([]float64, m)
			want := make([]float64, m)
			for i := range v {
				v[i] = rng.Float64()*2 - 1
				want[i] = v[i]
			}
			out := make([]float64, m)
			st.luf.ftran(v, out, &pattern{all: true}, nil, false)
			checkFtranResidual(t, s, out, want, "post-update ftran")
			for i := range v {
				v[i] = rng.Float64()*2 - 1
			}
			st.luf.btran(v, out, &pattern{all: true}, nil)
			checkBtranResidual(t, s, out, v, "post-update btran")
		}
		if updates > 0 && st.luf.nUpdates == 0 {
			t.Fatalf("seed %d: applied %d updates but nUpdates is zero", seed, updates)
		}
	}
}

// TestLUSingularFactorize feeds structurally singular targets to factorize:
// a duplicated column and an all-zero column must both be rejected so the
// caller can decline to an oracle instead of dividing by a vanishing pivot.
func TestLUSingularFactorize(t *testing.T) {
	p := NewProblem(Maximize)
	for j := 0; j < 4; j++ {
		if _, err := p.AddVariable("x", 0, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	// x3 appears in no constraint: its column is structurally empty.
	terms := []Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 2}, {Var: 2, Coeff: 1}}
	if _, err := p.AddConstraint("c0", terms, LE, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddConstraint("c1", []Term{{Var: 1, Coeff: 1}, {Var: 2, Coeff: 1}}, LE, 2); err != nil {
		t.Fatal(err)
	}
	cfg := options{tolerance: 1e-9, maxIterations: 100, kernel: KernelLU}
	s := bindSparse(p, &cfg, NewWorkspace())
	if s.refactor([]int32{0, 0}) {
		t.Errorf("factorize accepted a duplicated basis column")
	}
	if s.refactor([]int32{3, 4}) {
		t.Errorf("factorize accepted a structurally empty basis column")
	}
	if !s.refactor([]int32{0, 1}) {
		t.Errorf("factorize rejected a nonsingular basis")
	}
}

// TestLUKernelWorkspaceAlternation re-solves through one shared workspace
// alternating kernels: each switch must invalidate the other representation
// and still produce the dense oracle's optimum.
func TestLUKernelWorkspaceAlternation(t *testing.T) {
	p, _ := randomLPWithBasis(t, 11)
	if p == nil {
		t.Skip("seed did not produce an optimal instance")
	}
	want, err := p.Clone().Solve(WithDenseKernel())
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	kernels := []Option{WithKernel(KernelLU), WithEtaKernel(), WithKernel(KernelLU), WithEtaKernel()}
	for i, k := range kernels {
		sol, err := p.Clone().Solve(k, WithWorkspace(ws), WithWarmStart(nil))
		if err != nil {
			t.Fatalf("alternation %d: %v", i, err)
		}
		if sol.Status != want.Status || math.Abs(sol.Objective-want.Objective) > 1e-7 {
			t.Fatalf("alternation %d: status %v objective %v, want %v %v",
				i, sol.Status, sol.Objective, want.Status, want.Objective)
		}
	}
}

// randomLUBasis binds a seeded random sparse LP with m rows and 2m
// structural columns of perCol nonzeros each, and factorizes a basis of
// about half structural columns (the rest logicals). Structural column j < m
// has a dominant entry in row j and, when chosen, sits at basis position j,
// so the basis is diagonally dominant and nonsingular.
func randomLUBasis(t *testing.T, seed int64, m, perCol int) *spx {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 * m
	p := NewProblem(Maximize)
	for j := 0; j < n; j++ {
		if _, err := p.AddVariable("x", 0, 1, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([][]Term, m)
	for j := 0; j < n; j++ {
		for _, i := range rng.Perm(m)[:perCol] {
			if i != j {
				rows[i] = append(rows[i], Term{Var: VarID(j), Coeff: float64(1+rng.Intn(9)) / 4})
			}
		}
		if j < m {
			rows[j] = append(rows[j], Term{Var: VarID(j), Coeff: float64(4*perCol + rng.Intn(9))})
		}
	}
	for i := 0; i < m; i++ {
		if _, err := p.AddConstraint("c", rows[i], LE, float64(m)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := options{tolerance: 1e-9, maxIterations: 1000, kernel: KernelLU}
	s := bindSparse(p, &cfg, NewWorkspace())
	target := make([]int32, m)
	for i := range target {
		target[i] = int32(n + i)
		if rng.Intn(2) == 0 {
			target[i] = int32(i)
		}
	}
	if !s.refactor(target) {
		t.Fatalf("seed %d: factorize rejected a diagonally dominant basis", seed)
	}
	return s
}

// ftranLReach is the size of the L closure a hyper-sparse FTRAN of a
// vector with pattern nz walks, recomputed from the factor for coverage
// checks.
func ftranLReach(f *luFactor, nz []int32) int {
	seen := make(map[int32]bool)
	stack := append([]int32(nil), nz...)
	for _, r := range nz {
		seen[r] = true
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k := f.stepOfRow[r]
		for idx := f.lStart[k]; idx < f.lStart[k+1]; idx++ {
			if c := f.lInd[idx]; !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return len(seen)
}

// firstBitDiff returns the first index where a and b differ bitwise, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkPattern requires a solve's result pattern to list every nonzero of
// v exactly once, in ascending order when sorted is set.
func checkPattern(t *testing.T, label string, v []float64, p pattern, sorted bool) {
	t.Helper()
	if p.all {
		t.Fatalf("%s: result pattern not tracked", label)
	}
	seen := make(map[int32]bool, len(p.nz))
	for k, i := range p.nz {
		if seen[i] {
			t.Fatalf("%s: position %d listed twice", label, i)
		}
		seen[i] = true
		if sorted && k > 0 && p.nz[k-1] > i {
			t.Fatalf("%s: pattern not ascending at %d", label, k)
		}
	}
	for i, x := range v {
		if x != 0 && !seen[int32(i)] {
			t.Fatalf("%s: nonzero %v at %d missing from the pattern", label, x, i)
		}
	}
}

// TestLUHyperSparseBitwiseDense requires the hyper-sparse FTRAN and BTRAN
// to return bitwise the same vectors as the dense sweeps, on fresh factors
// and after Forrest-Tomlin updates (so row etas run), with L and U closures
// both below and above the m/luHyperDenom size where the closure order
// switches from a comparison sort to a scan of the stamps.
func TestLUHyperSparseBitwiseDense(t *testing.T) {
	const m = 192
	var smallL, largeL, largeU, withEtas, solves int
	for seed := int64(1); seed <= 6; seed++ {
		s := randomLUBasis(t, seed, m, 2+int(seed%3))
		st := s.st
		f := &st.luf
		rng := rand.New(rand.NewSource(seed * 131))
		inBasis := make(map[int]bool, m)
		for i := 0; i < m; i++ {
			inBasis[st.basis[i]] = true
		}
		v := make([]float64, m)
		dense := make([]float64, m)
		hyper := make([]float64, m)
		// The output vectors are reused, so every solve also clears the
		// previous result through its pattern.
		densePat, hyperPat := pattern{all: true}, pattern{all: true}
		check := func(label string) {
			for trial := 0; trial < 24; trial++ {
				k := 1 + rng.Intn(m/(2*luHyperDenom))
				nz := make([]int32, 0, k)
				for _, i := range rng.Perm(m)[:k] {
					nz = append(nz, int32(i))
				}
				vals := make([]float64, k)
				for i := range vals {
					vals[i] = rng.Float64()*2 - 1
				}
				scatter := func() {
					for i, r := range nz {
						v[r] = vals[i]
					}
				}
				scatter()
				f.ftran(v, dense, &densePat, nil, false)
				scatter()
				f.ftran(v, hyper, &hyperPat, nz, false)
				if i := firstBitDiff(dense, hyper); i >= 0 {
					t.Fatalf("seed %d %s: hyper ftran[%d] = %v, dense %v", seed, label, i, hyper[i], dense[i])
				}
				checkPattern(t, "dense ftran", dense, densePat, false)
				checkPattern(t, "hyper ftran", hyper, hyperPat, false)
				if ftranLReach(f, nz)*luHyperDenom < m {
					smallL++
				} else {
					largeL++
				}
				// The U closure holds at least the result's nonzeros.
				nnz := 0
				for _, x := range dense {
					if x != 0 {
						nnz++
					}
				}
				if nnz*luHyperDenom >= m {
					largeU++
				}

				scatter()
				f.btran(v, dense, &densePat, nil)
				f.btran(v, hyper, &hyperPat, nz)
				if i := firstBitDiff(dense, hyper); i >= 0 {
					t.Fatalf("seed %d %s: hyper btran[%d] = %v, dense %v", seed, label, i, hyper[i], dense[i])
				}
				checkPattern(t, "dense btran", dense, densePat, true)
				checkPattern(t, "hyper btran", hyper, hyperPat, true)
				clear(v)
				solves++
				if len(f.rRow) > 0 {
					withEtas++
				}
			}
		}
		check("fresh factor")
		for step := 0; step < 40; step++ {
			q := rng.Intn(s.n)
			if inBasis[q] || st.mat.colNNZ(q) == 0 {
				continue
			}
			s.ftranColumn(q)
			col := st.col
			r, best := -1, 1e-3
			for i := 0; i < m; i++ {
				if a := math.Abs(col[i]); a > best {
					r, best = i, a
				}
			}
			if r < 0 {
				f.clearSpike()
				continue
			}
			delete(inBasis, st.basis[r])
			inBasis[q] = true
			st.basis[r] = q
			if !f.update(r) {
				target := make([]int32, m)
				for i := range target {
					target[i] = int32(st.basis[i])
				}
				if !s.refactor(target) {
					t.Fatalf("seed %d: refactor after a declined update failed", seed)
				}
			}
			if step%8 == 7 {
				check("after updates")
			}
		}
	}
	if smallL == 0 || largeL == 0 || largeU == 0 || withEtas == 0 {
		t.Fatalf("coverage: L closures %d small / %d large, %d large U closures, %d of %d solves with row etas",
			smallL, largeL, largeU, withEtas, solves)
	}
}

// TestOrderClosureMatchesSort checks the stamp scan against the comparison
// sort it replaces for large closures: identical order for closures on
// both sides of the m/luHyperDenom switch, keyed through a permutation.
func TestOrderClosureMatchesSort(t *testing.T) {
	const m = 300
	rng := rand.New(rand.NewSource(5))
	f := &luFactor{m: m, dmark: make([]int64, m)}
	order := make([]int32, m)
	key := make([]int32, m)
	for k, x := range rng.Perm(m) {
		order[k] = int32(x)
		key[x] = int32(k)
	}
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(m)
		if trial%2 == 0 {
			size = 1 + rng.Intn(m/luHyperDenom)
		}
		f.dstamp++
		list := make([]int32, 0, size)
		for _, x := range rng.Perm(m)[:size] {
			f.dmark[x] = f.dstamp
			list = append(list, int32(x))
		}
		got := append([]int32(nil), list...)
		want := append([]int32(nil), list...)
		f.orderClosure(got, f.dstamp, order, key)
		sortI32ByKey(want, key)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (size %d): order[%d] = %d, sort gives %d", trial, size, i, got[i], want[i])
			}
		}
	}
}
