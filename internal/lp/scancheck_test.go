package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// fullScanChecker is the pivotChecker the cross-check tests install. At
// every pivot it reruns the full 0..m and 0..n+m scans that the maintained
// leaving-row list, the pricing candidates and the nonzero patterns
// replace: the dual CHUZR, the primal price, the primal ratio test and the
// pivot-row product, and the x, reduced-cost and steepest-edge updates on
// a snapshot of the pre-pivot state. Any choice or value that differs, bit
// for bit, is recorded as a failure.
type fullScanChecker struct {
	mu   sync.Mutex
	recs map[*sparseState]*pivotRecord
	errs []string
	nerr int

	dualPivots, primalPivots, flipPivots, picks int
	leaveTies, priceTies                        int
}

// pivotRecord is one workspace's in-flight pivot: the pre-update snapshot
// and the reference pivot row.
type pivotRecord struct {
	x, d, dseW, rho, col []float64
	stat                 []varStatus
	basis                []int
	flips                []int32
	atUpper              bool

	touch []int32   // reference pivot-row touched columns, in scan order
	arow  []float64 // reference pivot-row values, indexed by column
}

// enableScanCheck installs a fresh checker for the rest of the test.
func enableScanCheck(t testing.TB) *fullScanChecker {
	t.Helper()
	if scanCheck != nil {
		t.Fatal("scan check already enabled")
	}
	c := &fullScanChecker{recs: map[*sparseState]*pivotRecord{}}
	scanCheck = c
	t.Cleanup(func() { scanCheck = nil })
	return c
}

// report fails t with the recorded differences, if any.
func (c *fullScanChecker) report(t testing.TB) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.errs {
		t.Error(e)
	}
	if c.nerr > len(c.errs) {
		t.Errorf("... %d differences in all", c.nerr)
	}
}

func (c *fullScanChecker) failf(format string, args ...any) {
	c.nerr++
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *fullScanChecker) rec(s *spx) *pivotRecord {
	r := c.recs[s.st]
	if r == nil {
		r = &pivotRecord{}
		c.recs[s.st] = r
	}
	return r
}

// sameBits compares two vectors bit for bit.
func (c *fullScanChecker) sameBits(label string, got, want []float64) {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			c.failf("%s[%d] = %v, full scan %v", label, i, got[i], want[i])
			return
		}
	}
}

// coveredBy requires every nonzero of v to sit in the tracked pattern p,
// listed once, in ascending order when sorted is set.
func (c *fullScanChecker) coveredBy(label string, v []float64, p *pattern, sorted bool) {
	if p.all {
		return
	}
	in := make(map[int32]bool, len(p.nz))
	for k, i := range p.nz {
		if in[i] {
			c.failf("%s pattern lists %d twice", label, i)
		}
		in[i] = true
		if sorted && k > 0 && p.nz[k-1] >= i {
			c.failf("%s pattern not ascending at %d", label, k)
		}
	}
	for i, x := range v {
		if x != 0 && !in[int32(i)] {
			c.failf("%s pattern misses nonzero %v at %d", label, x, i)
		}
	}
}

func (c *fullScanChecker) leaving(s *spx, row int, below bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.picks++
	wantRow, wantBelow, ties := refLeaving(s)
	c.leaveTies += ties
	if row != wantRow || (row >= 0 && below != wantBelow) {
		c.failf("leaving row %d (below %v), full scan %d (below %v)", row, below, wantRow, wantBelow)
	}
}

func (c *fullScanChecker) entering(s *spx, col, dir int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.picks++
	wantCol, wantDir, ties := refPrice(s)
	c.priceTies += ties
	if col != wantCol || dir != wantDir {
		c.failf("entering column %d (dir %d), full scan %d (dir %d)", col, dir, wantCol, wantDir)
	}
}

func (c *fullScanChecker) ratio(s *spx, q, dir int, t float64, row int, atUpper, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wt, wrow, wup, wok := refRatioTest(s, q, dir)
	if math.Float64bits(t) != math.Float64bits(wt) || row != wrow || atUpper != wup || ok != wok {
		c.failf("ratio test (%v, row %d, upper %v, ok %v), full scan (%v, %d, %v, %v)",
			t, row, atUpper, ok, wt, wrow, wup, wok)
	}
	c.rec(s).atUpper = atUpper
	c.coveredBy("sorted column", s.st.col, &s.st.colPat, true)
}

func (c *fullScanChecker) pivotRow(s *spx) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := s.st
	c.coveredBy("rho", st.rho, &st.rhoPat, true)
	r := c.rec(s)
	r.touch, r.arow = refPivotRow(s)
	if len(r.touch) != len(st.atouch) {
		c.failf("pivot row touches %d columns, full scan %d", len(st.atouch), len(r.touch))
		return
	}
	for k, j := range r.touch {
		if st.atouch[k] != j {
			c.failf("pivot row touch %d is column %d, full scan %d", k, st.atouch[k], j)
			return
		}
		if math.Float64bits(st.arow[j]) != math.Float64bits(r.arow[j]) {
			c.failf("arow[%d] = %v, full scan %v", j, st.arow[j], r.arow[j])
			return
		}
	}
}

func (c *fullScanChecker) pivot(s *spx) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := s.st
	c.coveredBy("column", st.col, &st.colPat, false)
	r := c.rec(s)
	r.x = append(r.x[:0], st.x...)
	r.d = append(r.d[:0], st.d...)
	r.dseW = r.dseW[:0]
	if s.lu {
		r.dseW = append(r.dseW, st.dseW[:s.m]...)
	}
	r.rho = append(r.rho[:0], st.rho[:s.m]...)
	r.col = append(r.col[:0], st.col[:s.m]...)
	r.stat = append(r.stat[:0], st.stat...)
	r.basis = append(r.basis[:0], st.basis...)
	r.flips = append(r.flips[:0], st.flips...)
}

// dualDone replays the dual pivot's updates with the full-scan loops on the
// snapshot and compares x, d and the steepest-edge weights.
func (c *fullScanChecker) dualDone(s *spx, r, q int, piv float64, below bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dualPivots++
	st := s.st
	m := s.m
	rc := c.rec(s)
	x, d, w := rc.x, rc.d, rc.dseW
	if s.lu {
		v := make([]float64, m)
		var nz []int32
		wr := 0.0
		for i, xv := range rc.rho {
			if xv != 0 {
				wr += xv * xv
				v[i] = xv
				nz = append(nz, int32(i))
			}
		}
		tau := make([]float64, m)
		st.luf.ftran(v, tau, &pattern{all: true}, nz, false)
		for i, a := range rc.col {
			if a == 0 || i == r {
				continue
			}
			k := a / piv
			wi := w[i] + k*(k*wr-2*tau[i])
			if wi < dseMinWeight {
				wi = dseMinWeight
			}
			w[i] = wi
		}
		w[r] = wr / (piv * piv)
	}
	if len(rc.flips) > 0 {
		c.flipPivots++
		a := &st.mat
		wv := make([]float64, m)
		var nz []int32
		for _, j32 := range rc.flips {
			j := int(j32)
			var nv float64
			if rc.stat[j] == statusLower {
				rc.stat[j] = statusUpper
				nv = st.up[j]
			} else {
				rc.stat[j] = statusLower
				nv = st.lo[j]
			}
			dj := nv - x[j]
			x[j] = nv
			if dj == 0 {
				continue
			}
			if j < s.n {
				for k := a.colPtr[j]; k < a.colPtr[j+1]; k++ {
					i := a.colInd[k]
					if wv[i] == 0 {
						nz = append(nz, i)
					}
					wv[i] += a.colVal[k] * dj
				}
			} else {
				i := int32(j - s.n)
				if wv[i] == 0 {
					nz = append(nz, i)
				}
				wv[i] += a.sigma[i] * dj
			}
		}
		res := make([]float64, m)
		st.luf.ftran(wv, res, &pattern{all: true}, nz, false)
		for i := 0; i < m; i++ {
			if res[i] != 0 {
				x[rc.basis[i]] -= res[i]
			}
		}
	}
	leave := rc.basis[r]
	bound := st.lo[leave]
	if !below {
		bound = st.up[leave]
	}
	delta := (x[leave] - bound) / piv
	if delta != 0 {
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			if a := rc.col[i]; a != 0 {
				x[rc.basis[i]] -= a * delta
			}
		}
	}
	x[q] += delta
	x[leave] = bound
	if f := d[q] / piv; f != 0 {
		for _, j := range rc.touch {
			d[j] -= f * rc.arow[j]
		}
	}
	d[q] = 0
	c.sameBits("dual x", st.x, x)
	c.sameBits("dual d", st.d, d)
	if s.lu {
		c.sameBits("dual steepest-edge weight", st.dseW[:m], w)
	}
}

// primalDone replays the primal pivot's updates with the full-scan loops on
// the snapshot and compares x and d (r < 0: a bound flip of q).
func (c *fullScanChecker) primalDone(s *spx, q, r, dir int, t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.primalPivots++
	st := s.st
	rc := c.rec(s)
	x, d := rc.x, rc.d
	if t > 0 {
		x[q] += float64(dir) * t
		for i := 0; i < s.m; i++ {
			if a := rc.col[i]; a != 0 {
				x[rc.basis[i]] -= float64(dir) * t * a
			}
		}
	}
	if r < 0 {
		if rc.stat[q] == statusLower {
			x[q] = st.up[q]
		} else {
			x[q] = st.lo[q]
		}
	} else {
		piv := rc.col[r]
		if f := d[q] / piv; f != 0 {
			for _, j := range rc.touch {
				d[j] -= f * rc.arow[j]
			}
		}
		d[q] = 0
		leave := rc.basis[r]
		if rc.atUpper {
			x[leave] = st.up[leave]
		} else {
			x[leave] = st.lo[leave]
		}
	}
	c.sameBits("primal x", st.x, x)
	c.sameBits("primal d", st.d, d)
}

// refLeaving is the full-scan dual CHUZR: the largest violation (squared
// over the steepest-edge weight on LU), first row on ties. ties counts the
// other rows that attain the chosen score.
func refLeaving(s *spx) (row int, below bool, ties int) {
	st := s.st
	row = -1
	best := 0.0
	for i := 0; i < s.m; i++ {
		b := st.basis[i]
		xb := st.x[b]
		var v float64
		var lower bool
		if lo := st.lo[b]; lo-xb > s.feasTol(lo) {
			v, lower = lo-xb, true
		} else if up := st.up[b]; !math.IsInf(up, 1) && xb-up > s.feasTol(up) {
			v = xb - up
		} else {
			continue
		}
		if s.lu {
			v = v * v / st.dseW[i]
		}
		if v > best {
			best, row, below, ties = v, i, lower, 0
		} else if v == best && row >= 0 {
			ties++
		}
	}
	return row, below, ties
}

// refPrice is the full-scan primal price: the largest devex score, first
// column on ties, or Bland's first eligible column.
func refPrice(s *spx) (col, dir, ties int) {
	eps := s.cfg.tolerance
	st := s.st
	col, dir = -1, 0
	bestScore := 0.0
	for j := 0; j < s.nCols; j++ {
		if st.lo[j] == st.up[j] {
			continue
		}
		var sc float64
		var jdir int
		switch st.stat[j] {
		case statusBasic:
			continue
		case statusLower:
			if !(st.d[j] > eps) {
				continue
			}
			jdir = 1
		case statusUpper:
			if !(st.d[j] < -eps) {
				continue
			}
			jdir = -1
		}
		if s.useBland {
			return j, jdir, 0
		}
		sc = st.d[j] * st.d[j] / st.devexW[j]
		if sc > bestScore {
			bestScore, col, dir, ties = sc, j, jdir, 0
		} else if sc == bestScore && col >= 0 {
			ties++
		}
	}
	return col, dir, ties
}

// refRatioTest is the primal ratio test over all m positions.
func refRatioTest(s *spx, q, dir int) (t float64, pivotRow int, leavesAtUpper, ok bool) {
	const pivTol = 1e-9
	eps := s.cfg.tolerance
	st := s.st
	t = st.up[q] - st.lo[q]
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

// refPivotRow is the pivot-row product rho^T [A | logicals] over all m rows
// of rho.
func refPivotRow(s *spx) ([]int32, []float64) {
	st := s.st
	a := &st.mat
	arow := make([]float64, s.nCols)
	seen := make([]bool, s.nCols)
	var touch []int32
	add := func(j int32, v float64) {
		if !seen[j] {
			seen[j] = true
			touch = append(touch, j)
		}
		arow[j] += v
	}
	for i := 0; i < s.m; i++ {
		ri := st.rho[i]
		if ri == 0 || math.Abs(ri) < etaDropTol {
			continue
		}
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			add(a.rowInd[k], ri*a.rowVal[k])
		}
		add(int32(s.n+i), ri*a.sigma[i])
	}
	return touch, arow
}

// randomScanLP builds a seeded random LP with <=, = and >= rows and boxed or
// upper-unbounded columns, feasible at a random interior point. A
// primalStart LP has zero lower bounds and rows that hold there, so its cold
// solve runs the primal simplex; the others mostly start dual.
func randomScanLP(rng *rand.Rand, n, m int, sense Sense, primalStart bool) *Problem {
	p := NewProblem(sense)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		lo := float64(rng.Intn(3) - 1)
		if primalStart {
			lo = 0
		}
		up := lo + []float64{1, 1, 2, 5}[rng.Intn(4)]
		if rng.Intn(6) == 0 {
			up = Inf
		}
		x0[j] = lo + rng.Float64()
		// Costs from a small set, so pricing meets exact ties.
		cost := float64(rng.Intn(7)-2) * []float64{1, 0.5}[rng.Intn(2)]
		if !primalStart && math.IsInf(up, 1) && (cost > 0) == (sense == Maximize) && cost != 0 {
			// An attractive column without an upper bound has no dual
			// feasible start: the sparse kernel would hand the solve to the
			// dense oracle.
			up = lo + 3
		}
		if _, err := p.AddVariable("x", lo, up, cost); err != nil {
			panic(err)
		}
	}
	for i := 0; i < m; i++ {
		k := 2 + rng.Intn(5)
		terms := make([]Term, 0, k)
		act := 0.0
		for _, j := range rng.Perm(n)[:min(k, n)] {
			coef := float64(rng.Intn(4) + 1)
			if rng.Intn(4) == 0 {
				coef = -coef
			}
			terms = append(terms, Term{Var: VarID(j), Coeff: coef})
			act += coef * x0[j]
		}
		op := []Op{LE, LE, GE, GE, EQ}[rng.Intn(5)]
		rhs := act
		if primalStart {
			// The rows hold at x = 0; the interior point may violate them.
			rhs = map[Op]float64{LE: float64(1 + rng.Intn(6)), GE: -float64(rng.Intn(3)), EQ: 0}[op]
			act = rhs
		}
		switch op {
		case EQ:
			rhs = math.Round(act) // integral violations at integral bounds: ties
		case LE:
			rhs = math.Round(act + rng.Float64()*2)
			if rhs < act {
				rhs++
			}
		case GE:
			rhs = math.Round(act - rng.Float64()*2)
			if rhs > act {
				rhs--
			}
		}
		if _, err := p.AddConstraint("c", terms, op, rhs); err != nil {
			panic(err)
		}
	}
	return p
}

// TestScanCheckRandomLP runs the full-scan cross-check over seeded random
// LPs on both sparse kernels: cold primal and dual solves from the
// all-logical basis, then warm dual re-solves after branching-style bound
// changes (so the LU kernel's bound-flipping ratio test runs), at sizes
// below and above the hyper-sparse solve threshold.
func TestScanCheckRandomLP(t *testing.T) {
	c := enableScanCheck(t)
	sizes := []struct{ n, m int }{{12, 8}, {40, 30}, {90, 80}, {160, 140}}
	for _, kernel := range []Option{WithEtaKernel(), WithSparseKernel()} {
		for seed := int64(1); seed <= 16; seed++ {
			for _, sz := range sizes {
				rng := rand.New(rand.NewSource(seed*7919 + int64(sz.m)))
				sense := Maximize
				if seed%4 == 2 {
					sense = Minimize
				}
				p := randomScanLP(rng, sz.n, sz.m, sense, seed%2 == 1)
				ws := NewWorkspace()
				sol, err := p.Solve(kernel, WithWorkspace(ws), WithWarmStart(nil))
				if err != nil {
					t.Fatalf("seed %d %dx%d: %v", seed, sz.n, sz.m, err)
				}
				b := sol.Basis
				for step := 0; step < 6 && b != nil; step++ {
					j := VarID(rng.Intn(sz.n))
					lo, up, _ := p.VariableBounds(j)
					v := sol.Value(j)
					switch {
					case math.IsInf(up, 1):
						up = math.Floor(v) + 1
					case rng.Intn(2) == 0:
						up = math.Max(lo, math.Floor(v))
					default:
						lo = math.Min(up, math.Ceil(v))
					}
					if err := p.SetVariableBounds(j, lo, up); err != nil {
						t.Fatal(err)
					}
					sol, err = p.Solve(kernel, WithWorkspace(ws), WithWarmStart(b))
					if err != nil {
						t.Fatalf("seed %d %dx%d step %d: %v", seed, sz.n, sz.m, step, err)
					}
					b = sol.Basis
				}
			}
		}
	}
	c.report(t)
	t.Logf("checked %d dual pivots (%d with bound flips), %d primal pivots, %d picks; %d leaving and %d pricing ties",
		c.dualPivots, c.flipPivots, c.primalPivots, c.picks, c.leaveTies, c.priceTies)
	if c.dualPivots == 0 || c.flipPivots == 0 || c.primalPivots == 0 || c.leaveTies == 0 || c.priceTies == 0 {
		t.Fatalf("coverage: %d dual pivots, %d with flips, %d primal pivots, %d leaving ties, %d pricing ties",
			c.dualPivots, c.flipPivots, c.primalPivots, c.leaveTies, c.priceTies)
	}
}
