package lp

// Sparse LU basis factorization for the revised simplex kernel.
//
// luFactor represents the basis matrix B (columns of [A | logicals] in basis
// position order) as
//
//	R_k ... R_1 L^-1 B = U
//
// where L^-1 is the product of the Gaussian elimination steps recorded at the
// last factorization, each R_j is a Forrest-Tomlin row eta absorbed by a
// basis update since then, and U is upper triangular under the (row, position)
// permutation maintained in slot order. factorize builds L and U with
// Markowitz pivoting under threshold partial pivoting; update replaces one
// column of U per pivot and appends one row eta instead of refactorizing;
// ftran/btran solve with the factors, switching to depth-first reachability
// ("hyper-sparse") solves when the input pattern is small so the work tracks
// the result nonzeros rather than m.
//
// Slots: slot t owns pivot row uRow[t], basis position uPos[t] and pivot
// value uPiv[t]. The U lists are keyed by row and by position, not by slot:
// urows[r] holds the off-diagonal entries of U's row r keyed by basis
// position (all at slots after r's), and ucols[p] holds the entries of U's
// column p keyed by row (all at slots before p's). Forrest-Tomlin updates
// cyclically shift slots, which then moves only the three int/float slot
// arrays and rewrites slotOfRow/slotOfPos; no list header moves. Solves
// reach slot t's lists through urows[uRow[t]] and ucols[uPos[t]].
//
// Result patterns: ftran and btran record where their result may be
// nonzero in a pattern, and clear the output vector through its previous
// pattern instead of in full, so a pivot's work tracks the nonzeros it
// touches (Hall and McKinnon, "Hyper-sparsity in the revised simplex method
// and how to exploit it", 2005).

import "math"

const (
	// luDropTol discards factor entries too small to survive the 1e-9
	// pivot tolerance downstream.
	luDropTol = 1e-12
	// luPivotTau is the threshold partial pivoting factor: a Markowitz
	// pivot must have magnitude at least tau times its column's maximum.
	luPivotTau = 0.1
	// luAbsPivotTol is the absolute pivot floor; a column whose largest
	// entry is below it makes the basis numerically singular.
	luAbsPivotTol = 1e-11
	// luUpdateRelTol rejects a Forrest-Tomlin update whose new diagonal is
	// smaller than this fraction of the spike's largest entry; the caller
	// refactorizes instead.
	luUpdateRelTol = 1e-9
	// luMaxUpdates caps accumulated Forrest-Tomlin updates between
	// refactorizations (FTRAN/BTRAN cost grows with the row-eta file). The
	// effective budget additionally scales with the basis dimension — see
	// spx.luBudget — because on small bases a long row-eta chain costs more
	// per solve than the refactorization it defers.
	luMaxUpdates = 96
	// luMinUpdates floors the m-scaled update budget so tiny bases still
	// amortize a few pivots per factorization.
	luMinUpdates = 4
	// luAutoMinDim is the basis dimension below which an auto-kernel solve
	// (no explicit WithKernel pin) of a primal-start problem runs the eta
	// kernel instead of the LU kernel. Dual-start problems run LU at every
	// dimension (see bindSparse): BenchmarkSmallKernels' 40x40 MinCost takes
	// 0.64-0.70 ms on LU and 1.26-1.38 ms on eta (GOMAXPROCS=1, 2-CPU x86-64
	// container). The threshold was measured on E7 MaxUtility at 30% budget
	// (median of 6 samples of 10 solves on a 2-CPU x86-64 container, with
	// the LU kernel on dual steepest-edge pricing): at 200 monitors x 100
	// attacks the eta kernel is ~1.3x faster (20.9 vs 28.0 ms; cold
	// Markowitz setup and per-iteration factor walks dominate small bases),
	// at 400 x 100 the LU kernel is ~1.25x faster (31.2 vs 39.1 ms) and
	// pulls further ahead as the eta file's growth compounds. Those roots
	// start primal feasible, so the pricing change barely moved them
	// (Dantzig-priced LU: 28.7 and 31.6 ms). 256 sits in the measured
	// crossover band.
	luAutoMinDim = 256
	// luFillGrowth triggers an adaptive refactorization when the live
	// factor nonzeros exceed this multiple of the post-factorization count.
	luFillGrowth = 3.0
	// luHyperDenom selects the hyper-sparse solve path when
	// len(pattern)*luHyperDenom < m and the basis has at least
	// luHyperMinDim rows: below that the reachability closure and its sort
	// cost more than the dense triangular sweep they avoid. The same ratio
	// decides how a closure is ordered (see orderClosure): a small input
	// pattern can still reach a large share of the factor.
	luHyperDenom  = 8
	luHyperMinDim = 64
	// luSearchCap bounds the Markowitz search: the best pivot among this
	// many acceptable candidate columns (ascending count order) is taken.
	luSearchCap = 8
)

// luEntry is one off-diagonal U entry: at is a basis position in urows lists
// and a row index in ucols lists.
type luEntry struct {
	at  int32
	val float64
}

// pattern lists the positions at which a dense-stored vector may be
// nonzero. all marks a vector whose pattern is not tracked: any entry may be
// nonzero, and the next reset clears it in full.
type pattern struct {
	nz  []int32
	all bool
}

// reset zeroes v wherever the pattern says it may be nonzero and leaves the
// pattern empty and tracked.
func (p *pattern) reset(v []float64) {
	if p.all {
		clear(v)
	} else {
		for _, i := range p.nz {
			v[i] = 0
		}
	}
	p.nz = p.nz[:0]
	p.all = false
}

// sortPattern orders p's positions ascending. A pattern holding at least
// len(v)/luHyperDenom positions is rebuilt by one scan of v for its
// nonzeros, as orderClosure does; a shorter one is sorted in place. Both give
// the ascending order of v's nonzeros that a 0..m scan visits (the scan
// drops explicit zeros, which every consumer skips anyway).
func (p *pattern) sortPattern(v []float64) {
	if p.all {
		return // positions walks 0..m-1, already ascending
	}
	if len(p.nz)*luHyperDenom < len(v) {
		sortI32ByKey(p.nz, nil)
		return
	}
	nz := p.nz[:0]
	for i, x := range v {
		if x != 0 {
			nz = append(nz, int32(i))
		}
	}
	p.nz = nz
}

// luFactor is the LU representation of one basis, embedded in sparseState and
// reused (buffers and all) across factorizations.
type luFactor struct {
	m int

	// L: elimination steps in factorization order. Step k pivoted row
	// lRow[k]; lInd/lVal in [lStart[k], lStart[k+1]) are the multipliers.
	lRow   []int32
	lStart []int32
	lInd   []int32
	lVal   []float64

	stepOfRow []int32 // elimination step whose pivot row is r
	ltPtr     []int32 // CSR offsets: steps whose multiplier set contains row r
	ltStep    []int32

	// U: slot arrays in slot order, lists keyed by row (urows) and by
	// position (ucols); see the package comment.
	uPiv      []float64
	uRow      []int32
	uPos      []int32
	slotOfRow []int32
	slotOfPos []int32
	urows     [][]luEntry
	ucols     [][]luEntry
	uNnz      int // off-diagonal U entries

	// Forrest-Tomlin row etas: eta j scales row rRow[j] by subtracting
	// rVal[idx]*v[rInd[idx]] over [rStart[j], rStart[j+1]).
	rRow   []int32
	rStart []int32
	rInd   []int32
	rVal   []float64

	nUpdates int
	baseNnz  int // live nonzeros right after the last factorize

	// Spike: the partial FTRAN (R...R L^-1 a_q) of the most recent entering
	// column, saved by ftran for the update that follows. Kept all-zero
	// outside [spikeNz] unless spikeDense.
	spike      []float64
	spikeNz    []int32
	spikeDense bool
	spikeMax   float64
	haveSpike  bool

	// Scratch. acc/mark/stamp form a stamped dense accumulator (indexed by
	// row or by position depending on the phase); dmark/dstamp guard the
	// reachability DFS; reach/stack are its node buffers.
	acc    []float64
	mark   []int64
	stamp  int64
	touch  []int32
	dmark  []int64
	dstamp int64
	reach  []int32
	stack  []int32
	topo   []int32 // topoU/topoL result
	dfs    []int32 // topoU/topoL DFS stack
	cursor []int32 // DFS edge cursor per stack level; factorize's fill cursors

	// Factorization scratch: the active submatrix.
	colEnt  [][]luEntry // exact active column entries (row, val)
	rowPat  [][]int32   // superset of active positions per row
	rowCnt  []int32
	colCnt  []int32
	bktHead []int32 // columns bucketed by colCnt (doubly linked)
	bktNext []int32
	bktPrev []int32
	rowSing []int32 // candidate row-singleton queue (verified on pop)
	colDone []bool
	rowDone []bool
}

// sortI32ByKey sorts a ascending by key[a[i]] (or by value when key is nil)
// without allocating: insertion sort for short runs, heapsort otherwise.
func sortI32ByKey(a []int32, key []int32) {
	k := func(x int32) int32 {
		if key == nil {
			return x
		}
		return key[x]
	}
	n := len(a)
	if n < 2 {
		return
	}
	if n <= 24 {
		for i := 1; i < n; i++ {
			v := a[i]
			kv := k(v)
			j := i - 1
			for j >= 0 && k(a[j]) > kv {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
		return
	}
	sift := func(lo, hi int) {
		root := lo
		for {
			child := 2*root + 1
			if child > hi {
				return
			}
			if child+1 <= hi && k(a[child]) < k(a[child+1]) {
				child++
			}
			if k(a[root]) >= k(a[child]) {
				return
			}
			a[root], a[child] = a[child], a[root]
			root = child
		}
	}
	for lo := n/2 - 1; lo >= 0; lo-- {
		sift(lo, n-1)
	}
	for hi := n - 1; hi > 0; hi-- {
		a[0], a[hi] = a[hi], a[0]
		sift(0, hi-1)
	}
}

// orderClosure sorts a reachability closure ascending by key, in place.
// Every node of list carries the stamp st in dmark, and order lists all m
// nodes by ascending key, so a closure holding at least m/luHyperDenom
// nodes is ordered by one O(m) scan of the stamps instead of an
// O(n log n) comparison sort. Keys are distinct, so both give the same
// order and the solves stay bit-identical. Only FTRAN's L closure needs it:
// the gather closures run in depth-first order (see topoU).
func (f *luFactor) orderClosure(list []int32, st int64, order, key []int32) {
	if len(list)*luHyperDenom < f.m {
		sortI32ByKey(list, key)
		return
	}
	n := 0
	for _, x := range order[:f.m] {
		if f.dmark[x] == st {
			list[n] = x
			n++
		}
	}
}

// removeEntryAt swap-removes the entry with the given at key from a list.
func removeEntryAt(list []luEntry, at int32) []luEntry {
	for i := range list {
		if list[i].at == at {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// liveNnz reports the current factor size: L and U entries, accumulated
// row-eta entries, and the m pivots.
func (f *luFactor) liveNnz() int {
	return len(f.lInd) + len(f.rInd) + f.uNnz + f.m
}

// bktIn links column j into its count bucket.
func (f *luFactor) bktIn(j int32) {
	c := f.colCnt[j]
	f.bktPrev[j] = -1
	f.bktNext[j] = f.bktHead[c]
	if f.bktHead[c] >= 0 {
		f.bktPrev[f.bktHead[c]] = j
	}
	f.bktHead[c] = j
}

// bktOut unlinks column j from its count bucket.
func (f *luFactor) bktOut(j int32) {
	c := f.colCnt[j]
	if f.bktPrev[j] >= 0 {
		f.bktNext[f.bktPrev[j]] = f.bktNext[j]
	} else {
		f.bktHead[c] = f.bktNext[j]
	}
	if f.bktNext[j] >= 0 {
		f.bktPrev[f.bktNext[j]] = f.bktPrev[j]
	}
}

// evalColumn finds the best threshold-acceptable pivot in active column j:
// the minimum-rowCnt entry (ties to larger magnitude) among entries within
// luPivotTau of the column maximum. ok=false means the column is numerically
// zero — the basis is singular.
func (f *luFactor) evalColumn(j int32) (row int32, val float64, cost int64, ok bool) {
	cmax := 0.0
	for _, e := range f.colEnt[j] {
		if a := math.Abs(e.val); a > cmax {
			cmax = a
		}
	}
	if cmax <= luAbsPivotTol {
		return 0, 0, 0, false
	}
	thresh := luPivotTau * cmax
	row, val = -1, 0
	var bestRC int32
	for _, e := range f.colEnt[j] {
		if math.Abs(e.val) < thresh {
			continue
		}
		rc := f.rowCnt[e.at]
		if row < 0 || rc < bestRC || (rc == bestRC && math.Abs(e.val) > math.Abs(val)) {
			row, val, bestRC = e.at, e.val, rc
		}
	}
	return row, val, int64(f.colCnt[j]-1) * int64(bestRC-1), true
}

// factorize computes a fresh Markowitz LU of the basis whose column at each
// position i is the stable column target[i]. It reports false when the basis
// is structurally or numerically singular; the factor is then unusable.
func (f *luFactor) factorize(s *spx, target []int32) bool {
	m := s.m
	f.m = m
	f.uPiv = f64(&f.uPiv, m, false)
	f.uRow = i32s(&f.uRow, m)
	f.uPos = i32s(&f.uPos, m)
	f.slotOfRow = i32s(&f.slotOfRow, m)
	f.slotOfPos = i32s(&f.slotOfPos, m)
	f.stepOfRow = i32s(&f.stepOfRow, m)
	f.lRow = f.lRow[:0]
	f.lInd, f.lVal = f.lInd[:0], f.lVal[:0]
	if cap(f.lStart) == 0 {
		f.lStart = append(f.lStart, 0)
	}
	f.lStart = f.lStart[:1]
	f.lStart[0] = 0
	f.rRow, f.rInd, f.rVal = f.rRow[:0], f.rInd[:0], f.rVal[:0]
	if cap(f.rStart) == 0 {
		f.rStart = append(f.rStart, 0)
	}
	f.rStart = f.rStart[:1]
	f.rStart[0] = 0
	f.nUpdates = 0
	f.spike = f64(&f.spike, m, true)
	f.spikeNz = f.spikeNz[:0]
	f.spikeDense = false
	f.haveSpike = false
	for len(f.urows) < m {
		f.urows = append(f.urows, nil)
	}
	for len(f.ucols) < m {
		f.ucols = append(f.ucols, nil)
	}
	f.acc = f64(&f.acc, m, true)
	f.mark = i64s(&f.mark, m)
	f.dmark = i64s(&f.dmark, m)
	f.rowCnt = i32s(&f.rowCnt, m)
	f.colCnt = i32s(&f.colCnt, m)
	f.bktHead = i32s(&f.bktHead, m+1)
	f.bktNext = i32s(&f.bktNext, m)
	f.bktPrev = i32s(&f.bktPrev, m)
	f.cursor = i32s(&f.cursor, m+1)
	f.colDone = bools(&f.colDone, m, true)
	f.rowDone = bools(&f.rowDone, m, true)
	f.rowSing = f.rowSing[:0]
	for len(f.colEnt) < m {
		f.colEnt = append(f.colEnt, nil)
	}
	for len(f.rowPat) < m {
		f.rowPat = append(f.rowPat, nil)
	}

	// Load the target columns into the active submatrix.
	a := &s.st.mat
	for i := 0; i < m; i++ {
		f.rowCnt[i] = 0
		f.rowPat[i] = f.rowPat[i][:0]
		f.bktHead[i] = -1
	}
	f.bktHead[m] = -1
	for j := 0; j < m; j++ {
		c := int(target[j])
		if c < 0 || c >= s.nCols {
			return false
		}
		col := f.colEnt[j][:0]
		if c < s.n {
			for k := a.colPtr[c]; k < a.colPtr[c+1]; k++ {
				col = append(col, luEntry{a.colInd[k], a.colVal[k]})
			}
		} else {
			i := int32(c - s.n)
			col = append(col, luEntry{i, a.sigma[i]})
		}
		f.colEnt[j] = col
		f.colCnt[j] = int32(len(col))
		if len(col) == 0 {
			return false
		}
		for _, e := range col {
			f.rowCnt[e.at]++
			f.rowPat[e.at] = append(f.rowPat[e.at], int32(j))
		}
		f.bktIn(int32(j))
	}
	for i := int32(0); i < int32(m); i++ {
		if f.rowCnt[i] == 0 {
			return false
		}
		if f.rowCnt[i] == 1 {
			f.rowSing = append(f.rowSing, i)
		}
	}

	for k := 0; k < m; k++ {
		if !f.eliminate(k) {
			return false
		}
	}

	// Post-pass: slot maps, U column lists, transposed L adjacency.
	for t := 0; t < m; t++ {
		f.slotOfRow[f.uRow[t]] = int32(t)
		f.slotOfPos[f.uPos[t]] = int32(t)
		f.stepOfRow[f.lRow[t]] = int32(t)
		f.ucols[t] = f.ucols[t][:0]
	}
	nnz := 0
	for t := 0; t < m; t++ {
		r := f.uRow[t]
		for _, e := range f.urows[r] {
			f.ucols[e.at] = append(f.ucols[e.at], luEntry{r, e.val})
			nnz++
		}
	}
	f.uNnz = nnz
	f.ltPtr = i32s(&f.ltPtr, m+1)
	for i := 0; i <= m; i++ {
		f.ltPtr[i] = 0
	}
	for _, r := range f.lInd {
		f.ltPtr[r+1]++
	}
	for i := 0; i < m; i++ {
		f.ltPtr[i+1] += f.ltPtr[i]
	}
	f.ltStep = i32s(&f.ltStep, len(f.lInd))
	copy(f.cursor, f.ltPtr)
	for k := 0; k < m; k++ {
		for idx := f.lStart[k]; idx < f.lStart[k+1]; idx++ {
			r := f.lInd[idx]
			f.ltStep[f.cursor[r]] = int32(k)
			f.cursor[r]++
		}
	}
	f.baseNnz = f.liveNnz()
	return true
}

// eliminate performs elimination step k: pick a pivot (row singletons first,
// then a bounded Markowitz search over count-bucketed columns), record the L
// column and U row, and update the remaining active columns.
func (f *luFactor) eliminate(k int) bool {
	m := f.m
	var pr, pj int32 = -1, -1
	var pv float64

	// Row singletons pivot with zero Markowitz cost; accept one if it also
	// passes the stability threshold in its column.
	for len(f.rowSing) > 0 && pr < 0 {
		r := f.rowSing[len(f.rowSing)-1]
		f.rowSing = f.rowSing[:len(f.rowSing)-1]
		if f.rowDone[r] || f.rowCnt[r] != 1 {
			continue
		}
		for _, j := range f.rowPat[r] {
			if f.colDone[j] {
				continue
			}
			found, fval := false, 0.0
			cmax := 0.0
			for _, e := range f.colEnt[j] {
				if a := math.Abs(e.val); a > cmax {
					cmax = a
				}
				if e.at == r {
					found, fval = true, e.val
				}
			}
			if !found {
				continue // stale pattern entry
			}
			if math.Abs(fval) >= luPivotTau*cmax && math.Abs(fval) > luAbsPivotTol {
				pr, pj, pv = r, j, fval
			}
			break // the row's single real entry, accepted or not
		}
	}

	if pr < 0 {
		bestCost := int64(m+1) * int64(m+1)
		searched := 0
	search:
		for cnt := int32(1); cnt <= int32(m); cnt++ {
			if pr >= 0 && bestCost <= int64(cnt-1)*int64(cnt-1) {
				break
			}
			for j := f.bktHead[cnt]; j >= 0; j = f.bktNext[j] {
				row, val, cost, ok := f.evalColumn(j)
				if !ok {
					return false
				}
				if row < 0 {
					continue
				}
				if pr < 0 || cost < bestCost ||
					(cost == bestCost && math.Abs(val) > math.Abs(pv)) {
					pr, pj, pv, bestCost = row, j, val, cost
				}
				searched++
				if bestCost == 0 || searched >= luSearchCap {
					break search
				}
			}
		}
		if pr < 0 {
			return false
		}
	}

	// Record the L column (multipliers) and the pivot.
	lbase := len(f.lInd)
	for _, e := range f.colEnt[pj] {
		if e.at == pr {
			continue
		}
		l := e.val / pv
		if math.Abs(l) < luDropTol {
			continue
		}
		f.lInd = append(f.lInd, e.at)
		f.lVal = append(f.lVal, l)
	}
	f.lRow = append(f.lRow, pr)
	f.lStart = append(f.lStart, int32(len(f.lInd)))
	f.uPiv[k] = pv
	f.uRow[k] = pr
	f.uPos[k] = pj

	// Update every other active column with an entry in the pivot row,
	// collecting those entries as U row k. rowPat is a superset: entries are
	// verified against the exact column before use.
	urow := f.urows[pr][:0]
	f.stamp++
	pst := f.stamp
	for _, j := range f.rowPat[pr] {
		if f.colDone[j] || j == pj || f.mark[j] == pst {
			continue
		}
		f.mark[j] = pst
		col := f.colEnt[j]
		alpha, found := 0.0, false
		for _, e := range col {
			if e.at == pr {
				alpha, found = e.val, true
				break
			}
		}
		if !found {
			continue
		}
		urow = append(urow, luEntry{j, alpha})
		// Rebuild column j through the stamped accumulator: subtract
		// alpha times the multiplier column and drop the pivot row.
		f.stamp++
		ast := f.stamp
		touch := f.touch[:0]
		for _, e := range col {
			f.rowCnt[e.at]--
			if f.rowCnt[e.at] == 1 && !f.rowDone[e.at] {
				f.rowSing = append(f.rowSing, e.at)
			}
			if e.at == pr {
				continue
			}
			f.acc[e.at] = e.val
			f.mark[e.at] = ast
			touch = append(touch, e.at)
		}
		for idx := lbase; idx < len(f.lInd); idx++ {
			r := f.lInd[idx]
			if f.mark[r] != ast {
				f.mark[r] = ast
				f.acc[r] = 0
				touch = append(touch, r)
				f.rowPat[r] = append(f.rowPat[r], j) // fill candidate
			}
			f.acc[r] -= alpha * f.lVal[idx]
		}
		f.touch = touch[:0]
		col = col[:0]
		for _, r := range touch {
			v := f.acc[r]
			if math.Abs(v) <= luDropTol {
				continue
			}
			col = append(col, luEntry{r, v})
			f.rowCnt[r]++
		}
		f.colEnt[j] = col
		f.bktOut(j)
		f.colCnt[j] = int32(len(col))
		if len(col) == 0 {
			return false // active column annihilated: singular
		}
		f.bktIn(j)
	}
	f.urows[pr] = urow

	// Retire the pivot column and row.
	f.bktOut(pj)
	for _, e := range f.colEnt[pj] {
		if e.at == pr {
			continue
		}
		f.rowCnt[e.at]--
		if f.rowCnt[e.at] == 1 && !f.rowDone[e.at] {
			f.rowSing = append(f.rowSing, e.at)
		}
	}
	f.colEnt[pj] = f.colEnt[pj][:0]
	f.colCnt[pj] = 0
	f.colDone[pj] = true
	f.rowDone[pr] = true
	return true
}

// clearSpike zeroes the saved spike buffer.
func (f *luFactor) clearSpike() {
	if f.spikeDense {
		clear(f.spike)
	} else {
		for _, r := range f.spikeNz {
			f.spike[r] = 0
		}
	}
	f.spikeNz = f.spikeNz[:0]
	f.spikeDense = false
	f.haveSpike = false
	f.spikeMax = 0
}

// ftran solves B w = v. v is a row-space vector that must be zero outside
// nzIn (nzIn nil means dense); ftran consumes v and returns it all-zero. The
// position-space result is written to out, which is first cleared through
// its pattern outPat; outPat then lists the result's nonzero positions, in
// descending slot order (not sorted). saveSpike records the partial FTRAN
// R...R L^-1 v for a following update.
func (f *luFactor) ftran(v, out []float64, outPat *pattern, nzIn []int32, saveSpike bool) {
	m := f.m
	outPat.reset(out)
	if nzIn == nil || m < luHyperMinDim || len(nzIn)*luHyperDenom >= m {
		// Dense path: all steps in order.
		for k := 0; k < m; k++ {
			t := v[f.lRow[k]]
			if t == 0 {
				continue
			}
			for idx := f.lStart[k]; idx < f.lStart[k+1]; idx++ {
				v[f.lInd[idx]] -= f.lVal[idx] * t
			}
		}
		for j := 0; j < len(f.rRow); j++ {
			t := v[f.rRow[j]]
			for idx := f.rStart[j]; idx < f.rStart[j+1]; idx++ {
				t -= f.rVal[idx] * v[f.rInd[idx]]
			}
			v[f.rRow[j]] = t
		}
		if saveSpike {
			f.clearSpike()
			copy(f.spike, v)
			mx := 0.0
			for _, x := range v {
				if a := math.Abs(x); a > mx {
					mx = a
				}
			}
			f.spikeDense, f.spikeMax, f.haveSpike = true, mx, true
		}
		nz := outPat.nz
		for t := m - 1; t >= 0; t-- {
			sum := v[f.uRow[t]]
			for _, e := range f.urows[f.uRow[t]] {
				if w := out[e.at]; w != 0 {
					sum -= e.val * w
				}
			}
			if sum != 0 {
				p := f.uPos[t]
				out[p] = sum / f.uPiv[t]
				nz = append(nz, p)
			}
		}
		outPat.nz = nz
		clear(v)
		return
	}

	// Hyper-sparse path. L: depth-first closure over rows (edges from a
	// step's pivot row to its multiplier rows), executed in step order.
	f.dstamp++
	ds := f.dstamp
	reach := f.reach[:0]
	stack := f.stack[:0]
	for _, r := range nzIn {
		if f.dmark[r] != ds {
			f.dmark[r] = ds
			reach = append(reach, r)
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k := f.stepOfRow[r]
		for idx := f.lStart[k]; idx < f.lStart[k+1]; idx++ {
			c := f.lInd[idx]
			if f.dmark[c] != ds {
				f.dmark[c] = ds
				reach = append(reach, c)
				stack = append(stack, c)
			}
		}
	}
	f.stack = stack[:0]
	f.orderClosure(reach, ds, f.lRow, f.stepOfRow)
	for _, r := range reach {
		t := v[r]
		if t == 0 {
			continue
		}
		k := f.stepOfRow[r]
		for idx := f.lStart[k]; idx < f.lStart[k+1]; idx++ {
			v[f.lInd[idx]] -= f.lVal[idx] * t
		}
	}
	// Row etas are few; apply them all, growing the pattern as needed.
	for j := 0; j < len(f.rRow); j++ {
		pr := f.rRow[j]
		t := v[pr]
		for idx := f.rStart[j]; idx < f.rStart[j+1]; idx++ {
			t -= f.rVal[idx] * v[f.rInd[idx]]
		}
		v[pr] = t
		if t != 0 && f.dmark[pr] != ds {
			f.dmark[pr] = ds
			reach = append(reach, pr)
		}
	}
	if saveSpike {
		f.clearSpike()
		mx := 0.0
		nz := f.spikeNz[:0]
		for _, r := range reach {
			x := v[r]
			if x == 0 {
				continue
			}
			f.spike[r] = x
			nz = append(nz, r)
			if a := math.Abs(x); a > mx {
				mx = a
			}
		}
		f.spikeNz, f.spikeMax, f.haveSpike = nz, mx, true
	}
	// U: closure over slots (a nonzero result position feeds the equations
	// of earlier slots through its column), executed in a topological
	// order. Each slot gathers its own U row, so every such order gives
	// the descending slot sweep's bits.
	seeds := f.stack[:0]
	for _, r := range reach {
		if v[r] != 0 {
			seeds = append(seeds, f.slotOfRow[r])
		}
	}
	f.stack = seeds
	slots := f.topoU(seeds, f.ucols, f.uPos, f.slotOfRow)
	nz := outPat.nz
	for _, t := range slots {
		sum := v[f.uRow[t]]
		for _, e := range f.urows[f.uRow[t]] {
			if w := out[e.at]; w != 0 {
				sum -= e.val * w
			}
		}
		if sum != 0 {
			p := f.uPos[t]
			out[p] = sum / f.uPiv[t]
			nz = append(nz, p)
		}
	}
	outPat.nz = nz
	for _, r := range reach {
		v[r] = 0
	}
	f.reach = reach[:0]
}

// btran solves B^T y = v. v is a position-space vector, zero outside nzIn
// (nzIn nil means dense); it is left untouched. The row-space result is
// written to out, which is first cleared through its pattern outPat; outPat
// then lists the result's nonzero rows in ascending order, the rows the L^T
// stage writes included.
func (f *luFactor) btran(v, out []float64, outPat *pattern, nzIn []int32) {
	m := f.m
	outPat.reset(out)
	if nzIn == nil || m < luHyperMinDim || len(nzIn)*luHyperDenom >= m {
		for t := 0; t < m; t++ {
			sum := v[f.uPos[t]]
			for _, e := range f.ucols[f.uPos[t]] {
				if w := out[e.at]; w != 0 {
					sum -= e.val * w
				}
			}
			if sum != 0 {
				out[f.uRow[t]] = sum / f.uPiv[t]
			}
		}
		for j := len(f.rRow) - 1; j >= 0; j-- {
			t := out[f.rRow[j]]
			if t == 0 {
				continue
			}
			for idx := f.rStart[j]; idx < f.rStart[j+1]; idx++ {
				out[f.rInd[idx]] -= f.rVal[idx] * t
			}
		}
		for k := m - 1; k >= 0; k-- {
			sum := out[f.lRow[k]]
			for idx := f.lStart[k]; idx < f.lStart[k+1]; idx++ {
				sum -= f.lVal[idx] * out[f.lInd[idx]]
			}
			out[f.lRow[k]] = sum
		}
		nz := outPat.nz
		for r, x := range out[:m] {
			if x != 0 {
				nz = append(nz, int32(r))
			}
		}
		outPat.nz = nz
		return
	}

	// Hyper-sparse path. U^T: closure over slots (a solved row feeds the
	// equations of later slots through its U row), executed in a
	// topological order; each slot gathers its own U column, so every such
	// order gives the ascending slot sweep's bits.
	seeds := f.stack[:0]
	for _, p := range nzIn {
		seeds = append(seeds, f.slotOfPos[p])
	}
	f.stack = seeds
	slots := f.topoU(seeds, f.urows, f.uRow, f.slotOfPos)
	// The row pattern is stamped in mark (dmark serves the closures).
	f.stamp++
	rs := f.stamp
	rows := outPat.nz
	for _, t := range slots {
		p := f.uPos[t]
		sum := v[p]
		for _, e := range f.ucols[p] {
			if w := out[e.at]; w != 0 {
				sum -= e.val * w
			}
		}
		if sum == 0 {
			continue
		}
		r := f.uRow[t]
		out[r] = sum / f.uPiv[t]
		if f.mark[r] != rs {
			f.mark[r] = rs
			rows = append(rows, r)
		}
	}
	for j := len(f.rRow) - 1; j >= 0; j-- {
		t := out[f.rRow[j]]
		if t == 0 {
			continue
		}
		for idx := f.rStart[j]; idx < f.rStart[j+1]; idx++ {
			r := f.rInd[idx]
			out[r] -= f.rVal[idx] * t
			if f.mark[r] != rs {
				f.mark[r] = rs
				rows = append(rows, r)
			}
		}
	}
	// L^T: closure over steps (a nonzero multiplier row feeds the steps
	// whose multiplier sets contain it), executed in a topological order;
	// each step gathers its own multipliers, so every such order gives the
	// descending step sweep's bits.
	seeds = f.stack[:0]
	for _, r := range rows {
		seeds = append(seeds, f.ltStep[f.ltPtr[r]:f.ltPtr[r+1]]...)
	}
	f.stack = seeds
	for _, k := range f.topoL(seeds) {
		r := f.lRow[k]
		sum := out[r]
		for idx := f.lStart[k]; idx < f.lStart[k+1]; idx++ {
			sum -= f.lVal[idx] * out[f.lInd[idx]]
		}
		out[r] = sum
		if f.mark[r] != rs {
			f.mark[r] = rs
			rows = append(rows, r)
		}
	}
	outPat.nz = rows
	outPat.sortPattern(out[:m])
}

// topoU orders the closure of the seed slots under U's pattern
// topologically, every slot before the slots whose equations read its
// value, by Gilbert-Peierls depth-first search (reverse postorder). Slot t's
// successors are the slots slotOf[e.at] of the entries e of
// lists[key[t]]: ftran follows U's columns (ucols, uPos, slotOfRow) and btran
// its rows (urows, uRow, slotOfPos). Seeds may repeat. The result aliases
// f.topo.
func (f *luFactor) topoU(seeds []int32, lists [][]luEntry, key, slotOf []int32) []int32 {
	f.dstamp++
	ds := f.dstamp
	post := f.topo[:0]
	stack := f.dfs[:0]
	cur := f.cursor[:0]
	for _, s0 := range seeds {
		if f.dmark[s0] == ds {
			continue
		}
		f.dmark[s0] = ds
		stack, cur = append(stack, s0), append(cur, 0)
		for len(stack) > 0 {
			top := len(stack) - 1
			list := lists[key[stack[top]]]
			k := cur[top]
			for k < int32(len(list)) {
				c := slotOf[list[k].at]
				k++
				if f.dmark[c] != ds {
					f.dmark[c] = ds
					cur[top] = k
					stack, cur = append(stack, c), append(cur, 0)
					break
				}
			}
			if k == int32(len(list)) && len(stack) == top+1 {
				post = append(post, stack[top])
				stack, cur = stack[:top], cur[:top]
			}
		}
	}
	f.dfs, f.cursor = stack[:0], cur[:0]
	return reverseInto(f, post)
}

// topoL orders the closure of the seed steps under L^T's pattern
// topologically, every step before the steps that read the row it writes
// (those whose multiplier sets contain its pivot row), by depth-first
// search. Seeds may repeat. The result aliases f.topo.
func (f *luFactor) topoL(seeds []int32) []int32 {
	f.dstamp++
	ds := f.dstamp
	post := f.topo[:0]
	stack := f.dfs[:0]
	cur := f.cursor[:0]
	for _, k0 := range seeds {
		if f.dmark[k0] == ds {
			continue
		}
		f.dmark[k0] = ds
		stack, cur = append(stack, k0), append(cur, f.ltPtr[f.lRow[k0]])
		for len(stack) > 0 {
			top := len(stack) - 1
			end := f.ltPtr[f.lRow[stack[top]]+1]
			idx := cur[top]
			for idx < end {
				c := f.ltStep[idx]
				idx++
				if f.dmark[c] != ds {
					f.dmark[c] = ds
					cur[top] = idx
					stack, cur = append(stack, c), append(cur, f.ltPtr[f.lRow[c]])
					break
				}
			}
			if idx == end && len(stack) == top+1 {
				post = append(post, stack[top])
				stack, cur = stack[:top], cur[:top]
			}
		}
	}
	f.dfs, f.cursor = stack[:0], cur[:0]
	return reverseInto(f, post)
}

// reverseInto reverses a DFS postorder in place into a topological order
// and keeps its buffer as f.topo.
func reverseInto(f *luFactor, post []int32) []int32 {
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	f.topo = post
	return post
}

// update absorbs a basis change at position r by a Forrest-Tomlin update:
// the U column at r is removed, the slots are cyclically shifted, the
// detached pivot row is eliminated into a new row eta, and the spike saved by
// the entering column's ftran becomes the last column of U. It reports false
// when the new diagonal is too small to trust — the caller refactorizes.
func (f *luFactor) update(r int) bool {
	if !f.haveSpike || r < 0 || r >= f.m {
		return false
	}
	m := f.m
	t := int(f.slotOfPos[r])
	pr := f.uRow[t]
	r32 := int32(r)

	// Drop column r from its owner rows, and detach row pr into the
	// position-indexed accumulator (its entries all sit at slots > t).
	for _, e := range f.ucols[r] {
		f.urows[e.at] = removeEntryAt(f.urows[e.at], r32)
		f.uNnz--
	}
	f.ucols[r] = f.ucols[r][:0]
	f.stamp++
	ast := f.stamp
	touch := f.touch[:0]
	for _, e := range f.urows[pr] {
		f.acc[e.at] = e.val
		f.mark[e.at] = ast
		touch = append(touch, e.at)
		f.ucols[e.at] = removeEntryAt(f.ucols[e.at], pr)
		f.uNnz--
	}
	f.urows[pr] = f.urows[pr][:0]

	// Cyclic shift: slots t+1..m-1 move down one. The lists are keyed by
	// row and position, so only the slot arrays and maps move.
	copy(f.uPiv[t:m-1], f.uPiv[t+1:m])
	copy(f.uRow[t:m-1], f.uRow[t+1:m])
	copy(f.uPos[t:m-1], f.uPos[t+1:m])
	for s := t; s < m-1; s++ {
		f.slotOfRow[f.uRow[s]] = int32(s)
		f.slotOfPos[f.uPos[s]] = int32(s)
	}

	// Eliminate the detached row against slots t..m-2 in order, recording
	// the multipliers as a new row eta. Fill lands at later slots only, so
	// a single ascending pass empties the accumulator.
	rbase := len(f.rInd)
	for s := t; s <= m-2; s++ {
		pos := f.uPos[s]
		if f.mark[pos] != ast {
			continue
		}
		alpha := f.acc[pos]
		f.acc[pos] = 0
		if math.Abs(alpha) < luDropTol {
			continue
		}
		mu := alpha / f.uPiv[s]
		if math.Abs(mu) < luDropTol {
			continue
		}
		f.rInd = append(f.rInd, f.uRow[s])
		f.rVal = append(f.rVal, mu)
		for _, e := range f.urows[f.uRow[s]] {
			if f.mark[e.at] != ast {
				f.mark[e.at] = ast
				f.acc[e.at] = 0
				touch = append(touch, e.at)
			}
			f.acc[e.at] -= mu * e.val
		}
	}
	f.touch = touch[:0]

	// New diagonal: the spike's pivot-row entry after the new row eta.
	diag := f.spike[pr]
	for idx := rbase; idx < len(f.rInd); idx++ {
		diag -= f.rVal[idx] * f.spike[f.rInd[idx]]
	}
	if math.Abs(diag) < luAbsPivotTol || math.Abs(diag) < luUpdateRelTol*f.spikeMax {
		// Unstable: discard the half-built eta; the factor's U lists are
		// torn, but the caller refactorizes before any further solve.
		f.rInd = f.rInd[:rbase]
		f.rVal = f.rVal[:rbase]
		f.clearSpike()
		return false
	}
	if len(f.rInd) > rbase {
		f.rRow = append(f.rRow, pr)
		f.rStart = append(f.rStart, int32(len(f.rInd)))
	}

	// Install the spike as the last column of U (position r, row pr).
	last := m - 1
	f.uPiv[last] = diag
	f.uRow[last] = pr
	f.uPos[last] = r32
	f.slotOfRow[pr] = int32(last)
	f.slotOfPos[r] = int32(last)
	ucol := f.ucols[r][:0]
	install := func(row int32, val float64) {
		if row == pr || math.Abs(val) < luDropTol {
			return
		}
		ucol = append(ucol, luEntry{row, val})
		f.urows[row] = append(f.urows[row], luEntry{r32, val})
		f.uNnz++
	}
	if f.spikeDense {
		for row := int32(0); row < int32(m); row++ {
			install(row, f.spike[row])
		}
	} else {
		for _, row := range f.spikeNz {
			install(row, f.spike[row])
		}
	}
	f.ucols[r] = ucol
	f.nUpdates++
	f.clearSpike()
	return true
}
