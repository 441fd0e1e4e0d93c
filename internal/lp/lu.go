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
// value uPiv[t]. urows[t] holds the off-diagonal entries of U's row uRow[t]
// keyed by basis position (all at slots > t); ucols[t] holds the entries of
// U's column uPos[t] keyed by row (all at slots < t). Forrest-Tomlin updates
// cyclically shift slots, so rows and positions are mapped through
// slotOfRow/slotOfPos rather than stored as slot indices.

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
	// (no explicit WithKernel pin) runs the eta kernel instead of the LU
	// kernel. Measured on E7 MaxUtility at 30% budget (median of 6 samples
	// of 10 solves on a 2-CPU x86-64 container, with the LU kernel on dual
	// steepest-edge pricing): at 200 monitors x 100 attacks the eta kernel
	// is ~1.3x faster (20.9 vs 28.0 ms; cold Markowitz setup and
	// per-iteration factor walks dominate small bases), at 400 x 100 the LU
	// kernel is ~1.25x faster (31.2 vs 39.1 ms) and pulls further ahead as
	// the eta file's growth compounds. Those roots start primal feasible,
	// so the pricing change barely moved them (Dantzig-priced LU: 28.7 and
	// 31.6 ms). 256 sits in the measured crossover band.
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

	// U in slot order (see package comment).
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
	cursor  []int32
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

// orderClosure sorts a reachability closure ascending by key (by value when
// key is nil), in place. Every node of list carries the stamp st in dmark,
// and order lists all m nodes by ascending key (nil: the identity), so a
// closure holding at least m/luHyperDenom nodes is ordered by one O(m) scan
// of the stamps instead of an O(n log n) comparison sort. Keys are distinct,
// so both give the same order and the solves stay bit-identical.
func (f *luFactor) orderClosure(list []int32, st int64, order, key []int32) {
	if len(list)*luHyperDenom < f.m {
		sortI32ByKey(list, key)
		return
	}
	n := 0
	if order == nil {
		for x, d := range f.dmark[:f.m] {
			if d == st {
				list[n] = int32(x)
				n++
			}
		}
		return
	}
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
		for _, e := range f.urows[t] {
			st := f.slotOfPos[e.at]
			f.ucols[st] = append(f.ucols[st], luEntry{r, e.val})
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
	urow := f.urows[k][:0]
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
	f.urows[k] = urow

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
// position-space result is written to out, which is fully (re)initialized.
// saveSpike records the partial FTRAN R...R L^-1 v for a following update.
func (f *luFactor) ftran(v, out []float64, nzIn []int32, saveSpike bool) {
	m := f.m
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
		clear(out)
		for t := m - 1; t >= 0; t-- {
			sum := v[f.uRow[t]]
			for _, e := range f.urows[t] {
				if w := out[e.at]; w != 0 {
					sum -= e.val * w
				}
			}
			if sum != 0 {
				out[f.uPos[t]] = sum / f.uPiv[t]
			}
		}
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
	// of earlier slots through its column), executed in descending slot
	// order.
	clear(out)
	f.dstamp++
	us := f.dstamp
	slots := f.stack[:0] // stack doubles as the slot list; DFS uses its tail
	for _, r := range reach {
		if v[r] == 0 {
			continue
		}
		t := f.slotOfRow[r]
		if f.dmark[t] != us {
			f.dmark[t] = us
			slots = append(slots, t)
		}
	}
	for probe := 0; probe < len(slots); probe++ {
		t := slots[probe]
		for _, e := range f.ucols[t] {
			st := f.slotOfRow[e.at]
			if f.dmark[st] != us {
				f.dmark[st] = us
				slots = append(slots, st)
			}
		}
	}
	f.orderClosure(slots, us, nil, nil)
	for i := len(slots) - 1; i >= 0; i-- {
		t := slots[i]
		sum := v[f.uRow[t]]
		for _, e := range f.urows[t] {
			if w := out[e.at]; w != 0 {
				sum -= e.val * w
			}
		}
		if sum != 0 {
			out[f.uPos[t]] = sum / f.uPiv[t]
		}
	}
	f.stack = slots[:0]
	for _, r := range reach {
		v[r] = 0
	}
	f.reach = reach[:0]
}

// btran solves B^T y = v. v is a position-space vector, zero outside nzIn
// (nzIn nil means dense); it is left untouched. The row-space result is
// written to out, which is fully (re)initialized.
func (f *luFactor) btran(v, out []float64, nzIn []int32) {
	m := f.m
	if nzIn == nil || m < luHyperMinDim || len(nzIn)*luHyperDenom >= m {
		clear(out)
		for t := 0; t < m; t++ {
			sum := v[f.uPos[t]]
			for _, e := range f.ucols[t] {
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
		return
	}

	// Hyper-sparse path. U^T: closure over slots (a solved row feeds the
	// equations of later slots through its U row), executed in ascending
	// slot order.
	clear(out)
	f.dstamp++
	us := f.dstamp
	slots := f.stack[:0]
	for _, p := range nzIn {
		t := f.slotOfPos[p]
		if f.dmark[t] != us {
			f.dmark[t] = us
			slots = append(slots, t)
		}
	}
	for probe := 0; probe < len(slots); probe++ {
		t := slots[probe]
		for _, e := range f.urows[t] {
			st := f.slotOfPos[e.at]
			if f.dmark[st] != us {
				f.dmark[st] = us
				slots = append(slots, st)
			}
		}
	}
	f.orderClosure(slots, us, nil, nil)
	f.dstamp++
	rs := f.dstamp
	rows := f.reach[:0] // row-space nonzero pattern
	for _, t := range slots {
		sum := v[f.uPos[t]]
		for _, e := range f.ucols[t] {
			if w := out[e.at]; w != 0 {
				sum -= e.val * w
			}
		}
		if sum == 0 {
			continue
		}
		r := f.uRow[t]
		out[r] = sum / f.uPiv[t]
		if f.dmark[r] != rs {
			f.dmark[r] = rs
			rows = append(rows, r)
		}
	}
	f.stack = slots[:0]
	for j := len(f.rRow) - 1; j >= 0; j-- {
		t := out[f.rRow[j]]
		if t == 0 {
			continue
		}
		for idx := f.rStart[j]; idx < f.rStart[j+1]; idx++ {
			r := f.rInd[idx]
			out[r] -= f.rVal[idx] * t
			if f.dmark[r] != rs {
				f.dmark[r] = rs
				rows = append(rows, r)
			}
		}
	}
	// L^T: closure over steps (a nonzero multiplier row feeds the steps
	// whose multiplier sets contain it), executed in descending step order.
	steps := f.stack[:0]
	f.dstamp++
	ls := f.dstamp
	for _, r := range rows {
		for idx := f.ltPtr[r]; idx < f.ltPtr[r+1]; idx++ {
			k := f.ltStep[idx]
			if f.dmark[k] != ls {
				f.dmark[k] = ls
				steps = append(steps, k)
			}
		}
	}
	for probe := 0; probe < len(steps); probe++ {
		k := steps[probe]
		r := f.lRow[k]
		for idx := f.ltPtr[r]; idx < f.ltPtr[r+1]; idx++ {
			k2 := f.ltStep[idx]
			if f.dmark[k2] != ls {
				f.dmark[k2] = ls
				steps = append(steps, k2)
			}
		}
	}
	f.orderClosure(steps, ls, nil, nil)
	for i := len(steps) - 1; i >= 0; i-- {
		k := steps[i]
		sum := out[f.lRow[k]]
		for idx := f.lStart[k]; idx < f.lStart[k+1]; idx++ {
			sum -= f.lVal[idx] * out[f.lInd[idx]]
		}
		out[f.lRow[k]] = sum
	}
	f.stack = steps[:0]
	f.reach = rows[:0]
}

// update absorbs a basis change at position r by a Forrest-Tomlin update:
// the U column at r's slot is removed, the slots are cyclically shifted, the
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

	// Drop column r from its owner rows, and detach row pr into the
	// position-indexed accumulator (its entries all sit at slots > t).
	for _, e := range f.ucols[t] {
		s := f.slotOfRow[e.at]
		f.urows[s] = removeEntryAt(f.urows[s], int32(r))
		f.uNnz--
	}
	f.ucols[t] = f.ucols[t][:0]
	f.stamp++
	ast := f.stamp
	touch := f.touch[:0]
	for _, e := range f.urows[t] {
		f.acc[e.at] = e.val
		f.mark[e.at] = ast
		touch = append(touch, e.at)
		f.ucols[f.slotOfPos[e.at]] = removeEntryAt(f.ucols[f.slotOfPos[e.at]], pr)
		f.uNnz--
	}
	f.urows[t] = f.urows[t][:0]

	// Cyclic shift: slots t+1..m-1 move down one; the emptied slot's list
	// headers ride up to the last slot.
	for s := t; s < m-1; s++ {
		f.uPiv[s] = f.uPiv[s+1]
		f.uRow[s] = f.uRow[s+1]
		f.uPos[s] = f.uPos[s+1]
		f.urows[s], f.urows[s+1] = f.urows[s+1], f.urows[s]
		f.ucols[s], f.ucols[s+1] = f.ucols[s+1], f.ucols[s]
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
		for _, e := range f.urows[s] {
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
	f.uPos[last] = int32(r)
	f.slotOfRow[pr] = int32(last)
	f.slotOfPos[r] = int32(last)
	ucol := f.ucols[last][:0]
	install := func(row int32, val float64) {
		if row == pr || math.Abs(val) < luDropTol {
			return
		}
		ucol = append(ucol, luEntry{row, val})
		f.urows[f.slotOfRow[row]] = append(f.urows[f.slotOfRow[row]], luEntry{int32(r), val})
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
	f.ucols[last] = ucol
	f.nUpdates++
	f.clearSpike()
	return true
}
