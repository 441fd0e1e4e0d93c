package lp

// Basis remapping across problem edits.
//
// A Basis is keyed to the exact shape it was captured on: a warm solve
// rejects any snapshot whose variable or row count differs from the problem at hand.
// Coordinator loops that re-solve after an instance EDIT — columns added or
// dropped, rows added or dropped — would therefore always fall back to a
// cold two-phase solve. RemapBasis translates a snapshot between two shapes
// by matching structural variables and rows by NAME: callers that name
// columns and rows after stable domain identifiers (the optimizer names
// monitor columns "x:<monitor-id>" and link rows "link:<data-type>") get
// basis reuse across add/drop edits for free. The translation is best-effort
// and always safe: a remapped basis is still subject to the warm path's
// structural, singularity and dual-feasibility checks, so the worst case is
// the cold solve the caller would have run anyway.

import "math"

// RemapBasis translates a basis captured on problem `from` into the stable
// layout of problem `to`, matching structural variables and rows by name.
//
//   - A variable present in both problems keeps its status (downgraded to
//     nonbasic-at-lower when its basic row assignment could not be carried,
//     or when its new upper bound is infinite and the old status was upper).
//   - A variable only in `to` starts nonbasic at its lower bound.
//   - A row present in both problems keeps its basic column when that column
//     still exists; otherwise (and for rows only in `to`) the row's own
//     logical becomes basic.
//
// It returns nil when the snapshot does not fit `from`, when either problem
// has duplicate names (the match would be ambiguous), or when a conflict-free
// assignment of basic columns could not be built; callers then solve cold.
// When the two problems have identical shape and names, b is returned as-is.
func RemapBasis(b *Basis, from, to *Problem) *Basis {
	if b == nil || from == nil || to == nil {
		return nil
	}
	oldN, oldM := len(from.vars), len(from.cons)
	if b.n != oldN || b.m != oldM {
		return nil
	}
	newN, newM := len(to.vars), len(to.cons)

	if oldN == newN && oldM == newM && sameLayout(from, to) {
		return b
	}

	colOf := make(map[string]int, newN)
	for j := range to.vars {
		if _, dup := colOf[to.vars[j].name]; dup {
			return nil
		}
		colOf[to.vars[j].name] = j
	}
	rowOf := make(map[string]int, newM)
	for i := range to.cons {
		if _, dup := rowOf[to.cons[i].name]; dup {
			return nil
		}
		rowOf[to.cons[i].name] = i
	}

	// colMap/rowMap: old index -> new index, -1 when dropped.
	colMap := make([]int, oldN)
	seenOldCol := make(map[string]bool, oldN)
	for j := range from.vars {
		name := from.vars[j].name
		if seenOldCol[name] {
			return nil
		}
		seenOldCol[name] = true
		if nj, ok := colOf[name]; ok {
			colMap[j] = nj
		} else {
			colMap[j] = -1
		}
	}
	rowMap := make([]int, oldM)
	seenOldRow := make(map[string]bool, oldM)
	for i := range from.cons {
		name := from.cons[i].name
		if seenOldRow[name] {
			return nil
		}
		seenOldRow[name] = true
		if ni, ok := rowOf[name]; ok {
			rowMap[i] = ni
		} else {
			rowMap[i] = -1
		}
	}
	// oldRowAt: new row index -> old row index, -1 for freshly added rows.
	oldRowAt := make([]int, newM)
	for i := range oldRowAt {
		oldRowAt[i] = -1
	}
	for i, ni := range rowMap {
		if ni >= 0 {
			oldRowAt[ni] = i
		}
	}

	used := make([]bool, newN+newM)
	rowBasic := make([]int32, newM)
	for i := range rowBasic {
		rowBasic[i] = -1
	}
	for i2 := 0; i2 < newM; i2++ {
		oi := oldRowAt[i2]
		if oi < 0 {
			continue // fresh row: logical assigned below
		}
		c := int(b.rowBasic[oi])
		nc := -1
		if c < oldN {
			nc = colMap[c]
		} else if nr := rowMap[c-oldN]; nr >= 0 {
			nc = newN + nr
		}
		if nc >= 0 && !used[nc] {
			rowBasic[i2] = int32(nc)
			used[nc] = true
		}
	}
	for i2 := 0; i2 < newM; i2++ {
		if rowBasic[i2] >= 0 {
			continue
		}
		lg := newN + i2
		if used[lg] {
			// The row's own logical already serves as another row's basic
			// column; forcing an arbitrary replacement risks a singular
			// basis, so let the cold path handle this edit.
			return nil
		}
		rowBasic[i2] = int32(lg)
		used[lg] = true
	}

	vstat := make([]uint8, newN)
	for j2 := range vstat {
		vstat[j2] = uint8(statusLower)
	}
	basic := make([]bool, newN)
	for _, c := range rowBasic {
		if int(c) < newN {
			basic[c] = true
		}
	}
	for j := 0; j < oldN; j++ {
		nj := colMap[j]
		if nj < 0 {
			continue
		}
		s := varStatus(b.vstat[j])
		if s == statusBasic && !basic[nj] {
			s = statusLower
		}
		if s == statusUpper && math.IsInf(to.vars[nj].upper, 1) {
			s = statusLower
		}
		vstat[nj] = uint8(s)
	}
	return &Basis{id: basisIDs.Add(1), n: newN, m: newM, rowBasic: rowBasic, vstat: vstat}
}

// sameLayout reports whether two equally shaped problems agree on every
// variable and row name positionally, making a basis of one directly usable
// on the other.
func sameLayout(from, to *Problem) bool {
	for j := range from.vars {
		if from.vars[j].name != to.vars[j].name {
			return false
		}
	}
	for i := range from.cons {
		if from.cons[i].name != to.cons[i].name {
			return false
		}
	}
	return true
}
