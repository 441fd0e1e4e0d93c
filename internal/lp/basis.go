package lp

// Basis snapshots for warm-started re-solves.
//
// The cold simplex in simplex.go tailors its tableau to the current bounds:
// fixed variables are eliminated and rows are flipped so the right-hand side
// is non-negative, which makes its column layout unusable across solves
// whose bounds differ. Basis snapshots therefore use a second, *stable*
// layout: columns 0..n-1 are the structural variables with their original
// bounds and column n+i is a logical for row i — coefficient +1 with range
// [0, +Inf) for <= rows, -1 with range [0, +Inf) for >= rows, and +1 fixed
// to [0, 0] for = rows. The column structure depends only on the rows, never
// on bounds or right-hand-side signs, so a basis captured at one node of the
// branch-and-bound tree can be re-installed at any other node of the same
// problem.
//
// The sparse kernels (sparse.go) warm-start from these snapshots; the dense
// tableau always solves cold and only captures its final basis, so a dense
// fallback inside a sparse search still hands the next child a basis.

import (
	"math"
	"sync/atomic"
)

// Basis is an immutable snapshot of a simplex basis in the stable column
// layout. It is produced by solves run with WithWarmStart and may be shared
// freely across goroutines; branch-and-bound nodes carry the pointer of
// their parent's basis and workers restore it into private workspaces.
type Basis struct {
	id       uint64
	n, m     int     // problem shape at capture time
	rowBasic []int32 // basic stable column per factorization row
	vstat    []uint8 // varStatus per structural variable
}

// basisIDs issues unique basis identities; id 0 is reserved for "none".
var basisIDs atomic.Uint64

// captureBasis translates the cold simplex's final basis into the stable
// layout. Compact structural columns map through structOrig; slack and
// artificial columns map to the logical of the row they were created for
// (the cold column is a +/-1 multiple of that logical, so nonsingularity is
// preserved). It returns nil when the mapping would be ambiguous — e.g. a
// redundant >= row leaving both its surplus and its artificial basic, which
// would target the same logical twice.
func (s *simplex) captureBasis() *Basis {
	n, m := s.origN, s.m
	colRow := ints(&s.ws.colRow, s.nCols)
	slack, art := s.nStruct, s.artAt
	for i, c := range s.prob.cons {
		op := c.op
		if s.rowFlipped[i] {
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		if op != EQ {
			colRow[slack] = i
			slack++
		}
		if op != LE {
			colRow[art] = i
			art++
		}
	}
	seen := bools(&s.ws.seen, n+m, true)
	rowBasic := make([]int32, m)
	for i := 0; i < m; i++ {
		b := s.basis[i]
		var c int
		if b < s.nStruct {
			c = s.structOrig[b]
		} else {
			c = n + colRow[b]
		}
		if seen[c] {
			return nil
		}
		seen[c] = true
		rowBasic[i] = int32(c)
	}
	vstat := make([]uint8, n)
	for j := 0; j < n; j++ {
		col := s.colOf[j]
		if col < 0 {
			vstat[j] = uint8(statusLower) // fixed: lower == upper
			continue
		}
		stj := s.status[col]
		if stj == statusUpper && math.IsInf(s.prob.vars[j].upper, 1) {
			return nil
		}
		vstat[j] = uint8(stj)
	}
	return &Basis{id: basisIDs.Add(1), n: n, m: m, rowBasic: rowBasic, vstat: vstat}
}
