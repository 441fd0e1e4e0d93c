package lp

import "sync"

// Workspace holds reusable scratch memory for simplex solves. Repeated
// Solve calls on problems of the same shape (the branch-and-bound access
// pattern) then stop reallocating the tableau, bounds, basis and
// reduced-cost vectors on every call.
//
// A Workspace may serve only one Solve at a time: it is not safe for
// concurrent use. Give each goroutine its own Workspace (the parallel
// branch-and-bound workers do exactly that). The zero value is ready to
// use; buffers grow on demand and are retained between solves.
//
// Solutions returned by Solve never alias workspace memory, so they stay
// valid after the workspace is reused.
type Workspace struct {
	tab, x, upper, cost    []float64
	shift, structUpper     []float64
	structCost, rhs        []float64
	d, c1                  []float64
	rowDualSign            []float64
	basis, colOf           []int
	structOrig, rowDualCol []int
	status                 []varStatus
	redundant, rowFlipped  []bool
	colRow                 []int  // captureBasis: owning row per slack/artificial column
	seen                   []bool // captureBasis: stable columns already basic

	// sparse revised-simplex state; see sparse.go. Kept in its own
	// sub-struct, fully disjoint from the cold tableau buffers above, so
	// alternating kernels on one workspace can never hand one kernel the
	// other's stale scratch: acquisition is kernel-aware by construction,
	// and the sparse state additionally keys itself on (problem, shape,
	// basis identity) before trusting any cached factorization.
	sparse sparseState
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// solvePool backs Solve calls that were not given an explicit workspace, so
// the allocation win applies to every caller. sync.Pool is concurrency-safe
// and sheds memory under GC pressure.
var solvePool = sync.Pool{New: func() any { return &Workspace{} }}

// f64 returns buf resized to n, reusing its capacity. When zero is true the
// returned slice is cleared; callers that assign every element skip the
// clear.
func f64(buf *[]float64, n int, zero bool) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	s := (*buf)[:n]
	if zero {
		clear(s)
	}
	return s
}

func ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

func statuses(buf *[]varStatus, n int) []varStatus {
	if cap(*buf) < n {
		*buf = make([]varStatus, n)
	}
	s := (*buf)[:n]
	clear(s) // zero value statusLower is load-bearing
	return s
}

func bools(buf *[]bool, n int, zero bool) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	s := (*buf)[:n]
	if zero {
		clear(s)
	}
	return s
}
